"""tools/digest.py: what it hashes and how a failing chain ends it."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_one_command_into_two_directories_hashes_alike(tmp_path):
    """The digest hashes each file as written: a run's outputs, its effective config
    among them, do not depend on the directory it writes into."""
    here, there = tmp_path / "here", tmp_path / "exp #2 there"
    for out in (here, there):
        digest.run(["evaluate", "--patterns", "ramp", "--set", "episode_s=30",
                    "--out", str(out)])
    names = sorted(path.name for path in here.iterdir())
    assert names == sorted(path.name for path in there.iterdir())
    assert "effective_config.txt" in names
    for name in names:
        assert digest.file_digest(here / name) == digest.file_digest(there / name), name


def test_a_digest_chain_stops_at_its_first_failing_command(tmp_path, capsys):
    """A refused command ends its chain with the command's words and status, and the
    chain's next command never runs."""
    first, second = tmp_path / "first", tmp_path / "second"
    with pytest.raises(SystemExit, match=r"kisim evaluate --set node_mem_bytes=1 --out "
                                         r".*first exited 1"):
        digest.run_chain([["evaluate", "--set", "node_mem_bytes=1", "--out", str(first)],
                          ["evaluate", "--out", str(second)]])
    assert "unknown config key: 'node_mem_bytes'" in capsys.readouterr().err
    assert not first.exists() and not second.exists()
