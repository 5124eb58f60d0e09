"""tools/digest.py: what it hashes and how a failing chain ends it."""

import importlib.util
from pathlib import Path

import pytest

from kisim.config import ExperimentConfig

_SPEC = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_the_digest_masks_the_out_dir_line_of_a_config_alone(tmp_path):
    """Two runs into different directories hash alike; any other byte still counts."""
    def config(name, **kw):
        path = tmp_path / name / "effective_config.txt"
        path.parent.mkdir()
        path.write_text(ExperimentConfig(out_dir=str(tmp_path / name), **kw).to_text())
        return path
    here, there, seeded = config("a"), config("b"), config("c", seed=7)
    assert here.read_bytes() != there.read_bytes()
    assert digest.file_digest(here) == digest.file_digest(there)
    assert digest.file_digest(seeded) != digest.file_digest(here)
    other = tmp_path / "a" / "notes.txt"          # only effective_config.txt is masked
    other.write_bytes(here.read_bytes())
    assert digest.file_digest(other) != digest.file_digest(here)


def test_a_digest_chain_stops_at_its_first_failing_command(tmp_path, capsys):
    """A refused command ends its chain with the command's words and status, and the
    chain's next command never runs."""
    first, second = tmp_path / "first", tmp_path / "second"
    with pytest.raises(SystemExit, match=r"kisim baseline --set node_mem_bytes=1 --out "
                                         r".*first exited 1"):
        digest.run_chain([["baseline", "--set", "node_mem_bytes=1", "--out", str(first)],
                          ["baseline", "--out", str(second)]])
    assert "unknown config key: 'node_mem_bytes'" in capsys.readouterr().err
    assert not first.exists() and not second.exists()
