"""Tiny runs of every workload: outputs checked, digests repeat, and the
metrics match BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = ("--set", "episode_s=30")
TINY = {
    "train": ("--episodes", "2", *SHORT),
    "evaluate": SHORT,
    "dense_control": ("--episodes", "2", *SHORT),
}


def tiny_run(name, trace, work_dir, seed=7):
    return workloads.run_workload(name, seed, 1, trace, src=ROOT / "src",
                                  work_dir=work_dir, extra_args=TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_repeats_its_digests(name, tmp_path):
    result, report = tiny_run(name, False, tmp_path)
    assert result["correct"], report["failures"] + report["digest_mismatches"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced, traced_report = tiny_run(name, True, tmp_path)
    assert traced["correct"], traced_report["failures"] + traced_report["digest_mismatches"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    def argv_and_digest(r):
        return [(c["argv"], c["digest"]) for c in r["commands"]]
    assert argv_and_digest(traced_report) == argv_and_digest(report)
    assert traced_report["trace_overhead_share"] > -1.0


def test_a_changed_digest_fails_the_run(tmp_path):
    tiny_run("train", False, tmp_path)
    store = json.loads((tmp_path / "digests.json").read_text())
    for digests in store.values():
        for name in digests:
            digests[name] = "0" * 16
    (tmp_path / "digests.json").write_text(json.dumps(store))
    result, report = tiny_run("train", False, tmp_path)
    assert not result["correct"]
    assert report["digest_mismatches"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_broken_invariant_fails_every_episode(tmp_path, monkeypatch):
    from kisim.simcore import ClusterModel
    monkeypatch.setattr(ClusterModel, "active_gpu_count",
                        lambda cluster: cluster.gpu_device_budget + 1)
    result, report = tiny_run("train", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert "over budget" in report["failures"][0]
