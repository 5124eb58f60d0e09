import itertools
import json

import kisim.cli
from kisim.agent import PpoAgent, TrainState, save_checkpoint
from kisim.baselines import POLICY_NAMES
from kisim.cli import main
from kisim.nn import NetDims
from kisim.traffic import PATTERN_NAMES

POLICIES = ("kiscaler",) + POLICY_NAMES


def test_train_evaluate_replay_smoke(tmp_path):
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    assert main(["train", "--episodes", "2", "--set", "episode_s=60",
                 "--out", str(train_dir)]) == 0
    assert main(["evaluate", str(train_dir / "checkpoint.kisc"),
                 "--set", "episode_s=60", "--out", str(eval_dir)]) == 0
    assert main(["replay", str(train_dir / "trace.jsonl"),
                 "--out", str(tmp_path / "replay")]) == 0
    assert (tmp_path / "replay" / "replay_summary.csv").exists()

    rows = json.loads((eval_dir / "comparison.json").read_text())
    assert len(rows) == 16
    assert {(r["pattern"], r["policy"]) for r in rows} == \
        set(itertools.product(PATTERN_NAMES, POLICIES))
    for pattern, policy in itertools.product(PATTERN_NAMES, POLICIES):
        assert (eval_dir / f"timeseries_{pattern}_{policy}.csv").exists()


def test_removed_config_key_is_rejected(tmp_path, capsys):
    code = main(["train", "--episodes", "1", "--set", "moving_avg_window=10",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def _report(pattern, policy, p95_ms):
    return {"pattern": pattern, "policy": policy, "p95_ms": p95_ms,
            "mean_ms": p95_ms / 2, "throughput_rps": 10.0, "gpu_util_mean": 0.5,
            "cpu_util_mean": 0.1, "mem_util_mean": 0.1, "requests_injected": 10,
            "requests_completed": 10, "traffic_seed": 1}


def test_baselines_ahead_flag_counts_hpa(tmp_path, monkeypatch):
    p95 = {"ramp": {"kiscaler": 300.0, "fixed_gpu": 500.0, "fixed_cpu": 700.0, "hpa": 150.0},
           "spike": {"kiscaler": 100.0, "fixed_gpu": 500.0, "fixed_cpu": 700.0, "hpa": 150.0}}
    monkeypatch.setattr(
        kisim.cli, "run_policy_episode",
        lambda agent, pattern, cfg, seed, timeseries=None:
            _report(pattern, "kiscaler", p95[pattern]["kiscaler"]))
    monkeypatch.setattr(
        kisim.cli, "run_baseline",
        lambda policy, pattern, cfg, traffic_seed, timeseries=None:
            _report(pattern, policy, p95[pattern][policy]))
    checkpoint = tmp_path / "fresh.kisc"
    save_checkpoint(PpoAgent(NetDims(hidden1=8, hidden2=8)).params, TrainState(), checkpoint)

    assert main(["evaluate", str(checkpoint), "--patterns", "ramp", "spike",
                 "--out", str(tmp_path / "eval")]) == 0
    rows = json.loads((tmp_path / "eval" / "comparison.json").read_text())
    flags = {(r["pattern"], r["policy"]): r["flag"] for r in rows}
    assert flags == {("ramp", "kiscaler"): "baselines_ahead",
                     **{("ramp", p): "" for p in POLICY_NAMES},
                     ("spike", "kiscaler"): "",
                     **{("spike", p): "" for p in POLICY_NAMES}}
