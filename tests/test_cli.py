import csv
import itertools
import json
import math

import pytest

import kisim.cli
from kisim.agent import (MOVING_AVG_WINDOW, PpoAgent, TrainState, load_checkpoint,
                         save_checkpoint)
from kisim.baselines import POLICY_NAMES
from kisim.cli import main
from kisim.nn import ActorCriticParams, NetDims
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


@pytest.mark.parametrize("line, message", [
    ("{}", "trace line 1: missing key 'action'"),
    ("3", "trace line 1: not a JSON object"),
    ('{"episode":0,"action":[1]}', "trace line 1: action [1] is not 3 ints"),
    ('{"episode":0,"step":1,"pattern":"ramp","action":[0,0,0],"reward":3,"desired_gpu":1,'
     '"desired_cpu":3,"users":5}', "trace line 1: 'int' object is not subscriptable")],
    ids=["no_keys", "not_an_object", "short_action", "reward_not_an_object"])
def test_replay_refuses_a_trace_record_it_cannot_read(line, message, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def test_two_identical_train_runs_write_identical_files(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["train", "--episodes", "3", "--set", "episode_s=30", "--set", "hidden1=8",
                     "--set", "hidden2=6", "--out", str(out)]) == 0
    files = [{path.name: path.read_bytes() for path in out.iterdir()} for out in outs]
    for written, out in zip(files, outs):
        written["effective_config.txt"] = \
            written["effective_config.txt"].replace(str(out).encode(), b"OUT")
    assert files[0] == files[1]


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


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_training_outputs_agree(tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--episodes", "4", "--set", "episode_s=30",
                 "--set", "eval_every=2", "--out", str(out)]) == 0
    _, state = load_checkpoint(out / "checkpoint.kisc")
    log = _read_csv(out / "training_log.csv")
    returns = [float(row["return"]) for row in log]
    assert returns == state.returns and state.episode_index == 4
    assert [row["pattern"] for row in log] == \
        [PATTERN_NAMES[ep % len(PATTERN_NAMES)] for ep in range(4)]
    for ep, row in enumerate(log):
        window = returns[max(0, ep + 1 - MOVING_AVG_WINDOW):ep + 1]
        assert float(row["moving_avg"]) == sum(window) / len(window)
        assert row["policy_loss"] != ""           # one update per episode
    # every pattern appears once, so each pattern's moving average is its return
    assert [float(row["pattern_moving_avg"]) for row in
            _read_csv(out / "pattern_rewards.csv")] == returns

    evals = _read_csv(out / "eval_log.csv")
    assert [(int(r["train_episode"]), int(r["eval_round"]), r["pattern"]) for r in evals] == \
        [(1, 1, p) for p in PATTERN_NAMES] + [(3, 2, p) for p in PATTERN_NAMES]
    assert all(math.isfinite(float(r["return"])) for r in evals)

    _, best = load_checkpoint(out / "checkpoint_best.kisc")
    assert 1 <= best.episode_index <= 4
    assert best.returns == state.returns[:best.episode_index]
    assert best.best_moving_avg == best.moving_avg == state.best_moving_avg


def test_evaluate_acts_with_the_checkpoint_weights_without_initializing_any(
        tmp_path, monkeypatch):
    checkpoint = tmp_path / "fresh.kisc"
    params = PpoAgent(NetDims(hidden1=8, hidden2=8), seed=5).params
    save_checkpoint(params, TrainState(), checkpoint)
    acted_with = []

    def run_policy_episode(agent, pattern, cfg, seed, timeseries=None):
        acted_with.append(agent.params)
        return _report(pattern, "kiscaler", 1.0)

    monkeypatch.setattr(ActorCriticParams, "initialize", None)   # any call raises
    monkeypatch.setattr(kisim.cli, "run_policy_episode", run_policy_episode)
    assert main(["evaluate", str(checkpoint), "--patterns", "ramp", "--set", "episode_s=15",
                 "--out", str(tmp_path / "eval")]) == 0
    [loaded] = acted_with
    assert all((loaded.tensors[k] == v).all() for k, v in params.tensors.items())
