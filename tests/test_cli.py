import csv
import itertools
import json
import math

import pytest

import kisim.cli
import kisim.env
from kisim.agent import (MOVING_AVG_WINDOW, PpoAgent, TrainState, load_checkpoint,
                         save_checkpoint)
from kisim.baselines import POLICY_NAMES, run_baseline
from kisim.cli import EVAL_SEED_BASE, main
from kisim.config import ExperimentConfig
from kisim.env import TIMESERIES_FIELDS, episode_traffic
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
     '"desired_cpu":3,"users":5}', "trace line 1: 'int' object is not subscriptable"),
    ('{"episode":0,"step":1,"pattern":["ramp"],"action":[0,0,0],"reward":{"total":1},'
     '"desired_gpu":1,"desired_cpu":3,"users":5}', "trace line 1: unhashable type: 'list'")],
    ids=["no_keys", "not_an_object", "short_action", "reward_not_an_object", "list_pattern"])
def test_replay_refuses_a_trace_record_it_cannot_read(line, message, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def test_replay_prints_each_patterns_distinct_actions_and_most_common_share(tmp_path, capsys):
    steps = [("ramp", [0, 0, 1])] * 3 + [("ramp", [1, -1, 1]), ("spike", [0, -2, 1])] * 2
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"episode": i // 3, "step": i, "pattern": pattern, "action": action,
                    "reward": {"total": 0.25}, "desired_gpu": 1, "desired_cpu": 3,
                    "users": 5}) + "\n"
        for i, (pattern, action) in enumerate(steps)))
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:-1] == ["pattern ramp: 5 steps, 2 distinct action(s), the most common 60.0%",
                          "pattern spike: 2 steps, 1 distinct action(s), the most common 100.0%"]
    assert "action histogram (7 steps):" in out
    with (tmp_path / "replay" / "replay_summary.csv").open() as fh:
        assert [row["pattern"] for row in csv.DictReader(fh)] == [p for p, _ in steps]


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


def _fresh_checkpoint(tmp_path):
    checkpoint = tmp_path / "fresh.kisc"
    save_checkpoint(PpoAgent(NetDims(hidden1=8, hidden2=8)).params, TrainState(), checkpoint)
    return checkpoint


@pytest.mark.parametrize("argv, message", [
    (["baseline", "--patterns", "bogus"], "unknown pattern name: 'bogus'"),
    (["evaluate", "missing.kisc"], "missing.kisc"),
    (["baseline", "--patterns", "ramp", "spike", "ramp"],
     "pattern name 'ramp' is given more than once"),
    (["evaluate", "CHECKPOINT", "--patterns", "spike", "spike"],
     "pattern name 'spike' is given more than once")],
    ids=["baseline_unknown_pattern", "evaluate_missing_checkpoint",
         "baseline_repeated_pattern", "evaluate_repeated_pattern"])
def test_a_refused_comparison_writes_nothing(argv, message, tmp_path, capsys):
    argv = [str(_fresh_checkpoint(tmp_path)) if a == "CHECKPOINT" else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--set", "episode_s=15", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _assert_cells_read_back(csv_rows, rows):
    """Every cell is its value's text; a float's parses back to the same float."""
    assert len(csv_rows) == len(rows)
    for cells, row in zip(csv_rows, rows):
        for key, cell in cells.items():
            if isinstance(row[key], float):
                assert float(cell) == row[key], key
            else:
                assert cell == str(row[key]), key


def test_evaluate_rows_and_csv_cells_follow_the_grid(tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", str(_fresh_checkpoint(tmp_path)), "--patterns", "spike", "ramp",
                 "--set", "episode_s=30", "--seed", "3", "--out", str(out)]) == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert [(r["pattern"], r["policy"]) for r in rows] == \
        [(p, policy) for p in ("spike", "ramp") for policy in POLICIES]
    for row in rows:
        assert row["traffic_seed"] == \
            episode_traffic(3, EVAL_SEED_BASE + PATTERN_NAMES.index(row["pattern"]))[1]
    _assert_cells_read_back(_read_csv(out / "comparison.csv"), rows)

    ts: list[dict] = []
    cfg = ExperimentConfig(episode_s=30.0, seed=3, out_dir=str(out))
    run_baseline("hpa", "ramp", cfg, traffic_seed=rows[-1]["traffic_seed"], timeseries=ts)
    csv_rows = _read_csv(out / "timeseries_ramp_hpa.csv")
    assert list(csv_rows[0]) == list(TIMESERIES_FIELDS)
    _assert_cells_read_back(csv_rows, ts)


def test_evaluate_runs_each_policy_once_through_one_runner(tmp_path, monkeypatch):
    """perfbench times an episode at `kisim.cli.run_policy_episode` (KIScaler) and
    `kisim.cli.run_baseline`: each run passes one of them once, then the one runner."""
    assert kisim.cli.run_policy_episode is kisim.env.run_policy_episode
    calls = []

    def spy(name, original):
        def call(*args, **kwargs):
            calls.append((name, args[1]))       # every entry point takes the pattern second
            return original(*args, **kwargs)
        return call

    runner = spy("runner", kisim.env.run_policy_episode)
    monkeypatch.setattr(kisim.env, "run_policy_episode", runner)
    monkeypatch.setattr(kisim.cli, "run_policy_episode", spy("cli.run_policy_episode", runner))
    monkeypatch.setattr(kisim.cli, "run_baseline", spy("cli.run_baseline", run_baseline))
    assert main(["evaluate", str(_fresh_checkpoint(tmp_path)), "--patterns", "spike", "ramp",
                 "--set", "episode_s=30", "--out", str(tmp_path / "eval")]) == 0
    assert calls == [call for p in ("spike", "ramp") for call in
                     [("cli.run_policy_episode", p), ("runner", p)]
                     + [("cli.run_baseline", p), ("runner", p)] * len(POLICY_NAMES)]


def test_baseline_runs_every_pattern_through_run_baseline(tmp_path, monkeypatch):
    calls = []

    def fake_run_baseline(policy, pattern, cfg, traffic_seed, timeseries=None):
        calls.append((pattern, policy, traffic_seed))
        return {**_report(pattern, policy, 10.0 if policy == "fixed_gpu" else 30.0),
                "traffic_seed": traffic_seed}

    monkeypatch.setattr(kisim.cli, "run_baseline", fake_run_baseline)
    out = tmp_path / "base"
    assert main(["baseline", "--patterns", "spike", "ramp", "--seed", "7",
                 "--out", str(out)]) == 0
    seeds = {p: episode_traffic(7, PATTERN_NAMES.index(p))[1] for p in ("spike", "ramp")}
    assert calls == [(p, policy, seeds[p]) for p in ("spike", "ramp")
                     for policy in ("fixed_gpu", "fixed_cpu")]
    rows = json.loads((out / "baseline_report.json").read_text())
    assert [(r["pattern"], r["traffic_seed"], r["speedup"]) for r in rows] == \
        [("spike", seeds["spike"], 3.0), ("ramp", seeds["ramp"], 3.0)]


def test_baseline_report_cells_read_back(tmp_path):
    out = tmp_path / "base"
    assert main(["baseline", "--patterns", "periodic", "--set", "episode_s=30",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "baseline_report.json").read_text())
    assert rows[0]["gpu_p95_ms"] > 0 and rows[0]["cpu_p95_ms"] > 0
    _assert_cells_read_back(_read_csv(out / "baseline_report.csv"), rows)


@pytest.mark.parametrize("overrides, served", [
    (["gpu_device_budget=0"], {"gpu": False, "cpu": True}),
    (["users_min=0", "users_max=0"], {"gpu": False, "cpu": False})],
    ids=["gpu_pod_never_starts", "no_users"])
def test_a_baseline_that_completes_no_request_reports_no_p95(overrides, served, tmp_path):
    out = tmp_path / "base"
    sets = [a for kv in overrides + ["episode_s=30"] for a in ("--set", kv)]
    assert main(["baseline", "--patterns", "ramp", *sets, "--out", str(out)]) == 0
    [row] = json.loads((out / "baseline_report.json").read_text())
    [cells] = _read_csv(out / "baseline_report.csv")
    for pool, ok in served.items():
        assert (row[f"{pool}_p95_ms"] is None) == (not ok)
        assert (cells[f"{pool}_p95_ms"] == "") == (not ok)
    assert row["speedup"] == cells["speedup"] == ""


def test_evaluate_ranks_a_baseline_that_completes_no_request_last(tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", str(_fresh_checkpoint(tmp_path)), "--patterns", "ramp",
                 "--set", "gpu_device_budget=0", "--set", "episode_s=30",
                 "--out", str(out)]) == 0
    rows = {r["policy"]: r for r in json.loads((out / "comparison.json").read_text())}
    cells = {r["policy"]: r for r in _read_csv(out / "comparison.csv")}
    assert rows["fixed_gpu"]["requests_completed"] == 0
    assert rows["fixed_gpu"]["p95_ms"] is None and rows["fixed_gpu"]["mean_ms"] is None
    assert cells["fixed_gpu"]["p95_ms"] == cells["fixed_gpu"]["mean_ms"] == ""
    kis = rows["kiscaler"]
    assert kis["p95_ms"] > 0 and kis["speedup_vs_fixed_gpu"] == ""
    assert kis["speedup_vs_fixed_cpu"] == rows["fixed_cpu"]["p95_ms"] / kis["p95_ms"]
    best = min(rows[p]["p95_ms"] for p in ("fixed_cpu", "hpa"))
    assert kis["flag"] == ("baselines_ahead" if kis["p95_ms"] > best else "")


@pytest.mark.parametrize("p95, flag", [
    ({"kiscaler": None, "fixed_gpu": None, "fixed_cpu": 700.0, "hpa": None}, "baselines_ahead"),
    ({"kiscaler": 300.0, "fixed_gpu": None, "fixed_cpu": None, "hpa": None}, ""),
    ({"kiscaler": None, "fixed_gpu": None, "fixed_cpu": None, "hpa": None}, "")],
    ids=["only_a_baseline_served", "only_kiscaler_served", "none_served"])
def test_a_p95_of_none_ranks_below_any_p95(p95, flag, tmp_path, monkeypatch):
    def report(pattern, policy):
        return {**_report(pattern, policy, 1.0), "p95_ms": p95[policy], "mean_ms": p95[policy]}

    monkeypatch.setattr(kisim.cli, "run_policy_episode",
                        lambda agent, pattern, cfg, seed, timeseries=None:
                            report(pattern, "kiscaler"))
    monkeypatch.setattr(kisim.cli, "run_baseline",
                        lambda policy, pattern, cfg, traffic_seed, timeseries=None:
                            report(pattern, policy))
    assert main(["evaluate", str(_fresh_checkpoint(tmp_path)), "--patterns", "spike",
                 "--out", str(tmp_path / "eval")]) == 0
    rows = json.loads((tmp_path / "eval" / "comparison.json").read_text())
    assert [r["flag"] for r in rows] == [flag, "", "", ""]
    assert all(r["speedup_vs_fixed_gpu"] == r["speedup_vs_fixed_cpu"] == "" for r in rows)


def test_a_throughput_ratio_over_a_cpu_run_that_served_nothing_is_empty(tmp_path, capsys):
    out = tmp_path / "base"
    assert main(["baseline", "--patterns", "ramp", "--set", "users_min=0", "--set",
                 "users_max=0", "--set", "episode_s=30", "--out", str(out)]) == 0
    [row] = json.loads((out / "baseline_report.json").read_text())
    [cells] = _read_csv(out / "baseline_report.csv")
    assert row["cpu_throughput_rps"] == 0.0
    assert row["throughput_ratio"] == cells["throughput_ratio"] == ""
    header, shown = capsys.readouterr().out.splitlines()[-2:]
    start = header.index("throughput_ratio")
    end = header.index("gpu_util_mean")
    assert header[start:end].strip() == "throughput_ratio"
    assert shown[start:end].strip() == ""
    assert shown[header.index("cpu_throughput_rps"):start].strip() == "0.00"
