import csv
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kisim.agent
import kisim.cli
import kisim.env
from kisim.agent import (CHECKPOINT_HEADER, CHECKPOINT_MAGIC, MOVING_AVG_WINDOW, PpoAgent,
                         TrainState, load_checkpoint, save_checkpoint)
from kisim.baselines import POLICY_NAMES, run_baseline
from kisim.cli import EVAL_SEED_BASE, action_diversity, main
from kisim.config import ExperimentConfig, parse_config_text
from kisim.env import (OBS_FIELDS, TIMESERIES_FIELDS, ActionTriple,
                       episode_traffic, read_trace_line, trace_line)
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


# line 1 of the default `kisim train` trace, by its fields, its observation by name
OBS_ONE = {"gpu_ready": 0.111111111, "cpu_ready": 0.222222222, "u_gpu": 0.0, "l_p95": 0.015227098,
           "theta_req": 0.048666667, "u_cpu": 0.0925625, "delta_theta": 0.524333333,
           "t_norm": 0.05, "p_id": 0.0}
LINE_ONE = (0, 1, "ramp", [OBS_ONE[name] for name in OBS_FIELDS],
            ActionTriple(1, -1, 0), -0.098560432, (2, 2), 7)


def replay_record(drop=(), **fields) -> str:
    """`trace_line`'s line of LINE_ONE, less its newline, re-dumped as compact JSON with
    the keys in `drop` dropped and the `fields` given set."""
    rec = json.loads(trace_line(*LINE_ONE))
    rec.update(fields)
    for key in drop:
        del rec[key]
    return json.dumps(rec, separators=(",", ":"))


def test_replay_record_is_the_writers_line_but_for_the_fields_it_sets():
    assert replay_record() + "\n" == trace_line(*LINE_ONE)
    assert read_trace_line(replay_record() + "\n") == json.loads(replay_record())
    assert read_trace_line(replay_record(reward=3) + "\n")["reward"] == 3     # an int reward


OBS = LINE_ONE[3]
N_INPUTS = len(OBS_FIELDS)
T_NORM = OBS_FIELDS.index("t_norm")
ENDS = [*OBS[:T_NORM], 1.0, *OBS[T_NORM + 1:]]     # LINE_ONE's obs at its episode's last step
WRITER = "trace line 1: trace_line cannot write its obs and reward back: "


def column(line: str, text: str) -> str:
    """The start of the refusal of a line that first differs from the writer's where `text`
    begins in it."""
    return f"trace line 1: column {line.index(text) + 1}: "


@pytest.mark.parametrize("line, message", [
    ("{}", "trace line 1: missing key 'episode'"),
    ("3", "trace line 1: not a JSON object"),
    (replay_record(action=[1]), "trace line 1: action [1]: ActionTriple.__init__() missing 2"),
    # line 1 of the default trace when the reward was written as its terms
    (replay_record(reward={"latency": 0.015227098, "gpu_util": 0.0, "overhead": 0.333333333,
                           "smoothness": 0.5, "total": -0.098560432}),
     WRITER + "must be real number, not dict"),
    (replay_record(pattern=["ramp"]), "trace line 1: pattern ['ramp'] is not one of ("),
    (replay_record(action=[7, 9, 3]), "trace line 1: action [7, 9, 3]: deltas must be in"),
    (replay_record(action=[0, 0, 2]), "trace line 1: action [0, 0, 2]: 2 is not a valid RoutePref"),
    (replay_record() + "\n" + replay_record(episode="x"),
     "trace line 2: episode 'x' is not a non-negative int"),
    (replay_record(episode=2.5), "trace line 1: episode 2.5 is not a non-negative int"),
    (replay_record(episode=True), "trace line 1: episode True is not a non-negative int"),
    (replay_record(step=-1), "trace line 1: step -1 is not a non-negative int"),
    (replay_record(pattern="nope"), "trace line 1: pattern 'nope' is not one of ("),
    (replay_record(reward=True), column(replay_record(reward=True), "true")
     + "'true,\"desire', written '1,\"desired_g'"),
    (replay_record(reward="1"), WRITER + "must be real number, not str"),
    (replay_record(reward=math.nan), WRITER + "episode 0 step 1: non-finite observation or "
     f"reward term in {[*LINE_ONE[3], math.nan]}"),
    (replay_record(reward=-math.inf), WRITER + "episode 0 step 1: non-finite observation"),
    (replay_record(reward=10**400), WRITER + "int too large to convert to float"),
    (replay_record(reward=math.inf), WRITER + "episode 0 step 1: non-finite observation"),
    (replay_record(reward=None), WRITER + "must be real number, not NoneType"),
    (replay_record(reward=[-0.098560432]), WRITER + "must be real number, not list"),
    # the object form with the total alone, the form of CI's corrupted trace copy
    (replay_record(reward={"total": -0.098560432}), WRITER + "must be real number, not dict"),
    (replay_record(drop=("reward",)), "trace line 1: missing key 'reward'"),
    # a reward that is not the shortest repr of a float rounded to 9 digits
    (replay_record(reward=-0.0985604321),
     column(replay_record(reward=-0.0985604321), '1,"desired_gpu')
     + "'1,\"desired_g', written ',\"desired_gp'"),
    (replay_record().replace(":-0.098560432,", ":-9.8560432e-02,"),
     column(replay_record().replace(":-0.098560432,", ":-9.8560432e-02,"), "9.8560432e-02")
     + "'9.8560432e-0', written '0.098560432,'"),
    (replay_record(desired_gpu=-1), "trace line 1: desired_gpu -1 is not a non-negative int"),
    (replay_record(desired_cpu=3.0), "trace line 1: desired_cpu 3.0 is not a non-negative int"),
    (replay_record(users="many"), "trace line 1: users 'many' is not a non-negative int"),
    (replay_record() + "\n" + replay_record(step=2) + "\n" + replay_record(),
     "trace line 3: episode 0 step 1 (ramp), expected episode 0 step 3 (ramp)\n"),
    # a line continues the one before, in episode, pattern and step, until t_norm reads 1.0,
    # and then starts the next episode at step 1
    (replay_record() + "\n" + replay_record(step=3),
     "trace line 2: episode 0 step 3 (ramp), expected episode 0 step 2 (ramp)\n"),
    (replay_record(step=2), "trace line 1: episode 0 step 2 (ramp), expected episode 0 step 1\n"),
    (replay_record() + "\n" + replay_record(step=2, pattern="spike"),
     "trace line 2: episode 0 step 2 (spike), expected episode 0 step 2 (ramp)\n"),
    (replay_record(obs=ENDS) + "\n" + replay_record(episode=1) + "\n" + replay_record(step=2),
     "trace line 3: episode 0 step 2 (ramp), expected episode 1 step 2 (ramp)\n"),
    # a record the writer can never produce, each made from line 1 of a real trace
    (replay_record(obs=[math.nan, *OBS[1:]]), WRITER + "episode 0 step 1: non-finite observation"),
    (replay_record(drop=("obs",)), "trace line 1: missing key 'obs'"),
    (replay_record(obs=OBS[:3]), WRITER + "not enough arguments for format string"),
    # line 1 of the default trace when the observation held 10 inputs: the Ready total,
    # u_gpu, l_p95, theta_req, u_cpu, u_mem, delta_l, delta_theta, t_norm and p_id
    (replay_record(obs=[0.333333333, 0.0, 0.015227098, 0.048666667, 0.0925625, 0.055717455,
                        0.507613549, 0.524333333, 0.05, 0.0]),
     WRITER + "%d format: a real number is required, not str"),
    (replay_record(x=1), column(replay_record(x=1), ',"x"') + "',\"x\":1}\\n', written '}\\n'"),
    (json.dumps(json.loads(replay_record())), "trace line 1: column 12: ' 0, \"step\": ', "
     "written '0,\"step\":1,\"'"),
    ("{nope", "trace line 1: Expecting property name enclosed in double quotes"),
    # trace_line never writes a blank line, so replay reads none
    ("", "trace line 1: Expecting value"),
    (" \n\n", "trace line 1: Expecting value"),
    (replay_record() + "\n\n" + replay_record(step=2), "trace line 2: Expecting value"),
    (replay_record(obs=ENDS) + "\n", "trace line 2: Expecting value")],
    ids=["no_keys", "not_an_object", "short_action", "reward_of_terms", "list_pattern",
         "action_outside_the_deltas", "action_outside_the_prefs", "episode_a_string_after_an_int",
         "episode_a_float", "episode_a_bool", "step_negative", "pattern_unknown",
         "reward_a_bool", "reward_a_string", "reward_nan", "reward_inf",
         "reward_past_any_float", "reward_plus_inf", "reward_null", "reward_a_list",
         "reward_total_alone", "reward_missing", "reward_unrounded", "reward_in_exponent_form",
         "desired_gpu_negative", "desired_cpu_a_float",
         "users_a_string", "step_repeated", "step_missing", "episode_starts_past_step_1",
         "pattern_changes_mid_episode", "episode_resumes", "obs_nan", "obs_missing",
         "obs_three_values", "obs_of_ten_inputs", "extra_key", "default_separators", "not_json",
         "empty", "blank_lines", "blank_line_mid_episode", "blank_last_line"])
def test_replay_refuses_a_trace_record_it_cannot_read(line, message, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("lines, message", [
    ([replay_record(step=step) for step in range(1, 6)] + [""],
     "trace line 6: Expecting value at column 1"),
    ([" "], "trace line 1: Expecting value at column 2"),
    (['{"episode": 1'], "trace line 1: Expecting ',' delimiter at column 14"),
    (["{nope"], "trace line 1: Expecting property name enclosed in double quotes at column 2")],
    ids=["blank_sixth_line", "space_alone", "cut_object", "unquoted_key"])
def test_replay_names_the_column_of_a_line_that_is_not_json(lines, message, tmp_path, capsys):
    """json counts lines within the one line it is given, which a trace line number
    contradicts; replay names the column within the line alone."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "line 2" not in err and "(char" not in err
    assert not (tmp_path / "replay").exists()


def test_replay_refuses_a_file_of_no_line(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 1
    assert capsys.readouterr().err == f"error: {trace}: no trace record\n"
    assert not (tmp_path / "replay").exists()


def test_replay_refuses_a_missing_trace(tmp_path, capsys):
    trace, out = tmp_path / "missing.jsonl", tmp_path / "replay"
    assert main(["replay", str(trace), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: trace file not found: {trace}\n"
    assert not out.exists()


def test_a_trace_line_without_its_newline_is_not_the_writers():
    line = trace_line(*LINE_ONE)
    with pytest.raises(ValueError, match=rf"^column {len(line)}: '', written '\\n'$"):
        read_trace_line(line[:-1])


def test_replay_prints_each_patterns_distinct_actions_and_most_common_share(tmp_path, capsys):
    episodes = [("ramp", [[0, 0, 1]] * 2), ("spike", [[0, -2, 1]] * 2),
                ("ramp", [[0, 0, 1], [1, -1, 1]])]
    steps = [(pattern, action) for pattern, actions in episodes for action in actions]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        replay_record(episode=episode, step=step, pattern=pattern, action=action,
                      obs=ENDS if step == len(actions) else OBS) + "\n"
        for episode, (pattern, actions) in enumerate(episodes)
        for step, action in enumerate(actions, start=1)))
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:-1] == ["pattern ramp: 4 steps, 2 distinct action(s), the most common 75.0%",
                          "pattern spike: 2 steps, 1 distinct action(s), the most common 100.0%"]
    assert "action histogram (6 steps):" in out
    with (tmp_path / "replay" / "replay_summary.csv").open() as fh:
        assert [row["pattern"] for row in csv.DictReader(fh)] == [p for p, _ in steps]


def test_replay_refuses_a_trace_missing_steps_and_reads_a_truncated_one(tmp_path, capsys):
    """The first 10 lines of the default `train` trace plus its lines 25-27 (episode 1,
    steps 5-7) once replayed as 13 steps of 2 episodes with partial returns: line 11 starts
    episode 1 where episode 0, not yet at its end, must go on. Its first 27 lines, a run
    cut short mid-episode, replay."""
    assert main(["train", "--episodes", "2", "--out", str(tmp_path / "train")]) == 0
    lines = (tmp_path / "train" / "trace.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == 40     # a default run's first two episodes, line for line
    gapped, truncated = tmp_path / "gapped.jsonl", tmp_path / "truncated.jsonl"
    gapped.write_text("".join(lines[:10] + lines[24:27]))
    truncated.write_text("".join(lines[:27]))
    assert main(["replay", str(gapped), "--out", str(tmp_path / "replay_gapped")]) == 1
    assert capsys.readouterr().err == ("error: trace line 11: episode 1 step 5 (periodic), "
                                       "expected episode 0 step 11 (ramp)\n")
    assert not (tmp_path / "replay_gapped").exists()
    assert main(["replay", str(truncated), "--out", str(tmp_path / "replay")]) == 0
    assert capsys.readouterr().out.startswith("trace: 27 steps over 2 episodes\n")


def test_replay_refuses_each_trace_out_of_the_order_run_episode_writes(tmp_path, capsys):
    """Cuts of the default 3-episode `train` trace, each refused at the first line out of
    order. An episode ends only on the line whose t_norm reads 1.0, so a line that starts
    an episode before the one it follows has ended is refused: the first 10 lines plus
    lines 21-40 once replayed as 30 steps of 2 episodes, and lines 1-10, 21-30 and 41-45,
    every episode cut to one length, as 25 steps of 3. After that line comes step 1 of the
    next episode number: not episode 0 again, as in the trace written twice into one file,
    nor step 21 of an only episode, which once replayed as 21 steps of 1 episode."""
    assert main(["train", "--episodes", "3", "--out", str(tmp_path / "train")]) == 0
    lines = (tmp_path / "train" / "trace.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == 60
    after_ten = "trace line 11: episode 1 step 1 (periodic), expected episode 0 step 11 (ramp)"
    past = lines[0].replace('"step":1,', '"step":21,', 1)
    cases = {"short_first": (lines[:10] + lines[20:40], after_ten),
             "short_middle": (lines[:20] + lines[20:30] + lines[40:], "trace line 31: episode 2 "
                              "step 1 (random), expected episode 1 step 11 (periodic)"),
             "longer_last": (lines[:10] + lines[20:30] + lines[40:], after_ten),
             "all_cut_short": (lines[:10] + lines[20:30] + lines[40:45], after_ten),
             "twice": (lines + lines, "trace line 61: episode 0 step 1 (ramp), "
                       "expected episode 3 step 1"),
             "past_its_end": (lines[:20] + [past], "trace line 21: episode 0 step 21 (ramp), "
                              "expected episode 1 step 1")}
    for name, (kept, message) in cases.items():
        trace = tmp_path / f"{name}.jsonl"
        trace.write_text("".join(kept))
        assert main(["replay", str(trace), "--out", str(tmp_path / name)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / name).exists()


def test_replay_reads_a_trace_whose_interval_does_not_divide_the_episode(tmp_path, capsys):
    """At 7 s in a 100 s episode each episode's 15th step is 2 s long and ends it, at
    t_norm 1.0: both episodes replay in full."""
    assert main(["train", "--episodes", "2", "--set", "episode_s=100",
                 "--set", "control_interval_s=7", "--out", str(tmp_path / "train")]) == 0
    capsys.readouterr()
    trace = tmp_path / "train" / "trace.jsonl"
    ends = [json.loads(line)["obs"][T_NORM] == 1.0 for line in trace.read_text().splitlines()]
    assert [i + 1 for i, end in enumerate(ends) if end] == [15, 30]
    assert main(["replay", str(trace), "--out", str(tmp_path / "replay")]) == 0
    assert capsys.readouterr().out.startswith("trace: 30 steps over 2 episodes\n")


def test_a_reader_that_stopped_ends_replay_quietly(tmp_path):
    """Replay into a pipe whose reader has gone, as `kisim replay trace.jsonl | head -1`
    leaves it: exit 1 with nothing on stderr, neither an `error:` line nor Python's
    exit-time `Exception ignored` one."""
    assert main(["train", "--episodes", "1", "--set", "episode_s=60",
                 "--out", str(tmp_path)]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kisim.cli", "replay", str(tmp_path / "trace.jsonl")],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(kisim.cli.__file__).parents[1])})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_action_diversity_counts_steps_distinct_actions_and_the_top_share():
    assert action_diversity(Counter({(0, 0, 1): 3, (1, -1, 1): 1})) == (4, 2, 0.75)
    assert action_diversity(Counter({(0, -2, 1): 5})) == (5, 1, 1.0)
    assert action_diversity(Counter()) == (0, 0, None)


def test_evaluate_writes_a_constant_policys_actions_as_one_at_full_share(tmp_path):
    """Zero head weights leave only the biases: greedy play is (0, -1, GPU-first)
    whatever it observes."""
    params = PpoAgent(NetDims(hidden1=8, hidden2=8), seed=5).params
    for i, best in enumerate((2, 1, 1)):
        params.tensors[f"h{i}_w"][:] = 0.0
        params.tensors[f"h{i}_b"][:] = 0.0
        params.tensors[f"h{i}_b"][best] = 1.0
    checkpoint = tmp_path / "constant.kisc"
    save_checkpoint(params, TrainState(), checkpoint)
    out = tmp_path / "eval"
    assert main(["evaluate", str(checkpoint), "--patterns", "spike", "ramp",
                 "--set", "episode_s=60", "--out", str(out)]) == 0
    assert (out / "kiscaler_actions.csv").read_text().splitlines() == [
        "pattern,steps,distinct_actions,most_common_share", "spike,4,1,1.0", "ramp,4,1,1.0"]


def test_two_identical_train_runs_write_identical_files(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["train", "--episodes", "3", "--set", "episode_s=30", "--set", "hidden1=8",
                     "--set", "hidden2=6", "--out", str(out)]) == 0
    files = [{path.name: path.read_bytes() for path in out.iterdir()} for out in outs]
    assert files[0] == files[1]


@pytest.mark.parametrize("name", ["exp #3", " exp", "exp "],
                         ids=["hash", "leading_space", "trailing_space"])
def test_train_writes_into_any_out_directory(name, tmp_path):
    """The output directory is no config value: a name the flat config format could not
    hold is still a directory to write into, and the recorded config does not name it."""
    out = tmp_path / name
    assert main(["train", "--episodes", "1", "--set", "episode_s=15",
                 "--out", str(out)]) == 0
    assert {path.name for path in out.iterdir()} == {
        "checkpoint.kisc", "effective_config.txt", "trace.jsonl", "training_log.csv"}
    assert (out / "effective_config.txt").read_text() == \
        ExperimentConfig(episodes=1, episode_s=15.0).to_text()


def test_the_baseline_command_is_gone(capsys):
    """`evaluate` without a checkpoint is the baselines' one comparison."""
    with pytest.raises(SystemExit) as exc:
        main(["baseline"])
    assert exc.value.code == 2
    assert "invalid choice: 'baseline'" in capsys.readouterr().err


def test_removed_config_key_is_rejected(tmp_path, capsys):
    for pair in ("moving_avg_window=10", "reward_delta=0.0"):
        out = tmp_path / pair.split("=")[0]
        assert main(["train", "--episodes", "1", "--set", pair, "--out", str(out)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()


def test_a_config_file_sits_under_set_and_the_flags(tmp_path, capsys):
    """`--config` is read first and `--set` overrides it; the outputs land in `--out`."""
    config = tmp_path / "kisim.cfg"
    config.write_text(ExperimentConfig(episode_s=30.0, users_max=9, seed=7).to_text())
    out = tmp_path / "base"
    assert main(["evaluate", "--config", str(config), "--set", "users_max=8",
                 "--patterns", "ramp", "--out", str(out)]) == 0
    cfg = parse_config_text((out / "effective_config.txt").read_text())
    assert (cfg.episode_s, cfg.seed, cfg.users_max) == (30.0, 7, 8)
    assert (out / "comparison.json").exists()

    config.write_text("nope = 1\n")
    refused = tmp_path / "refused"
    assert main(["evaluate", "--config", str(config), "--out", str(refused)]) == 1
    assert "unknown config key: 'nope'" in capsys.readouterr().err
    assert not refused.exists()


def _report(pattern, policy, p95_ms):
    return {"pattern": pattern, "policy": policy, "p95_ms": p95_ms,
            "mean_ms": p95_ms / 2, "throughput_rps": 10.0, "gpu_util_mean": 0.5,
            "cpu_util_mean": 0.1, "requests_injected": 10,
            "requests_completed": 10, "traffic_seed": 1}


def test_baselines_ahead_flag_counts_hpa(tmp_path, monkeypatch):
    p95 = {"ramp": {"kiscaler": 300.0, "fixed_gpu": 500.0, "fixed_cpu": 700.0, "hpa": 150.0},
           "spike": {"kiscaler": 100.0, "fixed_gpu": 500.0, "fixed_cpu": 700.0, "hpa": 150.0}}
    monkeypatch.setattr(
        kisim.cli, "run_policy_episode",
        lambda agent, pattern, cfg, seed, timeseries=None, actions=None:
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
    assert main(["train", "--episodes", "4", "--set", "episode_s=30", "--out", str(out)]) == 0
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

    # train writes the final weights alone, and the best is the highest logged moving average
    assert not (out / "checkpoint_best.kisc").exists()
    assert state.best_moving_avg == max(float(row["moving_avg"]) for row in log)


def test_evaluate_acts_with_the_checkpoint_weights_without_initializing_any(
        tmp_path, monkeypatch):
    checkpoint = tmp_path / "fresh.kisc"
    params = PpoAgent(NetDims(hidden1=8, hidden2=8), seed=5).params
    save_checkpoint(params, TrainState(), checkpoint)
    acted_with = []

    def run_policy_episode(agent, pattern, cfg, seed, timeseries=None, actions=None):
        acted_with.append(agent.params)
        return _report(pattern, "kiscaler", 1.0)

    monkeypatch.setattr(ActorCriticParams, "initialize", None)   # any call raises
    monkeypatch.setattr(kisim.cli, "run_policy_episode", run_policy_episode)
    assert main(["evaluate", str(checkpoint), "--patterns", "ramp", "--set", "episode_s=15",
                 "--out", str(tmp_path / "eval")]) == 0
    [loaded] = acted_with
    assert all((loaded.tensors[k] == v).all() for k, v in params.tensors.items())


def _fresh_checkpoint(tmp_path, header=None):
    """Untrained weights of 8x8 hidden units; `header` packed over its six header ints."""
    checkpoint = tmp_path / "fresh.kisc"
    save_checkpoint(PpoAgent(NetDims(hidden1=8, hidden2=8)).params, TrainState(), checkpoint)
    if header:
        raw = bytearray(checkpoint.read_bytes())
        CHECKPOINT_HEADER.pack_into(raw, len(CHECKPOINT_MAGIC), *header)
        checkpoint.write_bytes(raw)
    return checkpoint


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--patterns", "bogus"], "unknown pattern name: 'bogus'"),
    (["evaluate", "missing.kisc"], "missing.kisc"),
    (["evaluate", "--patterns", "ramp", "spike", "ramp"],
     "pattern name 'ramp' is given more than once"),
    (["evaluate", (N_INPUTS, 8, 8, 5, 5, 2), "--patterns", "spike", "spike"],
     "pattern name 'spike' is given more than once"),
    *((["evaluate", header], f"has {shape}, not the env's {N_INPUTS} and (5, 5, 2)")
      for header, shape in (((11, 8, 8, 5, 5, 2), "11 inputs and heads (5, 5, 2)"),
                            ((N_INPUTS, 8, 8, 5, 5, 3), f"{N_INPUTS} inputs and heads (5, 5, 3)"),
                            ((N_INPUTS, 8, 8, 4, 4, 4), f"{N_INPUTS} inputs and heads (4, 4, 4)"),
                            ((N_INPUTS, 8, 8, 6, 5, 1), f"{N_INPUTS} inputs and heads (6, 5, 1)"),
                            ((10, 8, 8, 5, 5, 2), "10 inputs and heads (5, 5, 2)")))],
    ids=["baseline_unknown_pattern", "evaluate_missing_checkpoint",
         "baseline_repeated_pattern", "evaluate_repeated_pattern", "evaluate_11_inputs",
         "evaluate_heads_553", "evaluate_heads_444", "evaluate_heads_651", "evaluate_10_inputs"])
def test_a_refused_comparison_writes_nothing(argv, message, tmp_path, capsys):
    """A tuple in `argv` is a fresh checkpoint with that header; one of other inputs or
    heads than the env's (`len(OBS_FIELDS)` and (5, 5, 2)) is refused before --out exists.
    10 inputs is the width of the observation before it held each pool's Ready count."""
    argv = [str(_fresh_checkpoint(tmp_path, a)) if isinstance(a, tuple) else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--set", "episode_s=15", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cut, message", [
    (lambda raw: b"", "checkpoint {} is truncated"),
    (lambda raw: b"KIS", "checkpoint {} is truncated"),
    (lambda raw: raw[:len(CHECKPOINT_MAGIC) + CHECKPOINT_HEADER.size - 1],
     "checkpoint {} is truncated"),
    (lambda raw: b"this is a text file, not a checkpoint\n",
     "not a checkpoint file (bad magic b'this ')")],
    ids=["empty", "part_of_the_magic", "one_byte_short_of_the_header", "bad_magic"])
def test_evaluate_refuses_a_file_without_a_checkpoint_header(cut, message, tmp_path, capsys):
    """`cut` makes the file of a fresh checkpoint's bytes: one shorter than the magic and
    the header, or one as long whose magic is not a checkpoint's."""
    checkpoint = _fresh_checkpoint(tmp_path)
    checkpoint.write_bytes(cut(checkpoint.read_bytes()))
    out = tmp_path / "out"
    assert main(["evaluate", str(checkpoint), "--set", "episode_s=15", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(checkpoint)}\n"
    assert not out.exists()


@pytest.mark.parametrize("hidden", [(0, 0), (1, 0)])
def test_evaluate_refuses_a_checkpoint_of_no_hidden_unit(hidden, tmp_path, capsys):
    checkpoint = tmp_path / "hollow.kisc"
    save_checkpoint(PpoAgent(NetDims(*hidden)).params, TrainState(), checkpoint)
    out = tmp_path / "out"
    assert main(["evaluate", str(checkpoint), "--set", "episode_s=15", "--out", str(out)]) == 1
    assert "the config's rule is hidden1 >= 1 and hidden2 >= 1" in capsys.readouterr().err
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
    cfg = ExperimentConfig(episode_s=30.0, seed=3)
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
    """Without a checkpoint, `evaluate` runs each baseline on each pattern's `EVAL_SEED_BASE`
    traffic, and each row's speedup is the base's p95 over its own."""
    calls = []

    def fake_run_baseline(policy, pattern, cfg, traffic_seed, timeseries=None):
        calls.append((pattern, policy, traffic_seed))
        return {**_report(pattern, policy, 10.0 if policy == "fixed_gpu" else 30.0),
                "traffic_seed": traffic_seed}

    monkeypatch.setattr(kisim.cli, "run_baseline", fake_run_baseline)
    out = tmp_path / "base"
    assert main(["evaluate", "--patterns", "spike", "ramp", "--seed", "7",
                 "--out", str(out)]) == 0
    seeds = {p: episode_traffic(7, EVAL_SEED_BASE + PATTERN_NAMES.index(p))[1]
             for p in ("spike", "ramp")}
    assert calls == [(p, policy, seeds[p]) for p in ("spike", "ramp") for policy in POLICY_NAMES]
    rows = json.loads((out / "comparison.json").read_text())
    speedups = {"fixed_gpu": (1.0, 3.0), "fixed_cpu": (10.0 / 30.0, 1.0), "hpa": (10.0 / 30.0, 1.0)}
    assert [(r["pattern"], r["policy"], r["traffic_seed"],
             (r["speedup_vs_fixed_gpu"], r["speedup_vs_fixed_cpu"])) for r in rows] == \
        [(p, policy, seeds[p], speedups[policy]) for p in ("spike", "ramp")
         for policy in POLICY_NAMES]


def test_evaluate_without_a_checkpoint_runs_the_baselines_alone(tmp_path, monkeypatch):
    """No checkpoint is loaded and KIScaler never plays: each baseline runs once through
    `kisim.cli.run_baseline`, and no row, time series or actions file is KIScaler's."""
    calls = []

    def spy(name, original=None):
        def call(*args, **kwargs):
            calls.append((name, *args[:2]))
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(kisim.cli, "load_checkpoint", spy("cli.load_checkpoint"))
    monkeypatch.setattr(kisim.cli, "run_policy_episode", spy("cli.run_policy_episode"))
    monkeypatch.setattr(kisim.cli, "run_baseline", spy("cli.run_baseline", run_baseline))
    out = tmp_path / "base"
    assert main(["evaluate", "--patterns", "ramp", "--set", "episode_s=30",
                 "--out", str(out)]) == 0
    assert calls == [("cli.run_baseline", policy, "ramp") for policy in POLICY_NAMES]
    rows = json.loads((out / "comparison.json").read_text())
    assert [(r["policy"], r["flag"]) for r in rows] == [(p, "") for p in POLICY_NAMES]
    assert [cells["flag"] for cells in _read_csv(out / "comparison.csv")] == \
        [""] * len(POLICY_NAMES)
    assert not (out / "kiscaler_actions.csv").exists()
    assert sorted(path.name for path in out.glob("timeseries_*")) == \
        sorted(f"timeseries_ramp_{p}.csv" for p in POLICY_NAMES)


def test_every_served_row_carries_its_speedups_over_the_fixed_baselines(tmp_path):
    """A row's speedup over a fixed baseline is that baseline's p95 over its own, so a fixed
    row reads 1.0 against itself, and `fixed_gpu`'s over `fixed_cpu` is the ratio of the
    two runs' p95."""
    out = tmp_path / "base"
    assert main(["evaluate", "--patterns", "ramp", "--set", "episode_s=30",
                 "--out", str(out)]) == 0
    rows = {r["policy"]: r for r in json.loads((out / "comparison.json").read_text())}
    for row in rows.values():
        for base in ("fixed_gpu", "fixed_cpu"):
            assert row[f"speedup_vs_{base}"] == rows[base]["p95_ms"] / row["p95_ms"]
    assert rows["fixed_gpu"]["speedup_vs_fixed_gpu"] == 1.0
    assert rows["fixed_cpu"]["speedup_vs_fixed_cpu"] == 1.0

    cfg = ExperimentConfig(episode_s=30.0)
    seed = episode_traffic(cfg.seed, EVAL_SEED_BASE + PATTERN_NAMES.index("ramp"))[1]
    gpu, cpu = (run_baseline(p, "ramp", cfg, traffic_seed=seed)["p95_ms"]
                for p in ("fixed_gpu", "fixed_cpu"))
    assert rows["fixed_gpu"]["speedup_vs_fixed_cpu"] == cpu / gpu


def test_baseline_comparison_cells_read_back(tmp_path):
    out = tmp_path / "base"
    assert main(["evaluate", "--patterns", "periodic", "--set", "episode_s=30",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert [r["policy"] for r in rows] == list(POLICY_NAMES)
    assert all(r["p95_ms"] > 0 for r in rows)
    _assert_cells_read_back(_read_csv(out / "comparison.csv"), rows)


@pytest.mark.parametrize("overrides, served", [
    (["gpu_device_budget=0"], {"gpu": False, "cpu": True}),
    (["users_min=0", "users_max=0"], {"gpu": False, "cpu": False})],
    ids=["gpu_pod_never_starts", "no_users"])
def test_a_baseline_that_completes_no_request_reports_no_p95(overrides, served, tmp_path):
    out = tmp_path / "base"
    sets = [a for kv in overrides + ["episode_s=30"] for a in ("--set", kv)]
    assert main(["evaluate", "--patterns", "ramp", *sets, "--out", str(out)]) == 0
    rows = {r["policy"]: r for r in json.loads((out / "comparison.json").read_text())}
    cells = {r["policy"]: r for r in _read_csv(out / "comparison.csv")}
    for pool, ok in served.items():
        assert (rows[f"fixed_{pool}"]["p95_ms"] is None) == (not ok)
        assert (cells[f"fixed_{pool}"]["p95_ms"] == "") == (not ok)
    # no speedup over a run that served nothing, nor of one
    assert all(rows[p]["speedup_vs_fixed_gpu"] == cells[p]["speedup_vs_fixed_gpu"] == ""
               for p in POLICY_NAMES)
    assert rows["fixed_gpu"]["speedup_vs_fixed_cpu"] == \
        cells["fixed_gpu"]["speedup_vs_fixed_cpu"] == ""


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


@pytest.mark.parametrize("p95, flag, speedups", [
    ({"kiscaler": None, "fixed_gpu": None, "fixed_cpu": 700.0, "hpa": None}, "baselines_ahead",
     ["", "", "", "", "", 1.0, "", ""]),
    ({"kiscaler": 300.0, "fixed_gpu": None, "fixed_cpu": None, "hpa": None}, "", [""] * 8),
    ({"kiscaler": None, "fixed_gpu": None, "fixed_cpu": None, "hpa": None}, "", [""] * 8)],
    ids=["only_a_baseline_served", "only_kiscaler_served", "none_served"])
def test_a_p95_of_none_ranks_below_any_p95(p95, flag, speedups, tmp_path, monkeypatch):
    def report(pattern, policy):
        return {**_report(pattern, policy, 1.0), "p95_ms": p95[policy], "mean_ms": p95[policy]}

    monkeypatch.setattr(kisim.cli, "run_policy_episode",
                        lambda agent, pattern, cfg, seed, timeseries=None, actions=None:
                            report(pattern, "kiscaler"))
    monkeypatch.setattr(kisim.cli, "run_baseline",
                        lambda policy, pattern, cfg, traffic_seed, timeseries=None:
                            report(pattern, policy))
    assert main(["evaluate", str(_fresh_checkpoint(tmp_path)), "--patterns", "spike",
                 "--out", str(tmp_path / "eval")]) == 0
    rows = json.loads((tmp_path / "eval" / "comparison.json").read_text())
    assert [r["flag"] for r in rows] == [flag, "", "", ""]
    # a p95 of None has no speedup, nor has any row over it: fixed_cpu's own reads 1.0
    assert [r[f"speedup_vs_{base}"] for r in rows for base in ("fixed_gpu", "fixed_cpu")] == \
        speedups
