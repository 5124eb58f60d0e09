import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kisim.cli import main
from kisim.config import ConfigError, ExperimentConfig, parse_config_text

VALUES = {"int": st.integers(),
          "float": st.floats(allow_nan=False, allow_infinity=False)}

NAMES = {ftype: [f.name for f in fields(ExperimentConfig) if f.type == ftype]
         for ftype in VALUES}


@st.composite
def one_field_changed(draw):
    # a type first, so the int fields get half of the examples
    ftype = draw(st.sampled_from(sorted(VALUES)))
    return draw(st.sampled_from(NAMES[ftype])), draw(VALUES[ftype])


def test_every_field_has_a_value_strategy():
    assert sum(map(len, NAMES.values())) == len(fields(ExperimentConfig))


@given(one_field_changed())
def test_config_text_round_trips(change):
    name, value = change
    try:
        cfg = ExperimentConfig(**{name: value})
    except ConfigError:
        return                       # refused values never reach a config file
    assert parse_config_text(cfg.to_text()) == cfg


# a line of each removed key, with the value a default effective_config.txt held for it
REMOVED_LINES = ["out_dir = runs", "node_mem_bytes = 34359738368.0", "eval_every = 20",
                 "reward_delta = 0.0"]
REMOVED_IDS = [line.split(" =")[0] for line in REMOVED_LINES]


@pytest.mark.parametrize("line", REMOVED_LINES, ids=REMOVED_IDS)
def test_a_config_file_naming_a_removed_key_is_refused_before_any_write(line, tmp_path, capsys):
    """An `effective_config.txt` written before the output directory, the node-memory
    model, `train`'s greedy evaluation or the reward's zero-weighted smoothness term left
    the config: the default config's lines, then the removed key's."""
    config = tmp_path / "effective_config.txt"
    config.write_text(ExperimentConfig().to_text() + line + "\n")
    out = tmp_path / "out"
    assert main(["train", "--episodes", "1", "--config", str(config), "--out", str(out)]) == 1
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"error: unknown config key: {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", REMOVED_LINES, ids=REMOVED_IDS)
def test_a_set_of_a_removed_key_is_refused_before_any_write(line, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--episodes", "1", "--set", line.replace(" = ", "="),
                 "--out", str(out)]) == 1
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"error: unknown config key: {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("monitor_interval_s", 0.0), ("hpa_sync_period_s", 0.0), ("window_s", 0.0),
    ("random_redraw_s", 0.0), ("periodic_period_s", 0.0), ("monitor_interval_s", -1.0),
    ("window_s", float("nan")), ("latency_cap_s", 0.0), ("throughput_cap_rps", 0.0),
    *((key, math.inf) for key in ("episode_s", "control_interval_s", "monitor_interval_s",
                                  "window_s", "hpa_sync_period_s", "periodic_period_s",
                                  "random_redraw_s", "latency_cap_s", "throughput_cap_rps")),
    ("ppo_minibatch", 0), ("ppo_update_every_episodes", 0),
    # a training run of no episode: a moving average of none beside a best of -inf
    ("episodes", 0),
    # outside its pool's bounds: more (or fewer) ready pods than a policy may ask for
    ("init_cpu", 0), ("init_cpu", 7), ("init_gpu", -1), ("init_gpu", 4),
    # a think time in the past, a user looping at one instant, a pod without a slot,
    # a node of no size, and a PPO update that averages no epoch (NaN losses)
    ("hold_s", -1.0), ("hold_s", float("nan")), ("base_service_s", 0.0),
    ("base_service_s", math.inf), ("cpu_concurrency", 0), ("gpu_concurrency", 0),
    ("node_millicores", 0.0), ("ppo_epochs", 0),
    # a fixed deployment that completes no request and so reports the best p95, 0.0
    ("fixed_cpu_replicas", 0), ("fixed_gpu_replicas", -2),
    # a stalled pool reported as a result, an event order out of time, a pod ready in
    # the past, an HPA that divides by zero or keeps no recommendation
    ("cpu_contention_exp", float("nan")), ("gpu_contention_exp", math.inf),
    ("gpu_startup_s", float("nan")), ("cpu_startup_s", -1.0), ("hpa_target_cpu_util", 0.0),
    ("hpa_target_cpu_util", float("nan")), ("hpa_stabilization_down_s", float("nan")),
    # a wake never due; a negative pod count, seed, episode count or pool bound; a network
    # of no unit; a per-pod load that drives a utilization below 0
    ("hold_s", math.inf),
    *((f.name, -1) for f in fields(ExperimentConfig)
      if f.type == "int" and f.name != "init_gpu"),    # -1 above
    ("cpu_min", -2), ("memory_pods", -100000), ("hidden1", 0), ("hidden2", 0),
    *((key, -1.0) for key in ("cpu_pod_idle_millicores", "cpu_pod_busy_millicores",
                              "gpu_pod_idle_millicores", "gpu_pod_busy_millicores",
                              "memory_pod_millicores"))])
def test_values_that_hang_or_crash_a_run_are_config_errors(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})


def test_a_cluster_without_replicas_is_a_config_error():
    """The observation divides the ready count by cpu_max + gpu_max."""
    with pytest.raises(ConfigError, match=r"cpu_max \+ gpu_max must be >= 1"):
        ExperimentConfig(cpu_min=0, cpu_max=0, gpu_max=0, init_cpu=0, init_gpu=0)


RULE = {"hold_s": ">= 0", "cpu_concurrency": ">= 1", "gpu_concurrency": ">= 1",
        "ppo_epochs": ">= 1", "cpu_startup_s": ">= 0", "hpa_stabilization_down_s": ">= 0",
        "gpu_startup_s": ">= 0", "cpu_contention_exp": "finite",
        "gpu_contention_exp": "finite", "cpu_min": ">= 0", "gpu_min": ">= 0",
        "seed": ">= 0", "episodes": ">= 1", "memory_pods": ">= 0", "hidden1": ">= 1",
        "cpu_pod_busy_millicores": ">= 0"}


@pytest.mark.parametrize("key, value", [("monitor_interval_s", "0"), ("episode_s", "inf"),
                                        ("latency_cap_s", "0"), ("throughput_cap_rps", "0"),
                                        ("hold_s", "-1"), ("base_service_s", "0"),
                                        ("cpu_concurrency", "0"), ("gpu_concurrency", "0"),
                                        ("node_millicores", "0"),
                                        ("cpu_contention_exp", "nan"),
                                        ("gpu_contention_exp", "inf"),
                                        ("gpu_startup_s", "nan"), ("cpu_startup_s", "-1"),
                                        ("hpa_target_cpu_util", "0"),
                                        ("hpa_target_cpu_util", "nan"),
                                        ("hpa_stabilization_down_s", "nan"),
                                        ("cpu_min", "-2"), ("gpu_min", "-1"), ("seed", "-1"),
                                        ("episodes", "-3"), ("memory_pods", "-100000"),
                                        ("hidden1", "-4"), ("cpu_pod_busy_millicores", "-1")])
def test_baseline_refuses_a_zero_monitor_interval(key, value, tmp_path, capsys):
    """A zero monitor interval resamples at t=0 forever; an infinite episode never
    ends; a zero cap divides the observation by zero. A negative think time
    schedules into the past, a zero service time loops at one instant, and a zero
    concurrency or node size divides by zero. A NaN or infinite contention exponent
    or start-up, a negative start-up, a zero or NaN HPA target and a NaN HPA window
    stall or crash the run. A negative pool bound asks for a negative replica count,
    a negative seed or network size fails in numpy, a negative episode count trains
    none, and a negative per-pod load drives a utilization below 0: each is refused
    before any output."""
    out = tmp_path / "base"
    short = [] if key == "episode_s" else ["--set", "episode_s=30"]     # a key is set once
    assert main(["evaluate", *short, "--set", f"{key}={value}", "--out", str(out)]) == 1
    rule = RULE.get(key, "positive and finite")
    assert f"{key} must be {rule}" in capsys.readouterr().err
    assert not out.exists()


# the node-memory keys, which no observation, reward or decision read, with the values
# an effective_config.txt held for them, each on the line after its key here
NODE_MEMORY_KEYS = {"node_millicores": ("node_mem_bytes", "34359738368.0"),
                    "cpu_pod_busy_millicores": ("cpu_pod_mem_bytes", "540000000.0"),
                    "gpu_pod_busy_millicores": ("gpu_pod_mem_bytes", "825000000.0"),
                    "memory_pod_millicores": ("memory_pod_mem_bytes", "3145728.0")}


def test_an_effective_config_of_the_node_memory_model_is_refused(tmp_path, capsys):
    """A default run's effective_config.txt as written while kisim modelled node memory:
    its first memory key is unknown, and nothing is written."""
    lines = []
    for line in ExperimentConfig().to_text().splitlines():
        lines.append(line)
        removed = NODE_MEMORY_KEYS.get(line.split(" = ")[0])
        if removed:
            lines.append("%s = %s" % removed)
    config = tmp_path / "effective_config.txt"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "base"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    assert "unknown config key: 'node_mem_bytes'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", NODE_MEMORY_KEYS.values())
def test_a_node_memory_key_is_refused_by_name(key, value, tmp_path, capsys):
    out = tmp_path / "base"
    assert main(["evaluate", "--set", f"{key}={value}", "--out", str(out)]) == 1
    assert f"unknown config key: {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_zero_ppo_epochs_before_any_output(tmp_path, capsys):
    """No epoch averages no loss: every training_log.csv loss would read nan."""
    out = tmp_path / "train"
    assert main(["train", "--episodes", "1", "--set", "ppo_epochs=0",
                 "--out", str(out)]) == 1
    assert "ppo_epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pair, message", [
    ("seed=abc", "invalid value for config key 'seed': 'abc'"),
    ("users_max=1.5", "invalid value for config key 'users_max': '1.5'"),
    ("seed", "override must look like key=value, got 'seed'")],
    ids=["int_of_letters", "int_of_a_fraction", "no_equals_sign"])
def test_a_set_that_is_no_value_of_its_key_is_refused_before_any_write(pair, message, tmp_path,
                                                                       capsys):
    out = tmp_path / "train"
    assert main(["train", "--episodes", "1", "--set", pair, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_config_file_line_without_an_equals_sign_is_refused_by_its_number(tmp_path, capsys):
    config = tmp_path / "kisim.cfg"
    config.write_text("episode_s = 30\nseed 5\n")
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 2: expected key = value, got 'seed 5'\n"
    assert not out.exists()


def test_a_key_given_twice_in_a_config_file_is_refused(tmp_path, capsys):
    """Else the file's second `seed` would win silently over its first."""
    config = tmp_path / "kisim.cfg"
    config.write_text("seed = 1\nepisode_s = 30\nseed = 2\n")
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert "config key 'seed' is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_a_key_given_twice_in_the_set_list_is_refused(tmp_path, capsys):
    """Each source is checked on its own: a `--set` of a key the config file sets stays
    legal (`tests/test_cli.py`), two `--set`s of one key are not."""
    out = tmp_path / "base"
    assert main(["evaluate", "--set", "episode_s=30", "--set", " episode_s = 60",
                 "--out", str(out)]) == 1
    assert "config key 'episode_s' is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_a_built_config_cannot_change():
    """Every component may keep the config it was given: no field of it changes later."""
    cfg = ExperimentConfig()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


def test_a_derived_config_is_validated_like_a_built_one():
    """A config changes only into a new one, refused as a built one would be: a think
    time in the past cannot reach the load generator, which pushes its arrivals unchecked."""
    with pytest.raises(ConfigError, match="hold_s must be >= 0"):
        replace(ExperimentConfig(), hold_s=-0.1)
