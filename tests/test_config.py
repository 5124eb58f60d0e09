import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kisim.cli import main
from kisim.config import ConfigError, ExperimentConfig, parse_config_text

# plain path characters plus everything the flat format treats specially:
# '#', '=', spaces, and the line breaks str.splitlines knows
ALPHABET = "az09/._-é#= \t\n\r\x0b\x0c\x1c\x85\u2028"
VALUES = {"int": st.integers(),
          "float": st.floats(allow_nan=False, allow_infinity=False),
          "str": st.text(alphabet=ALPHABET)}

NAMES = {ftype: [f.name for f in fields(ExperimentConfig) if f.type == ftype]
         for ftype in VALUES}


@st.composite
def one_field_changed(draw):
    # a type first, so the one string field gets a third of the examples
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


@pytest.mark.parametrize("out_dir", ["a#b", " a", "a ", "a\nb", "a\rb"])
def test_out_dir_that_a_config_file_cannot_hold_is_a_config_error(out_dir):
    with pytest.raises(ConfigError, match="out_dir"):
        ExperimentConfig(out_dir=out_dir)


def test_train_refuses_an_out_dir_its_config_file_would_misrecord(tmp_path, capsys):
    assert main(["train", "--episodes", "1", "--out", str(tmp_path / "a#1")]) == 1
    assert "out_dir" in capsys.readouterr().err
    assert not (tmp_path / "a#1").exists()


@pytest.mark.parametrize("key, value", [
    ("monitor_interval_s", 0.0), ("hpa_sync_period_s", 0.0), ("window_s", 0.0),
    ("random_redraw_s", 0.0), ("periodic_period_s", 0.0), ("monitor_interval_s", -1.0),
    ("window_s", float("nan")), ("latency_cap_s", 0.0), ("throughput_cap_rps", 0.0),
    *((key, math.inf) for key in ("episode_s", "control_interval_s", "monitor_interval_s",
                                  "window_s", "hpa_sync_period_s", "periodic_period_s",
                                  "random_redraw_s", "latency_cap_s", "throughput_cap_rps")),
    ("ppo_minibatch", 0), ("ppo_update_every_episodes", 0), ("eval_every", -1),
    # outside its pool's bounds: more (or fewer) ready pods than a policy may ask for
    ("init_cpu", 0), ("init_cpu", 7), ("init_gpu", -1), ("init_gpu", 4),
    # a think time in the past, a user looping at one instant, a pod without a slot,
    # a node of no size, and a PPO update that averages no epoch (NaN losses)
    ("hold_s", -1.0), ("hold_s", float("nan")), ("base_service_s", 0.0),
    ("base_service_s", math.inf), ("cpu_concurrency", 0), ("gpu_concurrency", 0),
    ("node_millicores", 0.0), ("node_mem_bytes", 0.0), ("node_mem_bytes", math.inf),
    ("ppo_epochs", 0),
    # a fixed deployment that completes no request and so reports the best p95, 0.0
    ("fixed_cpu_replicas", 0), ("fixed_gpu_replicas", -2)])
def test_values_that_hang_or_crash_a_run_are_config_errors(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})


def test_a_cluster_without_replicas_is_a_config_error():
    """The observation divides the ready count by cpu_max + gpu_max."""
    with pytest.raises(ConfigError, match=r"cpu_max \+ gpu_max must be >= 1"):
        ExperimentConfig(cpu_min=0, cpu_max=0, gpu_max=0, init_cpu=0, init_gpu=0)


LEAST = {"hold_s": 0, "cpu_concurrency": 1, "gpu_concurrency": 1, "ppo_epochs": 1}


@pytest.mark.parametrize("key, value", [("monitor_interval_s", "0"), ("episode_s", "inf"),
                                        ("latency_cap_s", "0"), ("throughput_cap_rps", "0"),
                                        ("hold_s", "-1"), ("base_service_s", "0"),
                                        ("cpu_concurrency", "0"), ("gpu_concurrency", "0"),
                                        ("node_millicores", "0"), ("node_mem_bytes", "0")])
def test_baseline_refuses_a_zero_monitor_interval(key, value, tmp_path, capsys):
    """A zero monitor interval resamples at t=0 forever; an infinite episode never
    ends; a zero cap divides the observation by zero. A negative think time
    schedules into the past, a zero service time loops at one instant, and a zero
    concurrency or node size divides by zero: each is refused before any output."""
    out = tmp_path / "base"
    assert main(["baseline", "--set", "episode_s=30", "--set", f"{key}={value}",
                 "--out", str(out)]) == 1
    rule = f">= {LEAST[key]}" if key in LEAST else "positive and finite"
    assert f"{key} must be {rule}" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_zero_ppo_epochs_before_any_output(tmp_path, capsys):
    """No epoch averages no loss: every training_log.csv loss would read nan."""
    out = tmp_path / "train"
    assert main(["train", "--episodes", "1", "--set", "ppo_epochs=0",
                 "--out", str(out)]) == 1
    assert "ppo_epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()
