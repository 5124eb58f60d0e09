"""Experiment configuration: a flat key=value file with CLI overrides.

Every knob of the simulator, traffic generator, reward, PPO agent and HPA
baseline lives here, each default written once, so that a run can be
reproduced from the effective config written next to its outputs. A config
is frozen once validated: `apply_overrides` and `dataclasses.replace` build
a new one, which is validated in turn.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    """Bad config key or value; the message names the offender."""


@dataclass(frozen=True)
class ExperimentConfig:
    # Reproducibility
    seed: int = 42

    # Episode / control timing (seconds)
    episode_s: float = 300.0
    control_interval_s: float = 15.0
    monitor_interval_s: float = 1.0
    window_s: float = 30.0

    # Pool bounds and device budget
    cpu_min: int = 1
    cpu_max: int = 6
    gpu_min: int = 0
    gpu_max: int = 3
    gpu_device_budget: int = 1
    init_cpu: int = 3
    init_gpu: int = 1

    # Service model (per-pod finite-concurrency server)
    base_service_s: float = 0.0816
    cpu_concurrency: int = 2
    gpu_concurrency: int = 8
    cpu_contention_exp: float = 0.9
    gpu_contention_exp: float = 0.35

    # Pod cold-start delays (seconds)
    cpu_startup_s: float = 5.0
    gpu_startup_s: float = 10.0

    # Node capacity and per-pod utilization constants
    node_millicores: float = 16000.0
    cpu_pod_idle_millicores: float = 715.0
    cpu_pod_busy_millicores: float = 1062.0
    gpu_pod_idle_millicores: float = 42.0
    gpu_pod_busy_millicores: float = 72.0
    memory_pods: int = 3
    memory_pod_millicores: float = 3.0

    # Traffic patterns
    users_min: int = 5
    users_max: int = 50
    hold_s: float = 0.5
    periodic_period_s: float = 120.0
    spike_at_s: float = 100.0
    spike_len_s: float = 30.0
    random_redraw_s: float = 15.0

    # Observation normalization caps
    latency_cap_s: float = 10.0
    throughput_cap_rps: float = 100.0

    # Reward weights
    reward_alpha: float = 1.0
    reward_beta: float = 0.5
    reward_gamma: float = 0.25
    reward_delta: float = 0.0

    # PPO hyperparameters
    ppo_lr: float = 3e-4
    ppo_clip: float = 0.2
    ppo_discount: float = 0.99
    ppo_gae_lambda: float = 0.95
    ppo_epochs: int = 4
    ppo_minibatch: int = 64
    ppo_entropy_coef: float = 0.01
    ppo_value_coef: float = 0.5
    ppo_update_every_episodes: int = 1
    hidden1: int = 256
    # second layer trimmed below 256 to keep the model inside its ~137k
    # parameter budget (nn.tensor_shapes lists every tensor)
    hidden2: int = 250

    # Training schedule
    episodes: int = 100
    eval_every: int = 20

    # HPA baseline (it scales the CPU pool within cpu_min..cpu_max)
    hpa_target_cpu_util: float = 0.5
    hpa_sync_period_s: float = 15.0
    hpa_stabilization_down_s: float = 300.0
    hpa_tolerance: float = 0.1

    # Fixed baselines
    fixed_cpu_replicas: int = 3
    fixed_gpu_replicas: int = 1

    # Output
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        if self.cpu_min > self.cpu_max:
            raise ConfigError("cpu_min exceeds cpu_max")
        if self.gpu_min > self.gpu_max:
            raise ConfigError("gpu_min exceeds gpu_max")
        if self.cpu_max + self.gpu_max < 1:
            raise ConfigError("cpu_max + gpu_max must be >= 1")
        if not self.cpu_min <= self.init_cpu <= self.cpu_max:
            raise ConfigError("init_cpu must lie in cpu_min..cpu_max")
        if not self.gpu_min <= self.init_gpu <= self.gpu_max:
            raise ConfigError("init_gpu must lie in gpu_min..gpu_max")
        if self.users_min > self.users_max:
            raise ConfigError("users_min exceeds users_max")
        # a zero period reschedules its event at the same instant forever, a zero cap or
        # node size divides by zero and a zero service time lets a user loop at one
        # instant; an infinite period never ends the episode, an infinite cap zeroes its feature
        for key in ("episode_s", "control_interval_s", "monitor_interval_s", "window_s",
                    "hpa_sync_period_s", "periodic_period_s", "random_redraw_s",
                    "latency_cap_s", "throughput_cap_rps", "base_service_s",
                    "node_millicores", "hpa_target_cpu_util"):
            if not 0 < getattr(self, key) < math.inf:     # NaN fails too
                raise ConfigError(f"{key} must be positive and finite")
        # below these: a think time or pod start in the past, a pod without a slot, NaN losses
        # of no epoch, a fixed run that serves nothing (p95 0), an HPA window holding nothing,
        # a network of no unit, a utilization below 0, a run that trains no episode
        for key, least in (("ppo_minibatch", 1), ("ppo_update_every_episodes", 1),
                           ("hpa_tolerance", 0), ("hold_s", 0), ("episodes", 1),
                           ("cpu_concurrency", 1), ("gpu_concurrency", 1), ("ppo_epochs", 1),
                           ("fixed_cpu_replicas", 1), ("fixed_gpu_replicas", 1),
                           ("cpu_startup_s", 0), ("gpu_startup_s", 0),
                           ("hpa_stabilization_down_s", 0), ("hidden1", 1), ("hidden2", 1),
                           ("cpu_pod_idle_millicores", 0), ("cpu_pod_busy_millicores", 0),
                           ("gpu_pod_idle_millicores", 0), ("gpu_pod_busy_millicores", 0),
                           ("memory_pod_millicores", 0)):
            if not getattr(self, key) >= least:
                raise ConfigError(f"{key} must be >= {least}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 0:   # a negative count, seed or pool bound
                raise ConfigError(f"{f.name} must be >= 0")
            if isinstance(value, float) and not math.isfinite(value):  # NaN/inf exponents stall
                raise ConfigError(f"{f.name} must be finite")
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} = {value!r} cannot be written to a config "
                                  "file: it holds '#', a line break or outer whitespace")

    def to_text(self) -> str:
        """Serialize as the flat key = value format (diff-friendly)."""
        lines = ["# kisim experiment configuration"]
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for config key {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are fatal."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        pairs.append(stripped)
    return apply_overrides(ExperimentConfig(), pairs)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply key=value pairs (--set overrides, config file lines), each key once, to a config."""
    given: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key!r}")
        if key in given:
            raise ConfigError(f"config key {key!r} is given more than once")
        given[key] = _parse_value(key, raw)
    return dataclasses.replace(cfg, **given)
