"""Reference autoscaling policies: HPA-style threshold controller and
fixed CPU-only / GPU-only deployments, each run by `env.run_policy_episode`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import env as env_module
from .config import ExperimentConfig
from .env import ActionTriple
from .metrics import mean_busy
from .simcore import Pool, RoutePref

POLICY_NAMES = ("fixed_gpu", "fixed_cpu", "hpa")


def hpa_decide(current_replicas: int, current_util: float, cfg: ExperimentConfig) -> int:
    """Canonical threshold rule: desired = ceil(current * util / target),
    clamped to the CPU pool's bounds, with a tolerance dead-band around the target."""
    if current_replicas < 1:
        raise ValueError("hpa_decide requires at least one current replica")
    if abs(current_util / cfg.hpa_target_cpu_util - 1.0) <= cfg.hpa_tolerance:
        return current_replicas
    desired = math.ceil(current_replicas * current_util / cfg.hpa_target_cpu_util)
    return max(cfg.cpu_min, min(cfg.cpu_max, desired))


@dataclass
class HpaController:
    """HPA as a policy: the threshold rule plus the downscale stabilization window, on
    the config's init pods. It first syncs one period in, not at t=0, and each sync
    sets the CPU count itself, since its ceil rule may move further than +-2."""

    cfg: ExperimentConfig
    _recommendations: list = field(default_factory=list)  # (t, desired)
    name = "hpa"
    pods = None

    def decide(self, now: float, current_replicas: int, current_util: float) -> int:
        raw = hpa_decide(current_replicas, current_util, self.cfg)
        self._recommendations.append((now, raw))
        cutoff = now - self.cfg.hpa_stabilization_down_s
        self._recommendations = [(t, d) for t, d in self._recommendations if t >= cutoff]
        if raw >= current_replicas:
            return raw
        # Downscale only to the highest recommendation seen inside the window,
        # so a transient dip cannot shed replicas.
        window_max = max(d for _, d in self._recommendations)
        return min(current_replicas, max(raw, window_max))

    def act(self, obs, env) -> ActionTriple:
        if env.step_index > 0:
            cluster = env.stack.cluster
            current = cluster.desired(Pool.CPU)
            util = mean_busy(cluster, Pool.CPU)   # the HPA input signal
            desired = self.decide(env.stack.engine.now, max(1, current), util)
            if desired != current:
                cluster.set_desired_replicas(Pool.CPU, desired)
        return ActionTriple(0, 0, RoutePref.CPU_FIRST)


@dataclass(frozen=True)
class FixedPolicy:
    """A fixed deployment: its Ready pods at t=0, never scaled, its own pool preferred."""

    name: str
    pods: tuple[int, int]   # (CPU, GPU)
    pref: RoutePref

    def act(self, obs, env) -> ActionTriple:
        return ActionTriple(0, 0, self.pref)


def run_baseline(policy: str, pattern: str, config: ExperimentConfig,
                 traffic_seed: int, timeseries: list | None = None) -> dict:
    """Simulate one (policy, pattern) run on `env.run_policy_episode` and return its
    report. HPA acts every `hpa_sync_period_s`, a fixed policy every control interval."""
    policies = {"fixed_gpu": FixedPolicy("fixed_gpu", (0, config.fixed_gpu_replicas),
                                         RoutePref.GPU_FIRST),
                "fixed_cpu": FixedPolicy("fixed_cpu", (config.fixed_cpu_replicas, 0),
                                         RoutePref.CPU_FIRST),
                "hpa": HpaController(config)}
    if policy not in policies:
        raise ValueError(f"unknown baseline policy: {policy!r}")
    if policy == "hpa":
        config = replace(config, control_interval_s=config.hpa_sync_period_s)
    return env_module.run_policy_episode(policies[policy], pattern, config, traffic_seed,
                                         timeseries)
