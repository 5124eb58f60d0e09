"""Reference autoscaling policies: HPA-style threshold controller and
fixed CPU-only / GPU-only deployments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import ExperimentConfig
from .env import SimStack
from .simcore import PodPhase, Pool, RoutePref

POLICY_NAMES = ("fixed_gpu", "fixed_cpu", "hpa")


def hpa_decide(current_replicas: int, current_util: float, cfg: ExperimentConfig) -> int:
    """Canonical threshold rule: desired = ceil(current * util / target),
    clamped, with a tolerance dead-band around the target."""
    if current_replicas < 1:
        raise ValueError("hpa_decide requires at least one current replica")
    if abs(current_util / cfg.hpa_target_cpu_util - 1.0) <= cfg.hpa_tolerance:
        return current_replicas
    desired = math.ceil(current_replicas * current_util / cfg.hpa_target_cpu_util)
    return max(cfg.hpa_min_replicas, min(cfg.hpa_max_replicas, desired))


@dataclass
class HpaController:
    """Stateful wrapper adding the downscale stabilization window."""

    cfg: ExperimentConfig
    _recommendations: list = field(default_factory=list)  # (t, desired)

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


def cpu_pool_utilization(stack: SimStack) -> float:
    """Average busy fraction across Ready CPU pods (the HPA input signal)."""
    ready = stack.cluster.ready_pods(Pool.CPU)
    if not ready:
        return 0.0
    return sum(len(p.in_service) / p.concurrency_cap for p in ready) / len(ready)


def _policy_setup(policy: str, config: ExperimentConfig) -> tuple[int, int, RoutePref]:
    if policy == "fixed_gpu":
        return 0, config.fixed_gpu_replicas, RoutePref.GPU_FIRST
    if policy == "fixed_cpu":
        return config.fixed_cpu_replicas, 0, RoutePref.CPU_FIRST
    if policy == "hpa":
        return config.init_cpu, config.init_gpu, RoutePref.CPU_FIRST
    raise ValueError(f"unknown baseline policy: {policy!r}")


def run_baseline(policy: str, pattern: str, config: ExperimentConfig,
                 traffic_seed: int, timeseries: list | None = None) -> dict:
    """Simulate one (policy, pattern) run and return its metrics report."""
    init_cpu, init_gpu, pref = _policy_setup(policy, config)
    stack = SimStack(config, pattern, traffic_seed,
                     init_cpu=init_cpu, init_gpu=init_gpu, routing_pref=pref)
    controller = HpaController(config) if policy == "hpa" else None
    interval = config.hpa_sync_period_s if policy == "hpa" else config.control_interval_s
    duration = config.episode_s
    t = 0.0
    while t < duration:
        t = min(t + interval, duration)
        stack.engine.run_until(t)
        if controller is not None and t < duration:
            current = len([p for p in stack.cluster.cpu_pods
                           if p.phase is not PodPhase.TERMINATING])
            util = cpu_pool_utilization(stack)
            desired = controller.decide(t, max(1, current), util)
            if desired != current:
                stack.cluster.set_desired_replicas(Pool.CPU, desired)
        if timeseries is not None:
            timeseries.append(stack.row())
    return stack.report(policy, traffic_seed)
