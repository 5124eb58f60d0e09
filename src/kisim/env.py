"""RL environment over the simulator: observations, actions, reward, episodes.

One episode = one pattern, 300 simulated seconds, one decision every 15 s.
Observations are the 10-feature vector (all components in [0, 1]); actions
are (GPU delta, CPU delta, placement preference) triples over a 5x5x2 space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .config import ExperimentConfig
from .metrics import MetricsWindow, RunStats, UtilizationModel
from .simcore import ClusterModel, Engine, EventKind, Pool, PoolLimits, RoutePref, ServiceModel
from .traffic import PATTERN_NAMES, LoadGenerator, PatternSpec, user_count

DELTAS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class Observation:
    n_replicas: float
    u_gpu: float
    l_p95: float
    theta_req: float
    u_cpu: float
    u_mem: float
    delta_l: float
    delta_theta: float
    t_norm: float
    p_id: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.n_replicas, self.u_gpu, self.l_p95, self.theta_req,
                         self.u_cpu, self.u_mem, self.delta_l, self.delta_theta,
                         self.t_norm, self.p_id], dtype=np.float64)


@dataclass(frozen=True)
class ActionTriple:
    d_gpu: int
    d_cpu: int
    pref: int  # 0 = CPU-first, 1 = GPU-first

    def __post_init__(self) -> None:
        if self.d_gpu not in DELTAS or self.d_cpu not in DELTAS:
            raise ValueError(f"deltas must be in {DELTAS}")
        if self.pref not in (0, 1):
            raise ValueError("pref must be 0 or 1")

    @classmethod
    def from_heads(cls, g_idx: int, c_idx: int, pref: int) -> "ActionTriple":
        return cls(d_gpu=DELTAS[g_idx], d_cpu=DELTAS[c_idx], pref=pref)


@dataclass(frozen=True)
class RewardBreakdown:
    latency_term: float
    gpu_util_term: float
    overhead_term: float
    smoothness_term: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def total(self) -> float:
        return (-self.alpha * self.latency_term
                + self.beta * self.gpu_util_term
                - self.gamma * self.overhead_term
                - self.delta * self.smoothness_term)

    def as_dict(self) -> dict:
        return {
            "latency": self.latency_term,
            "gpu_util": self.gpu_util_term,
            "overhead": self.overhead_term,
            "smoothness": self.smoothness_term,
            "total": self.total,
        }


class SimStack:
    """Engine + cluster + metrics + traffic for one simulated run."""

    def __init__(self, config: ExperimentConfig, pattern: str, traffic_seed: int,
                 init_cpu: int, init_gpu: int, routing_pref: RoutePref) -> None:
        self.config = config
        self.engine = Engine()
        self.service = ServiceModel(
            base_s=config.base_service_s,
            cpu_cap=config.cpu_concurrency,
            gpu_cap=config.gpu_concurrency,
            cpu_exponent=config.cpu_contention_exp,
            gpu_exponent=config.gpu_contention_exp,
        )
        self.cluster = ClusterModel(
            self.engine, self.service,
            limits=PoolLimits(config.cpu_min, config.cpu_max,
                              config.gpu_min, config.gpu_max),
            gpu_device_budget=config.gpu_device_budget,
            cpu_startup_s=config.cpu_startup_s,
            gpu_startup_s=config.gpu_startup_s,
            routing_pref=routing_pref,
        )
        self.cluster.spawn_ready(Pool.CPU, init_cpu)
        self.cluster.spawn_ready(Pool.GPU, init_gpu)

        self.util_model = UtilizationModel(
            node_millicores=config.node_millicores,
            node_mem_bytes=config.node_mem_bytes,
            cpu_pod_idle_millicores=config.cpu_pod_idle_millicores,
            cpu_pod_busy_millicores=config.cpu_pod_busy_millicores,
            cpu_pod_mem_bytes=config.cpu_pod_mem_bytes,
            gpu_pod_idle_millicores=config.gpu_pod_idle_millicores,
            gpu_pod_busy_millicores=config.gpu_pod_busy_millicores,
            gpu_pod_mem_bytes=config.gpu_pod_mem_bytes,
            memory_pods=config.memory_pods,
            memory_pod_millicores=config.memory_pod_millicores,
            memory_pod_mem_bytes=config.memory_pod_mem_bytes,
        )
        self.window = MetricsWindow(window_len_s=config.window_s)
        self.stats = RunStats()
        self.cluster.completion_listeners.append(
            lambda req: self.window.record_completion(req.completed_at, req.latency))
        self.cluster.completion_listeners.append(self.stats.record_completion)

        self.spec = PatternSpec(
            kind=pattern,
            duration_s=config.episode_s,
            u_min=config.users_min,
            u_max=config.users_max,
            hold_s=config.hold_s,
            period_s=config.periodic_period_s,
            spike_at_s=config.spike_at_s,
            spike_len_s=config.spike_len_s,
            redraw_s=config.random_redraw_s,
            seed=traffic_seed,
        )
        self.generator = LoadGenerator(self.spec, self.engine, self.cluster)
        self.generator.start()
        self.engine.schedule_periodic(0.0, config.monitor_interval_s,
                                      EventKind.CONTROL_TICK, self._sample_util,
                                      until=config.episode_s)

    def _sample_util(self, now: float) -> None:
        cpu, mem = self.util_model.cpu_mem_utilization(self.cluster)
        gpu = self.util_model.gpu_utilization(self.cluster)
        self.stats.record_util(cpu, mem, gpu)

    def current_users(self) -> int:
        return user_count(self.spec, min(self.engine.now, self.spec.duration_s))

    def ready_replicas(self) -> tuple[int, int]:
        return (self.cluster.ready_count(Pool.GPU), self.cluster.ready_count(Pool.CPU))

    def row(self) -> dict:
        """One time-series CSV row at the current instant."""
        now = self.engine.now
        cpu, mem = self.util_model.cpu_mem_utilization(self.cluster)
        gpu_ready, cpu_ready = self.ready_replicas()
        return {
            "t": now,
            "users": self.current_users(),
            "p95_s": self.window.p95(now),
            "throughput_rps": self.window.throughput(now),
            "gpu_util": self.util_model.gpu_utilization(self.cluster),
            "cpu_util": cpu,
            "mem_util": mem,
            "gpu_replicas": gpu_ready,
            "cpu_replicas": cpu_ready,
        }

    def report(self, policy: str, traffic_seed: int) -> dict:
        """Whole-run metrics of one (policy, pattern) run."""
        cpu_util, mem_util, gpu_util = self.stats.mean_utils()
        return {
            "pattern": self.spec.kind,
            "policy": policy,
            "p95_ms": self.stats.p95_s() * 1000.0,
            "mean_ms": self.stats.mean_s() * 1000.0,
            "throughput_rps": self.stats.throughput_rps(self.config.episode_s),
            "gpu_util_mean": gpu_util,
            "cpu_util_mean": cpu_util,
            "mem_util_mean": mem_util,
            "requests_injected": self.cluster.requests_injected,
            "requests_completed": self.cluster.requests_completed,
            "traffic_seed": traffic_seed,
        }


def traffic_seed_for(base_seed: int, key: int) -> int:
    return int(np.random.SeedSequence([base_seed, key]).generate_state(1)[0])


class EpisodeFinished(RuntimeError):
    """step() called after the episode emitted done."""


class ScalingEnv:
    """Gym-style facade: reset(episode) -> obs; step(action) -> (obs, reward, done)."""

    EVAL_INDEX_BASE = 1_000_000

    def __init__(self, config: ExperimentConfig,
                 trace_sink: Optional[IO[str]] = None) -> None:
        self.config = config
        self.trace_sink = trace_sink
        self.stack: Optional[SimStack] = None
        self.pattern: str = PATTERN_NAMES[0]
        self.episode_index = -1
        self.step_index = 0
        self._prev_p95 = 0.0
        self._prev_tput = 0.0
        self._done = True

    # ---- episode management ---------------------------------------------

    def reset(self, episode_index: int = 0) -> Observation:
        pattern = PATTERN_NAMES[episode_index % len(PATTERN_NAMES)]
        seed = traffic_seed_for(self.config.seed, episode_index)
        return self.reset_to(pattern, seed, episode_index=episode_index)

    def reset_to(self, pattern: str, traffic_seed: int,
                 episode_index: int = 0) -> Observation:
        self.pattern = pattern
        self.episode_index = episode_index
        self.step_index = 0
        self._prev_p95 = 0.0
        self._prev_tput = 0.0
        self._done = False
        self.stack = SimStack(self.config, pattern, traffic_seed,
                              init_cpu=self.config.init_cpu,
                              init_gpu=self.config.init_gpu,
                              routing_pref=RoutePref.CPU_FIRST)
        return self.observe(update_trends=False)

    # ---- observation -----------------------------------------------------

    def observe(self, update_trends: bool = True) -> Observation:
        cfg = self.config
        stack = self.stack
        now = stack.engine.now
        p95 = stack.window.p95(now)
        tput = stack.window.throughput(now)
        u_cpu, u_mem = stack.util_model.cpu_mem_utilization(stack.cluster)
        u_gpu = stack.util_model.gpu_utilization(stack.cluster)

        gpu_ready, cpu_ready = stack.ready_replicas()
        n_max = cfg.gpu_max + cfg.cpu_max
        n_replicas = min(1.0, (gpu_ready + cpu_ready) / n_max)
        l_p95 = min(p95 / cfg.latency_cap_s, 1.0)
        theta = min(tput / cfg.throughput_cap_rps, 1.0)

        def trend(cur: float, prev: float, cap: float) -> float:
            v = max(-1.0, min(1.0, (cur - prev) / cap))
            return (v + 1.0) / 2.0

        delta_l = trend(p95, self._prev_p95, cfg.latency_cap_s)
        delta_theta = trend(tput, self._prev_tput, cfg.throughput_cap_rps)
        if update_trends:
            self._prev_p95 = p95
            self._prev_tput = tput

        return Observation(
            n_replicas=n_replicas,
            u_gpu=u_gpu,
            l_p95=l_p95,
            theta_req=theta,
            u_cpu=u_cpu,
            u_mem=u_mem,
            delta_l=delta_l,
            delta_theta=delta_theta,
            t_norm=now / cfg.episode_s,
            p_id=PATTERN_NAMES.index(self.pattern) / (len(PATTERN_NAMES) - 1),
        )

    # ---- action / reward ---------------------------------------------------

    def decode_and_apply(self, action: ActionTriple) -> tuple[int, int]:
        cluster = self.stack.cluster
        new_gpu = cluster.clamp_desired(Pool.GPU, cluster.desired_gpu + action.d_gpu)
        new_cpu = cluster.clamp_desired(Pool.CPU, cluster.desired_cpu + action.d_cpu)
        applied_gpu = new_gpu - cluster.desired_gpu
        applied_cpu = new_cpu - cluster.desired_cpu
        cluster.routing_pref = RoutePref(action.pref)
        if new_gpu != cluster.desired_gpu:
            cluster.set_desired_replicas(Pool.GPU, new_gpu)
        if new_cpu != cluster.desired_cpu:
            cluster.set_desired_replicas(Pool.CPU, new_cpu)
        return applied_gpu, applied_cpu

    def demand_estimate(self) -> int:
        users = self.stack.current_users()
        cycle = self.config.hold_s + self.config.base_service_s
        offered_rps = users / cycle if cycle > 0 else 0.0
        # every replica is rated at a CPU pod's saturated completion rate
        return int(math.ceil(offered_rps / self.stack.service.sustainable_rps(Pool.CPU)))

    def reward(self, obs: Observation, action: ActionTriple) -> RewardBreakdown:
        cfg = self.config
        cluster = self.stack.cluster
        n_max = cfg.gpu_max + cfg.cpu_max
        over = max(0, cluster.desired_gpu + cluster.desired_cpu - self.demand_estimate())
        overhead = min(1.0, over / n_max)
        smoothness = (abs(action.d_gpu) + abs(action.d_cpu)) / 4.0
        return RewardBreakdown(
            latency_term=obs.l_p95,
            gpu_util_term=obs.u_gpu,
            overhead_term=overhead,
            smoothness_term=smoothness,
            alpha=cfg.reward_alpha,
            beta=cfg.reward_beta,
            gamma=cfg.reward_gamma,
            delta=cfg.reward_delta,
        )

    # ---- stepping ----------------------------------------------------------

    def step(self, action: ActionTriple) -> tuple[Observation, RewardBreakdown, bool]:
        if self._done:
            raise EpisodeFinished("episode is finished; call reset() first")
        self.decode_and_apply(action)
        target = min((self.step_index + 1) * self.config.control_interval_s,
                     self.config.episode_s)
        self.stack.engine.run_until(target)
        self.step_index += 1
        obs = self.observe()
        breakdown = self.reward(obs, action)
        done = target >= self.config.episode_s
        self._done = done
        if self.trace_sink is not None:
            self._write_trace(obs, action, breakdown)
        return obs, breakdown, done

    def _write_trace(self, obs: Observation, action: ActionTriple,
                     breakdown: RewardBreakdown) -> None:
        cluster = self.stack.cluster
        record = {
            "episode": self.episode_index,
            "step": self.step_index,
            "pattern": self.pattern,
            "obs": [round(float(x), 9) for x in obs.as_vector()],
            "action": [action.d_gpu, action.d_cpu, action.pref],
            "reward": {k: round(float(v), 9) for k, v in breakdown.as_dict().items()},
            "desired_gpu": cluster.desired_gpu,
            "desired_cpu": cluster.desired_cpu,
            "users": self.stack.current_users(),
        }
        self.trace_sink.write(json.dumps(record, separators=(",", ":")) + "\n")
