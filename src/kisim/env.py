"""RL environment over the simulator: observations, actions, reward, episodes.

One episode = one pattern, 300 simulated seconds, one decision every 15 s.
Each control step takes one `SimStack.row()` snapshot, kept as `ScalingEnv.row`;
the observation, the reward, the trace record and the evaluation time series
all read it, and the reward and the trace record share one (GPU, CPU) replica
count. Observations are float64 vectors in `OBS_FIELDS` order (all components
in [0, 1]); actions are (GPU delta, CPU delta, placement preference) triples
over a 5x5x2 space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .config import ExperimentConfig
from .metrics import MetricsWindow, UtilizationModel
from .simcore import (ClusterModel, Engine, Pool, PoolLimits, RoutePref, ServiceModel,
                      SimulationError)
from .traffic import PATTERN_NAMES, LoadGenerator

DELTAS = (-2, -1, 0, 1, 2)
OBS_FIELDS = ("n_replicas", "u_gpu", "l_p95", "theta_req", "u_cpu", "u_mem",
              "delta_l", "delta_theta", "t_norm", "p_id")

_BOOLS = (bool, np.bool_)


@dataclass(frozen=True)
class ActionTriple:
    d_gpu: int
    d_cpu: int
    pref: int  # 0 = CPU-first, 1 = GPU-first

    def __post_init__(self) -> None:
        # True == 1 passes the membership tests below, but a bool is no int to a trace
        if (isinstance(self.d_gpu, _BOOLS) or isinstance(self.d_cpu, _BOOLS)
                or isinstance(self.pref, _BOOLS)):
            raise ValueError(f"an action holds ints, not bools: {self}")
        if self.d_gpu not in DELTAS or self.d_cpu not in DELTAS:
            raise ValueError(f"deltas must be in {DELTAS}")
        if self.pref not in (0, 1):
            raise ValueError("pref must be 0 or 1")

    @classmethod
    def from_heads(cls, g_idx: int, c_idx: int, pref: int) -> "ActionTriple":
        return cls(d_gpu=DELTAS[g_idx], d_cpu=DELTAS[c_idx], pref=pref)


_ROUTE_PREFS = tuple(RoutePref)    # indexed by ActionTriple.pref

# One trace.jsonl line: for finite values, the bytes of json.dumps(record, separators=(",",
# ":")). Ints by %d, floats by %r (float.__repr__, as json writes them); the pattern is one
# of PATTERN_NAMES, which need no escaping.
REWARD_TERMS = ("latency", "gpu_util", "overhead", "smoothness", "total")
TRACE_LINE = ('{"episode":%d,"step":%d,"pattern":"%s","obs":['
              + ",".join(["%r"] * len(OBS_FIELDS)) + '],"action":[%d,%d,%d],"reward":{'
              + ",".join(f'"{k}":%r' for k in REWARD_TERMS)
              + '},"desired_gpu":%d,"desired_cpu":%d,"users":%d}\n')


def trace_line(episode: int, step: int, pattern: str, obs: list, action: ActionTriple,
               terms: dict, desired: tuple[int, int], users: int) -> str:
    """One trace record, each obs value and reward term as `round(x, 9)`. A
    non-finite one is a SimulationError: json would write NaN, which is not JSON."""
    values = [round(x, 9) for x in (*obs, *terms.values())]
    if not all(map(math.isfinite, values)):
        raise SimulationError(f"episode {episode} step {step}: non-finite observation or "
                              f"reward term in {values}")
    return TRACE_LINE % (episode, step, pattern, *values[:len(obs)], action.d_gpu, action.d_cpu,
                         action.pref, *values[len(obs):], *desired, users)


# the keys of SimStack.row(), in order: the columns of every time-series CSV
TIMESERIES_FIELDS = ("t", "users", "p95_s", "throughput_rps", "gpu_util",
                     "cpu_util", "mem_util", "gpu_replicas", "cpu_replicas")


class SimStack:
    """Engine + cluster + metrics + traffic for one simulated run."""

    def __init__(self, config: ExperimentConfig, pattern: str, traffic_seed: int,
                 init_cpu: int, init_gpu: int) -> None:
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
        )
        self.cluster.spawn_ready(Pool.CPU, init_cpu)
        self.cluster.spawn_ready(Pool.GPU, init_gpu)

        self.util_model = UtilizationModel(config)
        self.window = MetricsWindow(window_len_s=config.window_s)
        self.util_samples: list[tuple[float, float, float]] = []   # (cpu, mem, gpu)
        self.cluster.completion_listeners.append(self.window.record)
        self.generator = LoadGenerator(config, pattern, traffic_seed,
                                       self.engine, self.cluster)
        self.generator.start()

    def _sample_util(self, now: float) -> None:
        cpu, mem = self.util_model.cpu_mem_utilization(self.cluster)
        gpu = self.util_model.gpu_utilization(self.cluster)
        self.util_samples.append((cpu, mem, gpu))

    def row(self) -> dict:
        """One time-series CSV row at the current instant."""
        now = self.engine.now
        cpu, mem = self.util_model.cpu_mem_utilization(self.cluster)
        return {
            "t": now,
            "users": self.generator.target(min(now, self.config.episode_s)),
            "p95_s": self.window.p95(now),
            "throughput_rps": self.window.throughput(now),
            "gpu_util": self.util_model.gpu_utilization(self.cluster),
            "cpu_util": cpu,
            "mem_util": mem,
            "gpu_replicas": len(self.cluster.ready_pods(Pool.GPU)),
            "cpu_replicas": len(self.cluster.ready_pods(Pool.CPU)),
        }

    def report(self, policy: str) -> dict:
        """Whole-run metrics of one (policy, pattern) run."""
        if not self.util_samples:   # else every utilization mean would read 0.0
            raise SimulationError("report() of a run that sampled no utilization")
        cpu_util, mem_util, gpu_util = [sum(col) / len(col) for col in zip(*self.util_samples)]
        served = self.cluster.requests_completed > 0    # else no latency: p95, mean None
        return {
            "pattern": self.generator.kind,
            "policy": policy,
            "p95_ms": self.window.run_p95() * 1000.0 if served else None,
            "mean_ms": self.window.run_mean() * 1000.0 if served else None,
            "throughput_rps": self.cluster.requests_completed / self.config.episode_s,
            "gpu_util_mean": gpu_util,
            "cpu_util_mean": cpu_util,
            "mem_util_mean": mem_util,
            "requests_injected": self.cluster.requests_injected,
            "requests_completed": self.cluster.requests_completed,
            "traffic_seed": self.generator.seed,
        }


def episode_traffic(base_seed: int, index: int) -> tuple[str, int]:
    """The (pattern, traffic seed) of episode `index`: patterns rotate with the index."""
    return (PATTERN_NAMES[index % len(PATTERN_NAMES)],
            int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0]))


class EpisodeFinished(RuntimeError):
    """step() called before any reset_to() or after the episode emitted done."""


class ScalingEnv:
    """Gym-style facade: reset_to(pattern, seed) -> obs; step(action) -> (obs, reward, done)."""

    EVAL_INDEX_BASE = 1_000_000

    def __init__(self, config: ExperimentConfig,
                 trace_sink: Optional[IO[str]] = None) -> None:
        self.config = config
        self.trace_sink = trace_sink
        self.stack: Optional[SimStack] = None
        self.row: dict = {}     # the SimStack.row() snapshot of the last observe()
        self.episode_index = -1
        self.step_index = 0

    @property
    def pattern(self) -> str:
        """The current episode's traffic pattern."""
        return self.stack.generator.kind

    # ---- episode management ---------------------------------------------

    def reset_to(self, pattern: str, traffic_seed: int, episode_index: int = 0,
                 pods: Optional[tuple[int, int]] = None) -> np.ndarray:
        """A new episode on `pods` (CPU, GPU) Ready pods, else the config's init counts."""
        self.episode_index = episode_index
        self.step_index = 0
        self.row = {}   # so the first trends compare with 0.0
        init_cpu, init_gpu = pods or (self.config.init_cpu, self.config.init_gpu)
        self.stack = SimStack(self.config, pattern, traffic_seed, init_cpu, init_gpu)
        # facts fixed for the episode: the observation's p_id, demand_estimate's rate
        self._p_id = PATTERN_NAMES.index(pattern) / (len(PATTERN_NAMES) - 1)
        self._cpu_rps = self.stack.service.sustainable_rps(Pool.CPU)
        return self.observe()

    # ---- observation -----------------------------------------------------

    def observe(self) -> np.ndarray:
        """A fresh vector in OBS_FIELDS order from one new `self.row` snapshot."""
        cfg = self.config
        prev = self.row     # the trends compare with the previous snapshot
        self.row = row = self.stack.row()
        p95 = row["p95_s"]
        tput = row["throughput_rps"]
        n_max = cfg.gpu_max + cfg.cpu_max

        def trend(cur: float, prev: float, cap: float) -> float:
            v = max(-1.0, min(1.0, (cur - prev) / cap))
            return (v + 1.0) / 2.0

        return np.array([
            min(1.0, (row["gpu_replicas"] + row["cpu_replicas"]) / n_max),
            row["gpu_util"],
            min(p95 / cfg.latency_cap_s, 1.0),
            min(tput / cfg.throughput_cap_rps, 1.0),
            row["cpu_util"],
            row["mem_util"],
            trend(p95, prev.get("p95_s", 0.0), cfg.latency_cap_s),
            trend(tput, prev.get("throughput_rps", 0.0), cfg.throughput_cap_rps),
            row["t"] / cfg.episode_s,
            self._p_id,
        ], dtype=np.float64)

    # ---- action / reward ---------------------------------------------------

    def decode_and_apply(self, action: ActionTriple) -> None:
        """Route by `pref`; move each pool by its delta into its bounds, a zero delta nowhere."""
        cluster = self.stack.cluster
        cluster.routing_pref = _ROUTE_PREFS[action.pref]
        for pool, delta in ((Pool.GPU, action.d_gpu), (Pool.CPU, action.d_cpu)):
            if delta:
                current = cluster.desired(pool)
                new = cluster.clamp_desired(pool, current + delta)
                if new != current:
                    cluster.set_desired_replicas(pool, new)

    def demand_estimate(self) -> int:
        cycle = self.config.hold_s + self.config.base_service_s     # > 0 by the config
        offered_rps = self.row["users"] / cycle
        # every replica is rated at a CPU pod's saturated completion rate
        return int(math.ceil(offered_rps / self._cpu_rps))

    def reward(self, obs: np.ndarray, action: ActionTriple, desired: tuple[int, int]) -> dict:
        """The REWARD_TERMS at `desired` (GPU, CPU) replicas: four terms, then their weighting."""
        cfg = self.config
        n_max = cfg.gpu_max + cfg.cpu_max
        over = max(0, desired[0] + desired[1] - self.demand_estimate())
        # l_p95 and u_gpu as Python floats, so the trace and training log write plain reprs
        terms = {"latency": float(obs[2]), "gpu_util": float(obs[1]),
                 "overhead": min(1.0, over / n_max),
                 "smoothness": (abs(action.d_gpu) + abs(action.d_cpu)) / 4.0}
        terms["total"] = (-cfg.reward_alpha * terms["latency"]
                          + cfg.reward_beta * terms["gpu_util"]
                          - cfg.reward_gamma * terms["overhead"]
                          - cfg.reward_delta * terms["smoothness"])
        return terms

    # ---- stepping ----------------------------------------------------------

    def step(self, action: ActionTriple) -> tuple[np.ndarray, float, bool]:
        """Act, run to control instant min(k*interval, episode_s) and observe it. At the
        end the stack drops the events and listeners that point back at it, freeing it sooner."""
        stack, end = self.stack, self.config.episode_s
        if stack is None or stack.engine.now >= end:
            raise EpisodeFinished("episode is finished; call reset_to() first")
        self.decode_and_apply(action)
        self.step_index += 1
        target = min(self.step_index * self.config.control_interval_s, end)
        stack.engine.run_until(target)
        done = target >= end
        if done:
            stack.engine.clear()
            stack.cluster.completion_listeners.clear()
        desired = (stack.cluster.desired(Pool.GPU), stack.cluster.desired(Pool.CPU))
        obs = self.observe()
        terms = self.reward(obs, action, desired)
        if self.trace_sink is not None:
            self.trace_sink.write(trace_line(self.episode_index, self.step_index, self.pattern,
                                             obs.tolist(), action, terms, desired,
                                             self.row["users"]))
        return obs, terms["total"], done


def run_policy_episode(policy, pattern: str, cfg: ExperimentConfig, traffic_seed: int,
                       timeseries: list | None = None) -> dict:
    """One run of a policy, reported under its `name`: `act(obs, env) -> ActionTriple` at
    every control instant from t=0, on its `pods` (see `reset_to`). A time-series row is
    the state at its instant before the policy acts there (t=0's is not recorded)."""
    env = ScalingEnv(cfg)
    obs = env.reset_to(pattern, traffic_seed, pods=policy.pods)
    stack = env.stack   # only a reported run samples utilization: the first event after reset
    stack.engine.schedule_periodic(cfg.monitor_interval_s, stack._sample_util, cfg.episode_s)
    done = False
    while not done:
        obs, _, done = env.step(policy.act(obs, env))
        if timeseries is not None:
            timeseries.append(env.row)
    return stack.report(policy.name)
