"""RL environment over the simulator: observations, actions, reward, episodes.

One episode = one pattern, 300 simulated seconds, one decision every 15 s. Each control
step takes one `SimStack.row()` snapshot, kept as `ScalingEnv.row`; the observation, the
reward, the trace record and the evaluation time series all read it, and the reward and
the trace record share one (GPU, CPU) replica count, `ScalingEnv.desired`. The reward is
one float, which only `ScalingEnv.reward` takes apart, summed in `ScalingEnv.episode_return`.
Observations are float64 vectors in `OBS_FIELDS` order (all components in [0, 1]); actions
are (GPU delta, CPU delta, placement preference) triples, the `ACTIONS` of the policy's
`HEAD_SIZES`, which no other module restates.

The env writes nothing: `agent.run_episode` writes a traced step as one `TRACE_LINE`,
the bytes `json.dumps` writes for its record, each value as the text `repr(round(x, 9))`.
The texts of non-zero floats come from a memo of at most 4,096 entries; an int never
reads a float's text (`1` is not `1.0`), and a zero skips the memo, since `0.0` and
`-0.0` are one key with two texts. The bytes must not move: the determinism digest and
the tests' pinned hashes read them, and `read_trace_line` reads only the lines it writes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .metrics import MetricsWindow, UtilizationModel
from .simcore import (ClusterModel, Engine, Pool, PoolLimits, RoutePref, ServiceModel,
                      SimulationError)
from .traffic import PATTERN_NAMES, LoadGenerator

DELTAS = (-2, -1, 0, 1, 2)
OBS_FIELDS = ("gpu_ready", "cpu_ready", "u_gpu", "l_p95", "theta_req", "u_cpu",
              "delta_theta", "t_norm", "p_id")
_U_GPU, _L_P95 = OBS_FIELDS.index("u_gpu"), OBS_FIELDS.index("l_p95")   # the reward's terms

_BOOLS = (bool, np.bool_)


@dataclass(frozen=True)
class ActionTriple:
    d_gpu: int
    d_cpu: int
    pref: RoutePref     # given as a member or its int; stored as the member

    def __post_init__(self) -> None:
        # True == 1 passes the membership tests below, but a bool is no int to a trace
        if (isinstance(self.d_gpu, _BOOLS) or isinstance(self.d_cpu, _BOOLS)
                or isinstance(self.pref, _BOOLS)):
            raise ValueError(f"an action holds ints, not bools: {self}")
        if self.d_gpu not in DELTAS or self.d_cpu not in DELTAS:
            raise ValueError(f"deltas must be in {DELTAS}")
        object.__setattr__(self, "pref", RoutePref(self.pref))    # ValueError past its members


HEAD_SIZES = (len(DELTAS), len(DELTAS), len(RoutePref))    # the policy's heads, in field order
# every action by its head indices (g, c, p), in head order
ACTIONS = {(g, c, p): ActionTriple(DELTAS[g], DELTAS[c], p)
           for g, c, p in itertools.product(*map(range, HEAD_SIZES))}

# One trace.jsonl line: for finite values, the bytes of json.dumps(record, separators=(",",
# ":")). Ints by %d; each float by %s of its text repr(round(x, 9)) (float.__repr__, as json
# writes it), remembered for a float by _value_text; the pattern is one of PATTERN_NAMES,
# which need no escaping.
TRACE_LINE = ('{"episode":%d,"step":%d,"pattern":"%s","obs":['
              + ",".join(["%s"] * len(OBS_FIELDS)) + '],"action":[%d,%d,%d],"reward":%s,'
              + '"desired_gpu":%d,"desired_cpu":%d,"users":%d}\n')


_TEXTS: dict[float, str] = {}     # the memo of _value_text, at most _TEXTS_MAX entries
_TEXTS_MAX = 4096


def _value_text(x: float) -> str:
    """repr(round(x, 9)), remembered in _TEXTS for a float: a control step's values repeat
    from step to step. Full, the memo starts again empty, so it holds at most _TEXTS_MAX."""
    text = repr(round(x, 9))
    if type(x) is float:
        if len(_TEXTS) >= _TEXTS_MAX:
            _TEXTS.clear()
        _TEXTS[x] = text
    return text


def trace_line(episode: int, step: int, pattern: str, obs: list, action: ActionTriple,
               reward: float, desired: tuple[int, int], users: int) -> str:
    """One trace record, each obs value and the reward as `round(x, 9)`. A
    non-finite one is a SimulationError: json would write NaN, which is not JSON."""
    values = (*obs, reward)
    if not all(map(math.isfinite, values)):
        raise SimulationError(f"episode {episode} step {step}: non-finite observation or "
                              f"reward term in {[round(x, 9) for x in values]}")
    # Only a non-zero float reads the memo: an int's text is never an equal float's (1 is
    # not 1.0), and 0.0 and -0.0, one key with two texts, are their own repr (round keeps
    # the sign). A text is never empty, so `or` falls through on a miss alone.
    remembered = _TEXTS.get
    texts = [(type(x) is float and (remembered(x) if x else repr(x))) or _value_text(x)
             for x in values]
    return TRACE_LINE % (episode, step, pattern, *texts[:len(obs)], action.d_gpu, action.d_cpu,
                         action.pref, texts[-1], *desired, users)


def read_trace_line(line: str) -> dict:
    """The record of a trace line, newline included, if `trace_line` writes it back byte for
    byte; else a ValueError that names the missing key, the field at fault or the column."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:     # its position counts lines within this one line
        column = min(exc.pos, len(line.removesuffix("\n"))) + 1
        raise ValueError(f"{exc.msg} at column {column}") from None
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    try:
        for key in ("episode", "step", "desired_gpu", "desired_cpu", "users"):
            if type(rec[key]) is not int or rec[key] < 0:
                raise ValueError(f"{key} {rec[key]!r} is not a non-negative int")
        if rec["pattern"] not in PATTERN_NAMES:
            raise ValueError(f"pattern {rec['pattern']!r} is not one of {PATTERN_NAMES}")
        try:
            action = ActionTriple(*rec["action"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"action {rec['action']!r}: {exc}") from None
        written = trace_line(rec["episode"], rec["step"], rec["pattern"], rec["obs"], action,
                             rec["reward"], (rec["desired_gpu"], rec["desired_cpu"]), rec["users"])
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (TypeError, AttributeError, OverflowError, SimulationError) as exc:
        raise ValueError(f"trace_line cannot write its obs and reward back: {exc}") from None
    if written != line:
        at = len(os.path.commonprefix((line, written)))
        raise ValueError(f"column {at + 1}: {line[at:at + 12]!r}, written {written[at:at + 12]!r}")
    return rec


# the keys of SimStack.row(), in order: the columns of every time-series CSV
TIMESERIES_FIELDS = ("t", "users", "p95_s", "throughput_rps", "gpu_util",
                     "cpu_util", "gpu_replicas", "cpu_replicas")


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
        self.window = MetricsWindow(self.cluster.completion_times,
                                    self.cluster.completion_latencies, config.window_s)
        self.util_samples: list[tuple[float, float]] = []   # (cpu, gpu)
        self.generator = LoadGenerator(config, pattern, traffic_seed,
                                       self.engine, self.cluster)
        self.generator.start()

    def _sample_util(self, now: float) -> None:
        self.util_samples.append((self.util_model.cpu_mem_utilization(self.cluster),
                                  self.util_model.gpu_utilization(self.cluster)))

    def row(self) -> dict:
        """One time-series CSV row at the current instant."""
        now = self.engine.now
        return {
            "t": now,
            "users": self.generator.target(min(now, self.config.episode_s)),
            "p95_s": self.window.p95(now),
            "throughput_rps": self.window.throughput(now),
            "gpu_util": self.util_model.gpu_utilization(self.cluster),
            "cpu_util": self.util_model.cpu_mem_utilization(self.cluster),
            "gpu_replicas": len(self.cluster.ready_pods(Pool.GPU)),
            "cpu_replicas": len(self.cluster.ready_pods(Pool.CPU)),
        }

    def report(self, policy: str) -> dict:
        """Whole-run metrics of one (policy, pattern) run."""
        if not self.util_samples:   # else every utilization mean would read 0.0
            raise SimulationError("report() of a run that sampled no utilization")
        cpu_util, gpu_util = [sum(col) / len(col) for col in zip(*self.util_samples)]
        served = self.cluster.requests_completed > 0    # else no latency: p95, mean None
        return {
            "pattern": self.generator.kind,
            "policy": policy,
            "p95_ms": self.window.run_p95() * 1000.0 if served else None,
            "mean_ms": self.window.run_mean() * 1000.0 if served else None,
            "throughput_rps": self.cluster.requests_completed / self.config.episode_s,
            "gpu_util_mean": gpu_util,
            "cpu_util_mean": cpu_util,
            "requests_injected": self.cluster.requests_injected,
            "requests_completed": self.cluster.requests_completed,
            "traffic_seed": self.generator.seed,
        }


def episode_traffic(base_seed: int, index: int) -> tuple[str, int]:
    """The (pattern, traffic seed) of episode `index`: patterns rotate with the index.
    Training uses 0 ... episodes - 1 and `evaluate` `cli.EVAL_SEED_BASE` (2,000,000) on."""
    return (PATTERN_NAMES[index % len(PATTERN_NAMES)],
            int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0]))


class EpisodeFinished(RuntimeError):
    """step() called before any reset_to() or after the episode emitted done."""


class ScalingEnv:
    """Gym-style facade: reset_to(pattern, seed) -> obs; step(action) -> (obs, reward, done)."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.stack: Optional[SimStack] = None
        self.row: dict = {}     # the SimStack.row() snapshot of the last observe()
        self.desired = (0, 0)   # the last step's (GPU, CPU) desired replicas
        self.step_index = 0
        self.episode_return = 0.0   # the sum of this episode's rewards, in step order

    @property
    def pattern(self) -> str:
        """The current episode's traffic pattern."""
        return self.stack.generator.kind

    # ---- episode management ---------------------------------------------

    def reset_to(self, pattern: str, traffic_seed: int,
                 pods: Optional[tuple[int, int]] = None) -> np.ndarray:
        """A new episode on `pods` (CPU, GPU) Ready pods, else the config's init counts."""
        self.step_index = 0
        self.episode_return = 0.0
        self.row = {}   # so the first trend compares with 0.0
        init_cpu, init_gpu = pods or (self.config.init_cpu, self.config.init_gpu)
        self.stack = SimStack(self.config, pattern, traffic_seed, init_cpu, init_gpu)
        # facts fixed for the episode: the observation's p_id, demand_estimate's rate
        self._p_id = PATTERN_NAMES.index(pattern) / (len(PATTERN_NAMES) - 1)
        self._cpu_rps = self.stack.service.sustainable_rps(Pool.CPU)
        return self.observe()

    def fork(self) -> ScalingEnv:
        """An exact copy that steps on alone. Raises, with no fallback, on any state pickle
        cannot copy, such as a lambda listener or an open file."""
        return pickle.loads(pickle.dumps(self, 5))

    # ---- observation -----------------------------------------------------

    def observe(self) -> np.ndarray:
        """A fresh vector in OBS_FIELDS order from one new `self.row` snapshot. A window of no
        completion with requests outstanding reads the worst latency, 1.0: no latency is 0,
        so only an empty window's p95 of 0.0 counts the outstanding requests."""
        cfg = self.config
        prev_tput = self.row.get("throughput_rps", 0.0)    # delta_theta compares with it
        self.row = row = self.stack.row()
        p95, tput = row["p95_s"], row["throughput_rps"]
        n_max = cfg.gpu_max + cfg.cpu_max
        stalled = p95 == 0.0 and self.stack.cluster.outstanding() > 0
        trend = max(-1.0, min(1.0, (tput - prev_tput) / cfg.throughput_cap_rps))
        return np.array([
            min(1.0, row["gpu_replicas"] / n_max),
            min(1.0, row["cpu_replicas"] / n_max),
            row["gpu_util"],
            1.0 if stalled else min(p95 / cfg.latency_cap_s, 1.0),
            min(tput / cfg.throughput_cap_rps, 1.0),
            row["cpu_util"],
            (trend + 1.0) / 2.0,
            row["t"] / cfg.episode_s,
            self._p_id,
        ], dtype=np.float64)

    # ---- action / reward ---------------------------------------------------

    def decode_and_apply(self, action: ActionTriple) -> None:
        """Route by `pref`; move each pool by its delta into its bounds, a zero delta nowhere."""
        cluster = self.stack.cluster
        cluster.routing_pref = action.pref
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

    def reward(self, obs: np.ndarray, desired: tuple[int, int]) -> float:
        """-α·l_p95 + β·u_gpu - γ·min(1, `desired` (GPU, CPU) replicas past demand / n_max)."""
        cfg = self.config
        n_max = cfg.gpu_max + cfg.cpu_max
        over = max(0, desired[0] + desired[1] - self.demand_estimate())
        # l_p95 and u_gpu as Python floats, so the reward is a plain float, as its repr is written
        return (-cfg.reward_alpha * float(obs[_L_P95]) + cfg.reward_beta * float(obs[_U_GPU])
                - cfg.reward_gamma * min(1.0, over / n_max))

    # ---- stepping ----------------------------------------------------------

    def step(self, action: ActionTriple) -> tuple[np.ndarray, float, bool]:
        """Act, run to control instant min(k*interval, episode_s) and observe it. At the
        end the engine drops its events, which point back at the stack, freeing it sooner."""
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
        self.desired = (stack.cluster.desired(Pool.GPU), stack.cluster.desired(Pool.CPU))
        obs = self.observe()
        reward = self.reward(obs, self.desired)
        self.episode_return += reward
        return obs, reward, done


def run_policy_episode(policy, pattern: str, cfg: ExperimentConfig, traffic_seed: int,
                       timeseries: list | None = None, actions: list | None = None) -> dict:
    """One run of a policy, reported under its `name`: `act(obs, env) -> ActionTriple` at
    every control instant from t=0, on its `pods` (see `reset_to`). A time-series row is
    the state at its instant before the policy acts there (t=0's is not recorded); the
    `actions` list, if given, gets each action in the order played."""
    env = ScalingEnv(cfg)
    obs = env.reset_to(pattern, traffic_seed, pods=policy.pods)
    stack = env.stack   # only a reported run samples utilization: the first event after reset
    stack.engine.schedule_periodic(cfg.monitor_interval_s, stack._sample_util, cfg.episode_s)
    done = False
    while not done:
        action = policy.act(obs, env)
        if actions is not None:
            actions.append(action)
        obs, _, done = env.step(action)
        if timeseries is not None:
            timeseries.append(env.row)
    return stack.report(policy.name)
