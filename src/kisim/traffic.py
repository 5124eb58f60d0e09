"""Closed-loop virtual-user load generation: ramp, periodic, random, spike.

Each virtual user issues one request, waits for its completion, sleeps the
think time, then repeats (Locust-style). The target number of concurrent
users follows a deterministic curve per pattern; surplus users retire once
their in-flight request completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simcore import ClusterModel, Engine, EventKind, Request

PATTERN_NAMES = ("ramp", "periodic", "random", "spike")
SYNC_INTERVAL_S = 1.0   # how often the user count is brought to the curve


@dataclass(frozen=True)
class PatternSpec:
    kind: str
    duration_s: float
    u_min: int = 5
    u_max: int = 50
    hold_s: float = 0.5
    period_s: float = 120.0
    spike_at_s: float = 100.0
    spike_len_s: float = 30.0
    redraw_s: float = 15.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if not 0 <= self.u_min <= self.u_max:
            raise ValueError("need 0 <= u_min <= u_max")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


@lru_cache(maxsize=256)
def _random_levels(spec: PatternSpec) -> tuple[int, ...]:
    """Seeded piecewise-constant levels for the random pattern."""
    n = int(math.ceil(spec.duration_s / spec.redraw_s))
    rng = np.random.default_rng(spec.seed)
    return tuple(int(v) for v in
                 rng.integers(spec.u_min, spec.u_max, size=n, endpoint=True))


def user_count(spec: PatternSpec, t: float) -> int:
    """Target concurrent users at time t per the pattern curve."""
    if not 0 <= t <= spec.duration_s:
        raise ValueError(f"t={t} outside episode [0, {spec.duration_s}]")
    span = spec.u_max - spec.u_min
    if spec.kind == "ramp":
        return spec.u_min + int(math.floor(span * (t / spec.duration_s)))
    if spec.kind == "periodic":
        phase = math.fmod(t, spec.period_s) / spec.period_s
        level = (1.0 + math.sin(2.0 * math.pi * phase - math.pi / 2.0)) / 2.0
        return spec.u_min + int(math.floor(span * level))
    if spec.kind == "spike":
        if spec.spike_at_s <= t < spec.spike_at_s + spec.spike_len_s:
            return spec.u_max
        return spec.u_min
    levels = _random_levels(spec)
    idx = min(int(t // spec.redraw_s), len(levels) - 1)
    return levels[idx]


class LoadGenerator:
    """Maintains user_count(t) closed-loop users against a cluster."""

    def __init__(self, spec: PatternSpec, engine: Engine, cluster: ClusterModel) -> None:
        self.spec = spec
        self.engine = engine
        self.cluster = cluster

        self._next_user_id = 0
        self._next_request_id = 0
        self._active: dict[int, str] = {}   # uid -> "inflight" | "holding"
        self._retiring: set[int] = set()
        self._owner: dict[int, int] = {}    # request id -> uid
        self._stopped = False
        cluster.completion_listeners.append(self._on_complete)

    # ---- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.engine.schedule_periodic(0.0, SYNC_INTERVAL_S,
                                      EventKind.CONTROL_TICK, self._sync,
                                      until=self.spec.duration_s)
        self.engine.schedule(self.spec.duration_s, EventKind.EPISODE_END, self._stop)

    def _stop(self) -> None:
        self._stopped = True

    def active_users(self) -> int:
        return len(self._active)

    # ---- internals ---------------------------------------------------------

    def _sync(self, now: float) -> None:
        if self._stopped:
            return
        target = user_count(self.spec, now)
        while len(self._active) < target:
            self._spawn_user()
        if len(self._active) > target:
            # Retire the newest users first; holders leave right away,
            # users with an in-flight request leave on its completion.
            for uid in sorted(self._active, reverse=True)[:len(self._active) - target]:
                state = self._active.pop(uid)
                if state == "inflight":
                    self._retiring.add(uid)

    def _spawn_user(self) -> None:
        self._next_user_id += 1
        uid = self._next_user_id
        self._active[uid] = "inflight"
        self._issue(uid)

    def _issue(self, uid: int) -> None:
        self._next_request_id += 1
        req = Request(id=self._next_request_id, arrived_at=self.engine.now)
        self._owner[req.id] = uid
        self.cluster.submit(req)

    def _on_complete(self, req: Request) -> None:
        uid = self._owner.pop(req.id, None)
        if uid is None:
            return
        if uid in self._retiring:
            self._retiring.discard(uid)
            return
        if uid not in self._active:
            return
        if self._stopped:
            del self._active[uid]
            return
        self._active[uid] = "holding"
        self.engine.schedule(self.engine.now + self.spec.hold_s,
                             EventKind.REQUEST_ARRIVAL,
                             lambda: self._wake(uid))

    def _wake(self, uid: int) -> None:
        if self._stopped or self._active.get(uid) != "holding":
            return
        self._active[uid] = "inflight"
        self._issue(uid)
