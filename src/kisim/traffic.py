"""Closed-loop virtual-user load generation: ramp, periodic, random, spike.

Each virtual user issues one request, waits for its completion, sleeps the
think time `hold_s`, then repeats (Locust-style). The target number of
concurrent users follows a deterministic curve per pattern, shaped by the
config's `users_*`, `periodic_period_s`, `spike_*` and `random_redraw_s`;
surplus users retire once their in-flight request completes. The episode ends
at `episode_s`, a time rather than an event: from then on no user is spawned,
woken or sent back to think, so the generator issues no further request.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .simcore import ClusterModel, Engine, Request, SimulationError

PATTERN_NAMES = ("ramp", "periodic", "random", "spike")
SYNC_INTERVAL_S = 1.0   # how often the user count is brought to the curve


class LoadGenerator:
    """Maintains target(t) closed-loop users of one pattern against a cluster."""

    def __init__(self, cfg: ExperimentConfig, kind: str, seed: int,
                 engine: Engine, cluster: ClusterModel) -> None:
        if kind not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern kind: {kind!r}")
        self.cfg = cfg
        self.kind = kind
        self.seed = seed
        self.engine = engine
        self.cluster = cluster
        self._hold_s, self._clock, self._lane = cfg.hold_s, engine.clock, engine.lane
        if kind == "random":
            # seeded piecewise-constant levels, one per redraw period
            n = int(math.ceil(cfg.episode_s / cfg.random_redraw_s))
            rng = np.random.default_rng(seed)
            self._levels = [int(v) for v in rng.integers(cfg.users_min, cfg.users_max,
                                                         size=n, endpoint=True)]

        self._next_user_id = 0
        self._next_request_id = 0
        self._active: set[int] = set()      # uids of current users, never reused
        cluster.completion_listeners.append(self._on_complete)

    def target(self, t: float) -> int:
        """Target concurrent users at time t per the pattern curve."""
        cfg = self.cfg
        if not 0 <= t <= cfg.episode_s:
            raise ValueError(f"t={t} outside episode [0, {cfg.episode_s}]")
        span = cfg.users_max - cfg.users_min
        if self.kind == "ramp":
            return cfg.users_min + int(math.floor(span * (t / cfg.episode_s)))
        if self.kind == "periodic":
            phase = math.fmod(t, cfg.periodic_period_s) / cfg.periodic_period_s
            level = (1.0 + math.sin(2.0 * math.pi * phase - math.pi / 2.0)) / 2.0
            return cfg.users_min + int(math.floor(span * level))
        if self.kind == "spike":
            if cfg.spike_at_s <= t < cfg.spike_at_s + cfg.spike_len_s:
                return cfg.users_max
            return cfg.users_min
        return self._levels[min(int(t // cfg.random_redraw_s), len(self._levels) - 1)]

    # ---- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.engine.schedule_periodic(SYNC_INTERVAL_S, self._sync, until=self.cfg.episode_s)

    def active_users(self) -> int:
        return len(self._active)

    # ---- internals ---------------------------------------------------------

    def _sync(self, now: float) -> None:
        if now >= self.cfg.episode_s:
            return
        target = self.target(now)
        while len(self._active) < target:
            self._spawn_user()
        if len(self._active) > target:
            # Retire the newest users first; the completion or wake-up that a
            # retired user still has pending finds its uid gone and ends there.
            for uid in sorted(self._active, reverse=True)[:len(self._active) - target]:
                self._active.remove(uid)

    def _spawn_user(self) -> None:
        self._next_user_id += 1
        self._active.add(self._next_user_id)
        self._wake(self._next_user_id)      # issues its first request now

    def _on_complete(self, req: Request) -> None:
        uid = req.user
        if uid not in self._active:     # a retired user, or no user at all
            return
        clock, lane = self._clock, self._lane
        if clock.now >= self.cfg.episode_s:
            self._active.remove(uid)
            return
        fire_at = clock.now + self._hold_s  # a constant delay >= 0: due times never decrease
        if lane and fire_at < lane[-1][0]:
            raise SimulationError(f"wake at {fire_at} before the lane's last event")
        clock.seq += 1
        lane.append((fire_at, clock.seq, self._wake, (uid,)))

    def _wake(self, uid: int) -> None:
        now = self._clock.now
        if now < self.cfg.episode_s and uid in self._active:
            self._next_request_id += 1
            # Request(id, arrived_at, service_started_at, completed_at, pod_id, user)
            self.cluster.submit(Request(self._next_request_id, now, None, None, None, uid))
