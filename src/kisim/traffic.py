"""Closed-loop virtual-user load generation: ramp, periodic, random, spike.

Each virtual user issues one request, waits for its completion, sleeps the
think time `hold_s`, then repeats (Locust-style). The target number of
concurrent users follows a deterministic curve per pattern, shaped by the
config's `users_*`, `periodic_period_s`, `spike_*` and `random_redraw_s`;
surplus users retire at once, though a request in flight still completes. A
user has one `Request`, whose id is the user's, and it carries each of the user's
requests in turn. The generator sets the cluster's wake rule (`ClusterModel.users`,
`hold_s`, `episode_s`) and submits each user's first request; from then on
`Engine.run_until` runs the cycle inline: a completion puts the request back on the
engine's lane as `(due, seq, cluster, request)`, due `hold_s` later, and its arrival
stamps it anew. Retiring the user withdraws its arrival from the lane. The episode ends
at `episode_s`, a time rather than an event: no request arrives from then on.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .simcore import ClusterModel, Engine, Request

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
        self._episode_s = cfg.episode_s
        self._clock, self._lane = engine.clock, engine.lane
        if kind == "random":
            # seeded piecewise-constant levels, one per redraw period
            n = int(math.ceil(cfg.episode_s / cfg.random_redraw_s))
            rng = np.random.default_rng(seed)
            self._levels = [int(v) for v in rng.integers(cfg.users_min, cfg.users_max,
                                                         size=n, endpoint=True)]

        self._next_user_id = 0
        self._active = cluster.users    # uids of current users, never reused: those a completion wakes
        cluster.hold_s, cluster.episode_s = cfg.hold_s, cfg.episode_s

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
        if now >= self._episode_s:
            return
        target = self.target(now)
        while len(self._active) < target:
            self._spawn_user()
        if len(self._active) > target:
            # Retire the newest users first. A retired user's pending arrival is
            # withdrawn from the lane; a completion still in flight finds its uid gone.
            retired = set(sorted(self._active, reverse=True)[:len(self._active) - target])
            self._active -= retired
            kept = [e for e in self._lane if e[3].user not in retired]
            self._lane.clear()
            self._lane.extend(kept)

    def _spawn_user(self) -> None:
        self._next_user_id += 1
        uid = self._next_user_id
        self._active.add(uid)
        # the user's one Request(id, arrived_at, service_started_at, completed_at, pod_id, user)
        self.cluster.submit(Request(uid, self._clock.now, None, None, None, uid))
