"""Deterministic discrete-event engine and the simulated inference cluster.

The cluster is a single node logically split into a CPU pool and a GPU pool
of pods. Each pod is a finite-concurrency server with a FIFO queue. Everything
is driven by one event loop, so a (seed, config) pair always replays the same trace.

A timer is a (fire_at, seq, action, args) heap entry: at fire_at the engine calls
action(*args), and seq, the count of events scheduled so far, breaks ties in scheduling
order. A request's two events are typed, and `run_until` runs both inline: a completion
is a heap entry (fire_at, seq, COMPLETION, (cluster, pod, request)), and an arrival a
lane entry (due, seq, cluster, request). The lane is a FIFO of the load generator's
users' next arrivals, whose due times never decrease. `run_until` fires the earlier
(fire_at, seq) of the two heads, so the tie rule is the same across the queues as within
one. Repeated instants are computed as k*interval, never as a running sum, so every loop
over the same interval sees the same times.

A pod serves each request from its pool's table of service_time(pool, n),
n = 1..cap (the same floats), and `Request.user` names the virtual user
waiting on the request: None for one whose completion wakes no one. A user's one Request
arrives again after each completion: an arrival (`submit`, for a user's first) stamps
`arrived_at` and clears `completed_at`, and a request that waits in a queue or the
backlog reads `service_started_at` and `pod_id` as None until it starts. A completion
logs its time and latency in the cluster's completion log, puts the request of a user
in `users` back on the lane `hold_s` later if that is before `episode_s` (the wake rule
`LoadGenerator` sets), then calls the `completion_listeners`, outside observers that
read the completed request: its fields change only at its next arrival.

The pod lists are the only record of replicas and load: a pool's desired
replica count is its number of non-terminating pods, and a pod counts its
requests in service. A pod changes phase only in `_set_phase`, which also keeps its
pool's Ready index, its Ready pods in id order, so routing and utilization never filter
pods; `ready_pods(pool)` returns the index itself, which callers must not change. The
device rule is `_admit`'s alone: a CPU pod always runs, a GPU pod while a device is free,
else it waits Pending as a standby. A GPU pod not Pending holds a device, a terminating
one until its last request drains, and a freed device goes to the oldest standby, so no
GPU pod is Pending while a device is free (tests/test_simcore.py checks it under churn).
The engine never rebinds `clock`, `heap` or `lane`: `ClusterModel` pushes its service
starts onto the heap, and `LoadGenerator` edits the lane in place. Nothing a cluster
holds points back at it.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Optional

from .config import ExperimentConfig


class SimulationError(RuntimeError):
    """Simulation driven inconsistently (an event in the past, a report never sampled etc.)."""


@dataclass(slots=True)
class SimClock:
    now: float = 0.0
    seq: int = 0    # events scheduled so far; the heap's tie-breaker


class EventKind(Enum):
    COMPLETION = "completion"   # an Enum member, so a pickled heap entry keeps its identity


COMPLETION = EventKind.COMPLETION   # a completion's action slot, tested by identity


class Engine:
    """Time-ordered event loop over a heap and a lane. Ties break on scheduling order (seq)."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.heap: list[tuple] = []
        self.lane: deque[tuple] = deque()      # due times never decrease

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, fire_at: float, action: Callable[..., None], *args) -> None:
        """Call action(*args) at fire_at."""
        clock = self.clock
        if not fire_at >= clock.now:     # NaN fails too
            raise SimulationError(
                f"event scheduled in the past: fire_at={fire_at} < now={clock.now}")
        clock.seq += 1
        heapq.heappush(self.heap, (fire_at, clock.seq, action, args))

    def schedule_periodic(self, interval: float, action: Callable[[float], None],
                          until: float) -> None:
        """Fire action(now) at k*interval, k = 0, 1, ..., while <= until."""
        self.schedule(0.0, self._tick, interval, action, until, 0)

    def _tick(self, interval: float, action: Callable[[float], None], until: float,
              k: int) -> None:
        # a method, since a closure that schedules itself lives on until the cyclic GC
        action(self.clock.now)
        nxt = (k + 1) * interval
        if nxt <= until:
            self.schedule(nxt, self._tick, interval, action, until, k + 1)

    def run_until(self, t_end: float) -> None:
        clock = self.clock
        if not t_end >= clock.now:
            raise SimulationError(f"run_until({t_end}) before now={clock.now}")
        heap, lane = self.heap, self.lane
        while True:
            if lane and not (heap and heap[0] < lane[0]):   # the earlier (fire_at, seq)
                if lane[0][0] > t_end:
                    break
                now, _, cluster, req = lane.popleft()   # a user's arrival, as submit stamps it
                clock.now = req.arrived_at = now
                req.completed_at = None
                cluster.requests_injected += 1
                cluster._route(req)
                continue
            if not (heap and heap[0][0] <= t_end):
                break
            now, _, action, args = heapq.heappop(heap)
            clock.now = now
            if action is not COMPLETION:    # a timer
                action(*args)
                continue
            cluster, pod, req = args    # a request's completion
            pod.in_service -= 1
            req.completed_at = now
            cluster.requests_completed += 1
            cluster.completion_times.append(now)
            cluster.completion_latencies.append(now - req.arrived_at)
            due = now + cluster.hold_s  # a constant delay >= 0: due times never decrease
            if req.user in cluster.users and due < cluster.episode_s:
                if lane and due < lane[-1][0]:
                    raise SimulationError(f"arrival at {due} before the lane's last event")
                clock.seq += 1
                lane.append((due, clock.seq, cluster, req))
            for listener in cluster.completion_listeners:
                listener(req)
            if pod.phase is _READY and pod.queue:   # a slot came free: serve the head as _route does
                nxt, n = pod.queue.popleft(), pod.in_service
                nxt.pod_id, nxt.service_started_at, pod.in_service = pod.id, now, n + 1
                clock.seq += 1
                heapq.heappush(heap, (now + pod.service_times[n], clock.seq, COMPLETION,
                                      (cluster, pod, nxt)))
            elif pod.phase is _TERMINATING and not pod.in_service:
                cluster._remove_pod(pod)
        clock.now = t_end

    def pending_events(self) -> int:
        return len(self.heap) + len(self.lane)

    def clear(self) -> None:
        """Drop every pending event."""
        self.heap.clear()
        self.lane.clear()


class Pool(str, Enum):
    CPU = "cpu"
    GPU = "gpu"


class PodPhase(Enum):
    PENDING = "pending"
    STARTING = "starting"
    READY = "ready"
    TERMINATING = "terminating"


class RoutePref(IntEnum):
    CPU_FIRST = 0
    GPU_FIRST = 1


# bound once: reading a member off its Enum class is a slow lookup in Python 3.11
_READY, _TERMINATING = PodPhase.READY, PodPhase.TERMINATING
# scale-down drops pods that carry no work first; within a phase, newest first
_DROP_ORDER = {PodPhase.PENDING: 0, PodPhase.STARTING: 1, _READY: 2}


@dataclass(slots=True)
class Request:
    id: int
    arrived_at: float
    service_started_at: Optional[float] = None
    completed_at: Optional[float] = None
    pod_id: Optional[int] = None
    user: Optional[int] = None      # the virtual user waiting on it, if any

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ValueError(f"request {self.id} not completed")
        return self.completed_at - self.arrived_at


@dataclass(slots=True, eq=False)    # ids are unique, so pods compare by identity
class Pod:
    id: int
    pool: Pool
    concurrency_cap: int
    phase: PodPhase = PodPhase.PENDING
    queue: deque = field(default_factory=deque)
    in_service: int = 0     # requests in service
    service_times: tuple = field(default=(), repr=False)    # of n in service, at n - 1


@dataclass(frozen=True)
class ServiceModel:
    """Per-pod latency model: base time stretched by a contention factor.

    The factor is 1 for a lone request and grows polynomially with the number
    of requests in service; the GPU exponent is smaller so GPU pods degrade
    more gracefully under load. The defaults are the config's.
    """

    base_s: float = ExperimentConfig.base_service_s
    cpu_cap: int = ExperimentConfig.cpu_concurrency
    gpu_cap: int = ExperimentConfig.gpu_concurrency
    cpu_exponent: float = ExperimentConfig.cpu_contention_exp
    gpu_exponent: float = ExperimentConfig.gpu_contention_exp

    def cap(self, pool: Pool) -> int:
        return self.cpu_cap if pool is Pool.CPU else self.gpu_cap

    def contention_factor(self, pool: Pool, in_service_count: int) -> float:
        exp = self.cpu_exponent if pool is Pool.CPU else self.gpu_exponent
        return float(in_service_count) ** exp

    def service_time(self, pool: Pool, in_service_count: int) -> float:
        cap = self.cap(pool)
        if not 1 <= in_service_count <= cap:
            raise ValueError(
                f"in_service_count={in_service_count} outside [1, {cap}] for {pool.value}")
        return self.base_s * self.contention_factor(pool, in_service_count)

    def sustainable_rps(self, pool: Pool) -> float:
        """Completion rate of one pod saturated at its concurrency cap."""
        cap = self.cap(pool)
        return cap / self.service_time(pool, cap)


@dataclass(frozen=True)
class PoolLimits:
    cpu_min: int
    cpu_max: int
    gpu_min: int
    gpu_max: int


class ClusterModel:
    """Pods, pools, routing and lifecycle on top of an Engine."""

    def __init__(self, engine: Engine, service: ServiceModel, limits: PoolLimits,
                 gpu_device_budget: int = ExperimentConfig.gpu_device_budget,
                 cpu_startup_s: float = ExperimentConfig.cpu_startup_s,
                 gpu_startup_s: float = ExperimentConfig.gpu_startup_s,
                 routing_pref: RoutePref = RoutePref.CPU_FIRST) -> None:
        self.engine = engine
        self._clock, self._heap = engine.clock, engine.heap
        self.service = service
        self.limits = limits
        self.gpu_device_budget = gpu_device_budget
        self.cpu_startup_s = cpu_startup_s
        self.gpu_startup_s = gpu_startup_s
        self.routing_pref = routing_pref
        # service_time(pool, n) for n = 1..cap, at index n - 1
        self._service_times = {pool: tuple(service.service_time(pool, n)
                                           for n in range(1, service.cap(pool) + 1))
                               for pool in Pool}
        if not all(0.0 <= t < math.inf for ts in self._service_times.values() for t in ts):
            raise SimulationError(f"service times must be finite and >= 0: {self._service_times}")

        self.cpu_pods: list[Pod] = []
        self.gpu_pods: list[Pod] = []
        self.cpu_ready: list[Pod] = []     # the Ready index, one per pool
        self.gpu_ready: list[Pod] = []
        # _route's pool order by routing_pref: the Ready indexes are never rebound
        self._orders = ((self.cpu_ready, self.gpu_ready), (self.gpu_ready, self.cpu_ready))
        self.backlog: deque[Request] = deque()

        self._next_pod_id = 0
        self.requests_injected = 0
        self.requests_completed = 0
        # the completion log, one entry per completion in order: its time and its latency
        self.completion_times: list[float] = []
        self.completion_latencies: list[float] = []
        self.completion_listeners: list[Callable[[Request], None]] = []
        # the wake rule, set by LoadGenerator: users' uids, their think time, the episode's end
        self.users: set[int] = set()
        self.hold_s = self.episode_s = 0.0

    # ---- introspection -------------------------------------------------

    def pods(self, pool: Pool) -> list[Pod]:
        return self.cpu_pods if pool is Pool.CPU else self.gpu_pods

    def ready_pods(self, pool: Pool) -> list[Pod]:
        """The pool's Ready pods in id order: the live index, so read-only."""
        return self.cpu_ready if pool is Pool.CPU else self.gpu_ready

    def desired(self, pool: Pool) -> int:
        """The pool's replica count: its pods that are not terminating."""
        return sum(1 for p in self.pods(pool) if p.phase is not PodPhase.TERMINATING)

    def active_gpu_count(self) -> int:
        """GPU pods holding a device: all but the Pending ones, draining ones too."""
        return sum(1 for p in self.gpu_pods if p.phase is not PodPhase.PENDING)

    def outstanding(self) -> int:
        """Requests injected and not completed: in service, queued or backlogged."""
        return (sum(p.in_service + len(p.queue) for p in self.cpu_pods + self.gpu_pods)
                + len(self.backlog))

    # ---- replica control -----------------------------------------------

    def clamp_desired(self, pool: Pool, count: int) -> int:
        if pool is Pool.CPU:
            return max(self.limits.cpu_min, min(self.limits.cpu_max, count))
        return max(self.limits.gpu_min, min(self.limits.gpu_max, count))

    def set_desired_replicas(self, pool: Pool, count: int) -> None:
        if count < 0:
            raise ValueError("replica count must be non-negative")
        alive = [p for p in self.pods(pool) if p.phase is not PodPhase.TERMINATING]
        if count > len(alive):
            for _ in range(count - len(alive)):
                self._create_pod(pool)
        elif count < len(alive):
            alive.sort(key=lambda p: (_DROP_ORDER[p.phase], -p.id))
            for victim in alive[:len(alive) - count]:
                self._terminate_pod(victim)

    def spawn_ready(self, pool: Pool, count: int) -> None:
        """Bring up pre-warmed pods, born Ready (the episode starts on a live cluster)."""
        for _ in range(count):
            self._create_pod(pool, ready=True)

    def _create_pod(self, pool: Pool, ready: bool = False) -> None:
        self._next_pod_id += 1
        pod = Pod(id=self._next_pod_id, pool=pool, concurrency_cap=self.service.cap(pool),
                  service_times=self._service_times[pool])
        self.pods(pool).append(pod)
        self._admit(pod, ready)

    def _set_phase(self, pod: Pod, phase: PodPhase) -> None:
        """The one phase change, and so the one edit of the pod's Ready index."""
        if pod.phase is _READY:
            self.ready_pods(pod.pool).remove(pod)
        pod.phase = phase
        if phase is _READY:
            insort(self.ready_pods(pod.pool), pod, key=lambda p: p.id)

    def _admit(self, pod: Pod, ready: bool = False) -> bool:
        """Start a Pending pod if the device rule lets it (pre-warmed: Ready at once)."""
        if pod.pool is Pool.GPU and self.active_gpu_count() >= self.gpu_device_budget:
            return False
        self._set_phase(pod, _READY if ready else PodPhase.STARTING)
        if not ready:
            delay = self.cpu_startup_s if pod.pool is Pool.CPU else self.gpu_startup_s
            self.engine.schedule(self.engine.now + delay, self._make_ready, pod)
        return True

    def _make_ready(self, pod: Pod) -> None:
        if pod.phase is not PodPhase.STARTING:
            return  # terminated while starting
        self._set_phase(pod, _READY)
        # a pod is Ready now, so every backlogged request finds a home
        while self.backlog:
            self._route(self.backlog.popleft())

    def _terminate_pod(self, pod: Pod) -> None:
        self._set_phase(pod, _TERMINATING)
        while pod.queue:    # out of the Ready index, the pod takes none of them back
            self._route(pod.queue.popleft())
        if not pod.in_service:      # else it drains, and its last completion removes it
            self._remove_pod(pod)

    def _remove_pod(self, pod: Pod) -> None:
        self.pods(pod.pool).remove(pod)
        if pod.pool is Pool.GPU:
            # gpu_pods is in id order, so the oldest standby takes a freed device first
            for standby in [p for p in self.gpu_pods if p.phase is PodPhase.PENDING]:
                if not self._admit(standby):
                    break

    # ---- request flow ----------------------------------------------------

    def submit(self, req: Request) -> None:
        """`req` arrives now; `run_until` runs a user's later arrivals inline the same way."""
        req.arrived_at, req.completed_at = self._clock.now, None
        self.requests_injected += 1
        self._route(req)

    def _route(self, req: Request) -> None:
        order = self._orders[self.routing_pref]
        for pods in order:
            # pods are in id order, so the first strict minimum is the (count, id) one
            target = None
            for p in pods:
                n = p.in_service
                if n < p.concurrency_cap and (target is None or n < least):
                    target, least = p, n
            if target is not None:     # start service, pushed unchecked: its time is >= 0
                clock = self._clock
                req.pod_id = target.id
                req.service_started_at = now = clock.now
                target.in_service = least + 1
                clock.seq += 1
                heapq.heappush(self._heap, (now + target.service_times[least], clock.seq,
                                            COMPLETION, (self, target, req)))
                return
        target = None   # every Ready pod is full: the least (queue length, id) queues it
        for pods in order:
            for p in pods:
                n = len(p.queue)
                if target is None or n < least or (n == least and p.id < target.id):
                    target, least = p, n
        req.service_started_at = req.pod_id = None    # a re-submitted request reads unstarted
        (self.backlog if target is None else target.queue).append(req)
