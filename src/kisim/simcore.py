"""Deterministic discrete-event engine and the simulated inference cluster.

The cluster is a single node logically split into a CPU pool and a GPU pool
of pods. Each pod is a finite-concurrency server with a FIFO queue; a device
budget caps how many GPU pods can actually run, extra GPU pods stay Pending
as standbys. Everything is driven by one event heap, so a (seed, config)
pair always replays the same trace.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Engine driven inconsistently (scheduling into the past etc.)."""


class EventKind(IntEnum):
    REQUEST_ARRIVAL = 0
    SERVICE_COMPLETE = 1
    POD_PHASE_CHANGE = 2
    CONTROL_TICK = 3
    EPISODE_END = 4


@dataclass(order=True, slots=True)
class SimEvent:
    fire_at: float
    seq: int
    kind: EventKind = field(compare=False)
    action: Callable[[], None] = field(compare=False)


@dataclass(slots=True)
class SimClock:
    now: float = 0.0
    seq: int = 0


class Engine:
    """Time-ordered event loop. Ties break on scheduling order (seq)."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: list[SimEvent] = []

    @property
    def now(self) -> float:
        return self.clock.now

    def make_event(self, fire_at: float, kind: EventKind,
                   action: Callable[[], None]) -> SimEvent:
        self.clock.seq += 1
        return SimEvent(fire_at, self.clock.seq, kind, action)

    def schedule_event(self, ev: SimEvent) -> None:
        if ev.fire_at < self.clock.now:
            raise SimulationError(
                f"event scheduled in the past: fire_at={ev.fire_at} < now={self.clock.now}")
        heapq.heappush(self._heap, ev)

    def schedule(self, fire_at: float, kind: EventKind,
                 action: Callable[[], None]) -> SimEvent:
        ev = self.make_event(fire_at, kind, action)
        self.schedule_event(ev)
        return ev

    def schedule_periodic(self, start: float, interval: float, kind: EventKind,
                          action: Callable[[float], None], until: float) -> None:
        """Fire action(now) at start, start+interval, ... while <= until."""

        def tick() -> None:
            action(self.clock.now)
            nxt = self.clock.now + interval
            if nxt <= until:
                self.schedule(nxt, kind, tick)

        self.schedule(start, kind, tick)

    def run_until(self, t_end: float) -> None:
        if t_end < self.clock.now:
            raise SimulationError(f"run_until({t_end}) before now={self.clock.now}")
        heap = self._heap
        while heap and heap[0].fire_at <= t_end:
            ev = heapq.heappop(heap)
            self.clock.now = ev.fire_at
            ev.action()
        self.clock.now = t_end

    def pending_events(self) -> int:
        return len(self._heap)


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


@dataclass(slots=True)
class Request:
    id: int
    arrived_at: float
    service_started_at: Optional[float] = None
    completed_at: Optional[float] = None
    pod_id: Optional[int] = None

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ValueError(f"request {self.id} not completed")
        return self.completed_at - self.arrived_at


@dataclass(slots=True)
class Pod:
    id: int
    pool: Pool
    concurrency_cap: int
    phase: PodPhase = PodPhase.PENDING
    queue: deque = field(default_factory=deque)
    in_service: set = field(default_factory=set)

    def free_slots(self) -> int:
        return self.concurrency_cap - len(self.in_service)


@dataclass(frozen=True)
class ServiceModel:
    """Per-pod latency model: base time stretched by a contention factor.

    The factor is 1 for a lone request and grows polynomially with the number
    of requests in service; the GPU exponent is smaller so GPU pods degrade
    more gracefully under load.
    """

    base_s: float = 0.0816
    cpu_cap: int = 2
    gpu_cap: int = 8
    cpu_exponent: float = 0.9
    gpu_exponent: float = 0.35

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
    cpu_min: int = 1
    cpu_max: int = 6
    gpu_min: int = 0
    gpu_max: int = 3


class ClusterModel:
    """Pods, pools, routing and lifecycle on top of an Engine."""

    def __init__(self, engine: Engine, service: ServiceModel,
                 limits: PoolLimits = PoolLimits(),
                 gpu_device_budget: int = 1,
                 cpu_startup_s: float = 5.0,
                 gpu_startup_s: float = 10.0,
                 routing_pref: RoutePref = RoutePref.CPU_FIRST) -> None:
        self.engine = engine
        self.service = service
        self.limits = limits
        self.gpu_device_budget = gpu_device_budget
        self.cpu_startup_s = cpu_startup_s
        self.gpu_startup_s = gpu_startup_s
        self.routing_pref = routing_pref

        self.cpu_pods: list[Pod] = []
        self.gpu_pods: list[Pod] = []
        self.backlog: deque[Request] = deque()
        self.desired_cpu = 0
        self.desired_gpu = 0

        self._next_pod_id = 0
        self.requests_injected = 0
        self.requests_completed = 0
        self.completion_listeners: list[Callable[[Request], None]] = []

    # ---- introspection -------------------------------------------------

    def pods(self, pool: Pool) -> list[Pod]:
        return self.cpu_pods if pool is Pool.CPU else self.gpu_pods

    def ready_pods(self, pool: Pool) -> list[Pod]:
        return [p for p in self.pods(pool) if p.phase is PodPhase.READY]

    def ready_count(self, pool: Pool) -> int:
        return sum(1 for p in self.pods(pool) if p.phase is PodPhase.READY)

    def active_gpu_count(self) -> int:
        """GPU pods holding the device per the budget invariant."""
        return sum(1 for p in self.gpu_pods
                   if p.phase in (PodPhase.STARTING, PodPhase.READY))

    def _occupied_gpu_count(self) -> int:
        # Terminating-but-draining pods still hold the device until removed.
        return sum(1 for p in self.gpu_pods if p.phase is not PodPhase.PENDING)

    def in_flight(self) -> int:
        return sum(len(p.in_service) for p in self.cpu_pods + self.gpu_pods)

    def queued(self) -> int:
        return sum(len(p.queue) for p in self.cpu_pods + self.gpu_pods)

    def outstanding(self) -> int:
        return self.in_flight() + self.queued() + len(self.backlog)

    # ---- replica control -----------------------------------------------

    def clamp_desired(self, pool: Pool, count: int) -> int:
        if pool is Pool.CPU:
            return max(self.limits.cpu_min, min(self.limits.cpu_max, count))
        return max(self.limits.gpu_min, min(self.limits.gpu_max, count))

    def set_desired_replicas(self, pool: Pool, count: int) -> None:
        if count < 0:
            raise ValueError("replica count must be non-negative")
        if pool is Pool.CPU:
            self.desired_cpu = count
        else:
            self.desired_gpu = count
        pods = self.pods(pool)
        alive = [p for p in pods if p.phase is not PodPhase.TERMINATING]
        if count > len(alive):
            for _ in range(count - len(alive)):
                self._create_pod(pool)
        elif count < len(alive):
            for victim in self._pick_victims(alive, len(alive) - count):
                self._terminate_pod(victim)

    def spawn_ready(self, pool: Pool, count: int) -> None:
        """Bring up pre-warmed pods at t=0 (episode starts on a live cluster)."""
        if pool is Pool.CPU:
            self.desired_cpu = count
        else:
            self.desired_gpu = count
        for _ in range(count):
            pod = self._create_pod(pool)
            if pod.phase is PodPhase.STARTING:
                pod.phase = PodPhase.READY

    @staticmethod
    def _pick_victims(alive: list[Pod], n: int) -> list[Pod]:
        # Drop pods that carry no work first; within a phase, newest first.
        order = {PodPhase.PENDING: 0, PodPhase.STARTING: 1, PodPhase.READY: 2}
        ranked = sorted(alive, key=lambda p: (order[p.phase], -p.id))
        return ranked[:n]

    def _create_pod(self, pool: Pool) -> Pod:
        self._next_pod_id += 1
        pod = Pod(id=self._next_pod_id, pool=pool,
                  concurrency_cap=self.service.cap(pool))
        self.pods(pool).append(pod)
        # CPU pods start immediately; GPU pods only while a device is free,
        # otherwise they sit Pending as standbys.
        if pool is Pool.CPU or self._occupied_gpu_count() < self.gpu_device_budget:
            self._start_pod(pod)
        return pod

    def _start_pod(self, pod: Pod) -> None:
        pod.phase = PodPhase.STARTING
        delay = self.cpu_startup_s if pod.pool is Pool.CPU else self.gpu_startup_s
        self.engine.schedule(self.engine.now + delay, EventKind.POD_PHASE_CHANGE,
                             lambda: self._make_ready(pod))

    def _make_ready(self, pod: Pod) -> None:
        if pod.phase is not PodPhase.STARTING:
            return  # terminated while starting
        pod.phase = PodPhase.READY
        self._drain_backlog()

    def _drain_backlog(self) -> None:
        # Only called once a pod is Ready, so every request finds a home.
        while self.backlog:
            self._route(self.backlog.popleft())

    def _terminate_pod(self, pod: Pod) -> None:
        pod.phase = PodPhase.TERMINATING
        if pod.queue:
            waiting = list(pod.queue)
            pod.queue.clear()
            for req in waiting:
                self._route(req)
        if not pod.in_service:
            self._remove_pod(pod)
        # else: drain; in-service requests finish, removal happens in _complete

    def _remove_pod(self, pod: Pod) -> None:
        self.pods(pod.pool).remove(pod)
        if pod.pool is Pool.GPU:
            self._promote_pending_gpu()

    def _promote_pending_gpu(self) -> None:
        while self._occupied_gpu_count() < self.gpu_device_budget:
            pending = [p for p in self.gpu_pods if p.phase is PodPhase.PENDING]
            if not pending:
                return
            self._start_pod(min(pending, key=lambda p: p.id))

    # ---- request flow ----------------------------------------------------

    def submit(self, req: Request) -> None:
        self.requests_injected += 1
        self._route(req)

    def _route(self, req: Request) -> None:
        if self.routing_pref is RoutePref.GPU_FIRST:
            order = (self.gpu_pods, self.cpu_pods)
        else:
            order = (self.cpu_pods, self.gpu_pods)
        for pods in order:
            target = None
            for p in pods:
                if p.phase is PodPhase.READY and p.free_slots() > 0:
                    if target is None or len(p.in_service) < len(target.in_service) \
                            or (len(p.in_service) == len(target.in_service) and p.id < target.id):
                        target = p
            if target is not None:
                self._start_service(target, req)
                return
        ready = [p for p in self.cpu_pods + self.gpu_pods if p.phase is PodPhase.READY]
        if ready:
            target = min(ready, key=lambda p: (len(p.queue), p.id))
            target.queue.append(req)
        else:
            self.backlog.append(req)

    def _start_service(self, pod: Pod, req: Request) -> None:
        req.pod_id = pod.id
        req.service_started_at = self.engine.now
        pod.in_service.add(req.id)
        dur = self.service.service_time(pod.pool, len(pod.in_service))
        self.engine.schedule(self.engine.now + dur, EventKind.SERVICE_COMPLETE,
                             lambda: self._complete(pod, req))

    def _complete(self, pod: Pod, req: Request) -> None:
        pod.in_service.discard(req.id)
        req.completed_at = self.engine.now
        self.requests_completed += 1
        for listener in self.completion_listeners:
            listener(req)
        if pod.phase is PodPhase.READY:
            if pod.queue and pod.free_slots() > 0:
                self._start_service(pod, pod.queue.popleft())
        elif pod.phase is PodPhase.TERMINATING and not pod.in_service:
            self._remove_pod(pod)
