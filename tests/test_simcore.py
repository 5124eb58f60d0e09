"""Engine ordering, pod lifecycle, routing and the service-time model."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kisim.env
from kisim.config import ExperimentConfig
from kisim.env import SimStack
from kisim.simcore import (COMPLETION, ClusterModel, Engine, Pod, PodPhase, Pool,
                           PoolLimits, Request, RoutePref, ServiceModel,
                           SimulationError)
from kisim.traffic import LoadGenerator


def make_cluster(engine=None, pref=RoutePref.CPU_FIRST, budget=1,
                 limits=PoolLimits(cpu_min=0, cpu_max=8, gpu_min=0, gpu_max=8)):
    engine = engine or Engine()
    cluster = ClusterModel(engine, ServiceModel(), limits=limits,
                           gpu_device_budget=budget,
                           cpu_startup_s=5.0, gpu_startup_s=10.0,
                           routing_pref=pref)
    return engine, cluster


# ---- engine ---------------------------------------------------------------

def test_events_tie_break_by_schedule_order():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append("A"))
    engine.schedule(5.0, lambda: fired.append("B"))
    engine.run_until(5.0)
    assert fired == ["A", "B"]


def test_events_dequeue_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(7.0, lambda: fired.append(7.0))
    engine.schedule(3.0, lambda: fired.append(3.0))
    engine.run_until(10.0)
    assert fired == [3.0, 7.0]
    assert engine.now == 10.0


def test_scheduling_into_the_past_is_an_error():
    engine = Engine()
    engine.run_until(2.0)
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(math.nan, lambda: None)


def test_run_until_empty_queue_advances_clock_only():
    engine = Engine()
    engine.run_until(10.0)
    assert engine.now == 10.0
    assert engine.pending_events() == 0


def test_run_until_backwards_is_an_error():
    engine = Engine()
    engine.run_until(5.0)
    with pytest.raises(SimulationError):
        engine.run_until(4.0)
    with pytest.raises(SimulationError):
        engine.run_until(math.nan)
    assert engine.now == 5.0


def test_clock_sequence_strictly_increases():
    engine = Engine()
    seqs = []
    for _ in range(5):
        engine.schedule(1.0, lambda: None)
        seqs.append(engine.clock.seq)
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_schedule_passes_its_arguments_to_the_action():
    engine = Engine()
    calls = []
    engine.schedule(2.0, lambda a, b: calls.append((engine.now, a, b)), "x", 7)
    engine.run_until(2.0)
    assert calls == [(2.0, "x", 7)]


def test_clock_sequence_counts_every_scheduled_event():
    engine = Engine()
    engine.schedule(1.0, lambda: engine.schedule(3.0, lambda: None))
    engine.schedule_periodic(1.0, lambda now: None, until=2.0)
    assert engine.clock.seq == 2
    engine.run_until(5.0)
    assert engine.clock.seq == 5      # + the nested event and two more ticks
    assert engine.pending_events() == 0


def test_periodic_instants_are_start_plus_k_intervals():
    engine = Engine()
    fired = []
    engine.schedule_periodic(0.3, fired.append, until=300.0)
    engine.run_until(300.0)
    assert len(fired) == 1001
    assert fired[-1] == 300.0
    assert fired == [k * 0.3 for k in range(1001)]


def schedule_in_order(engine, fire_at, cluster, request):
    """A user's arrival pushed onto the lane, checks included: the lane entry
    (due, seq, cluster, request) that `Engine.run_until` runs inline."""
    clock, lane = engine.clock, engine.lane
    if not fire_at >= clock.now or (lane and fire_at < lane[-1][0]):
        raise SimulationError(f"in-order event at fire_at={fire_at} is before "
                              f"now={clock.now} or the lane's last event")
    clock.seq += 1
    lane.append((fire_at, clock.seq, cluster, request))


class FiringCluster(ClusterModel):
    """A cluster whose every route calls `fire(request.id)` instead of serving it."""

    def __init__(self, engine, fire):
        super().__init__(engine, ServiceModel(), limits=PoolLimits(0, 8, 0, 8))
        self.fire = fire

    def _route(self, req):
        self.fire(req.id)


CHILD = st.tuples(st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


@given(hold=st.sampled_from([0.0, 0.25, 0.5]),
       steps=st.lists(st.lists(CHILD, max_size=3), min_size=1, max_size=40),
       cuts=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), max_size=4))
def test_the_lane_fires_like_a_single_heap(hold, steps, cuts):
    """Each fired event schedules the children of the next step: a lane child, an
    arrival at now + hold, and a heap child at now + its delay. Sent to the heap as a
    timer calling `submit` instead, the lane's arrivals fire in the same order, at the
    same times, with the same seq, and are stamped and counted alike."""
    def run(use_lane):
        engine = Engine()
        todo, fired = iter(steps), []

        def fire(label):
            fired.append((engine.now, label, engine.clock.seq, cluster.requests_injected))
            for in_lane, delay in next(todo, []):
                at = engine.now + (hold if in_lane else delay)
                child = Request(engine.clock.seq + 1, arrived_at=-1.0, completed_at=0.0)
                arrivals.append(child)
                if in_lane and use_lane:
                    schedule_in_order(engine, at, cluster, child)
                elif in_lane:
                    engine.schedule(at, cluster.submit, child)
                else:
                    engine.schedule(at, fire, child.id)

        cluster, arrivals = FiringCluster(engine, fire), []
        fire(0)
        for t in sorted(cuts):
            engine.run_until(t)
            fired.append(("cut", t, engine.pending_events()))
        engine.run_until(100.0)
        stamps = [(r.arrived_at, r.completed_at) for r in arrivals]
        return fired, stamps, engine.clock.seq, engine.pending_events()

    assert run(use_lane=True) == run(use_lane=False)


def test_pending_events_and_clear_cover_the_heap_and_the_lane():
    engine = Engine()
    fired = []
    cluster = FiringCluster(engine, fired.append)
    engine.schedule(1.0, fired.append, "heap")
    schedule_in_order(engine, 1.0, cluster, Request(1, arrived_at=0.0))
    schedule_in_order(engine, 2.0, cluster, Request(2, arrived_at=0.0))
    assert engine.pending_events() == 3
    engine.clear()
    assert engine.pending_events() == 0
    engine.run_until(5.0)
    assert fired == [] and engine.clock.seq == 3 and cluster.requests_injected == 0


# ---- service model ----------------------------------------------------------

def test_service_time_single_request_is_base():
    svc = ServiceModel()
    assert svc.service_time(Pool.GPU, 1) == pytest.approx(0.0816)
    assert svc.service_time(Pool.CPU, 1) == pytest.approx(0.0816)
    assert svc.contention_factor(Pool.CPU, 1) == 1.0
    assert svc.contention_factor(Pool.GPU, 1) == 1.0


def test_service_time_monotone_in_load():
    svc = ServiceModel()
    cpu_times = [svc.service_time(Pool.CPU, c) for c in range(1, svc.cpu_cap + 1)]
    gpu_times = [svc.service_time(Pool.GPU, c) for c in range(1, svc.gpu_cap + 1)]
    assert cpu_times == sorted(cpu_times)
    assert gpu_times == sorted(gpu_times)


def test_cpu_contention_dominates_gpu_pointwise():
    svc = ServiceModel()
    for c in range(2, svc.gpu_cap + 1):
        assert svc.contention_factor(Pool.CPU, c) >= svc.contention_factor(Pool.GPU, c)
    for c in range(2, svc.cpu_cap + 1):
        assert svc.service_time(Pool.CPU, c) >= svc.service_time(Pool.GPU, c)


def test_service_time_outside_cap_rejected():
    svc = ServiceModel()
    with pytest.raises(ValueError):
        svc.service_time(Pool.CPU, 0)
    with pytest.raises(ValueError):
        svc.service_time(Pool.CPU, svc.cpu_cap + 1)


# ---- pod lifecycle ----------------------------------------------------------

def test_scale_up_passes_through_starting_then_ready():
    engine, cluster = make_cluster()
    cluster.set_desired_replicas(Pool.CPU, 2)
    assert all(p.phase is PodPhase.STARTING for p in cluster.cpu_pods)
    engine.run_until(5.0)
    assert all(p.phase is PodPhase.READY for p in cluster.cpu_pods)
    assert len(cluster.cpu_pods) == 2


def test_gpu_standby_stays_pending_under_device_budget():
    engine, cluster = make_cluster(budget=1)
    cluster.set_desired_replicas(Pool.GPU, 2)
    engine.run_until(100.0)
    phases = sorted(p.phase.value for p in cluster.gpu_pods)
    assert phases == ["pending", "ready"]
    assert cluster.active_gpu_count() == 1


def test_pending_gpu_promoted_when_device_frees():
    engine, cluster = make_cluster(budget=1, pref=RoutePref.GPU_FIRST)
    cluster.set_desired_replicas(Pool.GPU, 1)
    engine.run_until(10.0)
    old_pod = cluster.gpu_pods[0]
    cluster.submit(Request(id=1, arrived_at=engine.now))  # keep it busy
    cluster.set_desired_replicas(Pool.GPU, 0)             # drain starts
    cluster.set_desired_replicas(Pool.GPU, 2)             # replacements wait
    assert [p.phase for p in cluster.gpu_pods
            if p is not old_pod] == [PodPhase.PENDING, PodPhase.PENDING]
    engine.run_until(30.0)  # drain completes, oldest standby takes the device
    assert old_pod not in cluster.gpu_pods
    phases = sorted(p.phase.value for p in cluster.gpu_pods)
    assert phases == ["pending", "ready"]
    assert cluster.active_gpu_count() == 1


def test_a_draining_gpu_pod_holds_its_device():
    engine, cluster = make_cluster(budget=1, pref=RoutePref.GPU_FIRST)
    cluster.set_desired_replicas(Pool.GPU, 1)
    engine.run_until(10.0)
    old_pod = cluster.gpu_pods[0]
    cluster.submit(Request(id=1, arrived_at=engine.now))  # served until 10.0816
    cluster.set_desired_replicas(Pool.GPU, 0)             # drain starts
    cluster.set_desired_replicas(Pool.GPU, 1)
    new_pod = cluster.gpu_pods[1]
    holders = (PodPhase.STARTING, PodPhase.READY, PodPhase.TERMINATING)
    while engine.now < 10.08:
        assert (old_pod.phase, old_pod.in_service) == (PodPhase.TERMINATING, 1)
        assert new_pod.phase is PodPhase.PENDING
        held = sum(1 for p in cluster.gpu_pods if p.phase in holders)
        assert cluster.active_gpu_count() == held == 1
        engine.run_until(engine.now + 0.01)
    engine.run_until(10.1)   # the drain ends and the standby takes the device
    assert cluster.gpu_pods == [new_pod]
    assert new_pod.phase is PodPhase.STARTING
    assert cluster.active_gpu_count() == 1


def test_noop_scaling_emits_no_events():
    engine, cluster = make_cluster()
    cluster.set_desired_replicas(Pool.CPU, 3)
    engine.run_until(5.0)
    pending_before = engine.pending_events()
    cluster.set_desired_replicas(Pool.CPU, 3)
    assert engine.pending_events() == pending_before
    assert len(cluster.cpu_pods) == 3


def test_gpu_budget_never_exceeded_during_churn():
    engine, cluster = make_cluster(budget=1)
    for step, desired in enumerate([3, 1, 2, 0, 3, 2]):
        cluster.set_desired_replicas(Pool.GPU, desired)
        t_end = (step + 1) * 4.0
        while engine.now < t_end:
            assert cluster.active_gpu_count() <= cluster.gpu_device_budget
            engine.run_until(min(t_end, engine.now + 0.5))
    engine.run_until(100.0)
    assert cluster.active_gpu_count() <= cluster.gpu_device_budget


# ---- routing -----------------------------------------------------------------

def ready_pod(cluster, pool, n=1):
    cluster.set_desired_replicas(pool, n)
    cluster.engine.run_until(cluster.engine.now + 10.0)
    return cluster.ready_pods(pool)


def test_preferred_pool_wins_when_free():
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    ready_pod(cluster, Pool.GPU)
    ready_pod(cluster, Pool.CPU)
    req = Request(id=1, arrived_at=engine.now)
    cluster.submit(req)
    pod = cluster.gpu_pods[0]
    assert req.pod_id == pod.id


def test_spillover_to_other_pool_when_preferred_saturated():
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    ready_pod(cluster, Pool.GPU)
    ready_pod(cluster, Pool.CPU)
    gpu = cluster.gpu_pods[0]
    for i in range(gpu.concurrency_cap):
        cluster.submit(Request(id=100 + i, arrived_at=engine.now))
    assert gpu.in_service == gpu.concurrency_cap
    req = Request(id=200, arrived_at=engine.now)
    cluster.submit(req)
    assert req.pod_id == cluster.cpu_pods[0].id


def test_enqueue_on_least_loaded_pod_across_pools():
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    ready_pod(cluster, Pool.GPU)
    ready_pod(cluster, Pool.CPU)
    gpu, cpu = cluster.gpu_pods[0], cluster.cpu_pods[0]
    rid = 0
    for pod in (gpu, cpu):
        for _ in range(pod.concurrency_cap):
            rid += 1
            cluster.submit(Request(id=rid, arrived_at=engine.now))
    # saturate queues asymmetrically: gpu queue 2, cpu queue 1
    gpu.queue.extend([Request(id=900, arrived_at=0.0), Request(id=901, arrived_at=0.0)])
    cpu.queue.append(Request(id=902, arrived_at=0.0))
    req = Request(id=999, arrived_at=engine.now)
    cluster.submit(req)
    assert req in cpu.queue


def test_backlog_drains_on_first_readiness():
    engine, cluster = make_cluster()
    reqs = [Request(id=i, arrived_at=0.0) for i in range(3)]
    for r in reqs:
        cluster.submit(r)
    assert len(cluster.backlog) == 3
    cluster.set_desired_replicas(Pool.CPU, 1)
    engine.run_until(5.0)
    assert not cluster.backlog
    pod = cluster.cpu_pods[0]
    assert pod.in_service == pod.concurrency_cap
    assert len(pod.queue) == 1


# ---- scale-down drain ---------------------------------------------------------

def test_scale_down_drains_busy_pod_without_dropping_requests():
    engine, cluster = make_cluster()
    completed = []
    cluster.completion_listeners.append(lambda r: completed.append(r.id))
    ready_pod(cluster, Pool.CPU, 3)
    ids = list(range(1, 10))
    for i in ids:
        cluster.submit(Request(id=i, arrived_at=engine.now))
    busy = [p.id for p in cluster.cpu_pods if p.in_service]
    assert busy
    cluster.set_desired_replicas(Pool.CPU, 1)
    terminating = [p for p in cluster.cpu_pods if p.phase is PodPhase.TERMINATING]
    assert any(p.in_service for p in terminating), "a busy pod should drain"
    engine.run_until(engine.now + 30.0)
    assert sorted(completed) == ids
    assert len(cluster.cpu_pods) == 1
    assert cluster.requests_injected == cluster.requests_completed


def test_scale_down_victims_prefer_pods_without_work():
    engine, cluster = make_cluster()
    cluster.set_desired_replicas(Pool.CPU, 2)
    engine.run_until(5.0)
    cluster.set_desired_replicas(Pool.CPU, 3)  # third pod still starting
    cluster.set_desired_replicas(Pool.CPU, 2)
    # the starting pod (newest, no work) should be the victim
    assert len(cluster.cpu_pods) == 2
    assert all(p.phase is PodPhase.READY for p in cluster.cpu_pods)


# ---- conservation / latency bound --------------------------------------------

def test_conservation_under_random_churn():
    import random
    rng = random.Random(7)
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    completed = []
    cluster.completion_listeners.append(lambda r: completed.append(r))
    next_id = 0
    for _ in range(200):
        roll = rng.random()
        if roll < 0.5:
            next_id += 1
            cluster.submit(Request(id=next_id, arrived_at=engine.now))
        elif roll < 0.75:
            cluster.set_desired_replicas(Pool.CPU, rng.randint(0, 4))
        else:
            cluster.set_desired_replicas(Pool.GPU, rng.randint(0, 2))
        engine.run_until(engine.now + rng.random() * 0.4)
        assert cluster.requests_injected == (
            cluster.requests_completed + cluster.outstanding())
    cluster.set_desired_replicas(Pool.CPU, 2)
    engine.run_until(engine.now + 120.0)
    assert cluster.requests_completed == cluster.requests_injected
    assert sorted(r.id for r in completed) == list(range(1, next_id + 1))


def test_completed_latency_never_below_base_service_time():
    import random
    rng = random.Random(3)
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    svc = cluster.service
    latencies = []
    cluster.completion_listeners.append(lambda r: latencies.append(r.latency))
    cluster.set_desired_replicas(Pool.GPU, 1)
    cluster.set_desired_replicas(Pool.CPU, 2)
    engine.run_until(15.0)
    for i in range(300):
        cluster.submit(Request(id=i, arrived_at=engine.now))
        engine.run_until(engine.now + rng.random() * 0.05)
    engine.run_until(engine.now + 60.0)
    assert latencies
    assert min(latencies) >= svc.service_time(Pool.GPU, 1) - 1e-12


def test_single_request_on_idle_gpu_pod_takes_base_time():
    engine, cluster = make_cluster(pref=RoutePref.GPU_FIRST)
    done = []
    cluster.completion_listeners.append(lambda r: done.append(r))
    ready_pod(cluster, Pool.GPU)
    req = Request(id=1, arrived_at=engine.now)
    cluster.submit(req)
    engine.run_until(engine.now + 1.0)
    assert done and done[0].latency == pytest.approx(0.0816)


def test_identical_seeds_produce_identical_traces():
    def trace():
        engine, cluster = make_cluster()
        events = []
        cluster.completion_listeners.append(
            lambda r: events.append((r.id, r.completed_at, r.pod_id)))
        cluster.set_desired_replicas(Pool.CPU, 2)
        import random
        rng = random.Random(11)
        for i in range(100):
            engine.run_until(engine.now + rng.random() * 0.1)
            cluster.submit(Request(id=i, arrived_at=engine.now))
        engine.run_until(engine.now + 30.0)
        return events

    assert trace() == trace()


def test_each_request_is_served_in_the_time_its_start_load_gives():
    """A pod's n-th concurrent request takes service_time(pool, n), for every
    n up to the cap and for both pools, under a non-default service model."""
    svc = ServiceModel(base_s=0.0731, cpu_cap=3, gpu_cap=5,
                       cpu_exponent=0.77, gpu_exponent=0.41)
    for pool, pref in ((Pool.CPU, RoutePref.CPU_FIRST), (Pool.GPU, RoutePref.GPU_FIRST)):
        engine = Engine()
        cluster = ClusterModel(engine, svc, limits=PoolLimits(0, 8, 0, 8), routing_pref=pref)
        cluster.spawn_ready(pool, 1)
        reqs = [Request(id=n, arrived_at=0.0) for n in range(1, svc.cap(pool) + 1)]
        for req in reqs:
            cluster.submit(req)
        engine.run_until(10.0)
        assert [r.latency for r in reqs] == [svc.service_time(pool, r.id) for r in reqs]


def test_direct_routing_takes_the_least_loaded_ready_pod_lowest_id_first():
    engine, cluster = make_cluster()
    pods = ready_pod(cluster, Pool.CPU, n=3)
    cluster.set_desired_replicas(Pool.CPU, 4)       # a fourth pod, idle but starting
    reqs = [Request(id=i, arrived_at=engine.now) for i in range(6)]
    for req in reqs:
        cluster.submit(req)
    # the first of three idle pods; then idle pod 2 over busier pod 1, and so
    # on; then pod 1 again, the lowest id of three equally loaded pods
    assert [r.pod_id for r in reqs] == [p.id for p in pods] * 2


# ---- one record of replicas and load ------------------------------------------

def test_a_pod_counts_requests_in_service_even_with_equal_ids():
    engine = Engine()
    cluster = ClusterModel(engine, ServiceModel(), limits=PoolLimits(0, 4, 0, 2))
    cluster.spawn_ready(Pool.CPU, 1)                # one Ready pod with two slots
    reqs = [Request(id=i, arrived_at=0.0) for i in (7, 7, 8)]
    for req in reqs:
        cluster.submit(req)
    pod = cluster.cpu_pods[0]
    assert (pod.in_service, len(pod.queue)) == (2, 1)
    assert cluster.outstanding() == 3
    engine.run_until(1.0)
    two = 0.0816 * 2 ** 0.9
    assert [r.completed_at for r in reqs] == [0.0816, two, 0.0816 + two]
    assert cluster.outstanding() == 0


def test_pre_warmed_pods_are_born_ready_without_a_start_up_event():
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 3)
    cluster.spawn_ready(Pool.GPU, 1)
    assert [p.phase for p in cluster.cpu_pods + cluster.gpu_pods] == [PodPhase.READY] * 4
    assert engine.pending_events() == 0


def test_desired_counts_the_pods_of_every_spawn():
    _, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 2)
    cluster.spawn_ready(Pool.CPU, 2)
    assert cluster.desired(Pool.CPU) == 4 == len(cluster.cpu_pods)


# ---- the Ready index ------------------------------------------------------------

def assert_ready_index_is_the_scan(cluster):
    for pool in Pool:
        scan = [p for p in cluster.pods(pool) if p.phase is PodPhase.READY]
        index = cluster.ready_pods(pool)
        assert [p.id for p in index] == [p.id for p in scan]
        assert all(a is b for a, b in zip(index, scan))
        assert [p.id for p in index] == sorted(p.id for p in index)


def assert_the_device_rule_holds(cluster):
    active = cluster.active_gpu_count()
    assert active <= cluster.gpu_device_budget
    if active < cluster.gpu_device_budget:      # a free device leaves no standby waiting
        assert all(p.phase is not PodPhase.PENDING for p in cluster.gpu_pods)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("pref", list(RoutePref))
def test_ready_index_follows_every_phase_change_under_churn(seed, pref):
    import random
    for budget in (2, 1):
        rng = random.Random(seed)
        engine, cluster = make_cluster(pref=pref, budget=budget)
        next_id = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.4:
                next_id += 1
                cluster.submit(Request(id=next_id, arrived_at=engine.now))
            elif roll < 0.55:
                cluster.set_desired_replicas(Pool.CPU, rng.randint(0, 5))
            elif roll < 0.7:
                cluster.set_desired_replicas(Pool.GPU, rng.randint(0, 3))
            elif roll < 0.75:
                cluster.spawn_ready(rng.choice(list(Pool)), 1)
            else:
                engine.run_until(engine.now + rng.random() * 6.0)
            assert_ready_index_is_the_scan(cluster)
            assert_the_device_rule_holds(cluster)
        assert cluster.requests_injected == cluster.requests_completed + cluster.outstanding()


def test_an_older_pod_ready_after_a_newer_pre_warmed_one_ranks_by_id():
    engine, cluster = make_cluster()
    cluster.set_desired_replicas(Pool.CPU, 1)       # pod 1 starting
    cluster.spawn_ready(Pool.CPU, 1)                # pod 2 Ready at once
    assert [p.id for p in cluster.ready_pods(Pool.CPU)] == [2]
    engine.run_until(5.0)                           # pod 1 Ready after pod 2
    assert [p.id for p in cluster.ready_pods(Pool.CPU)] == [1, 2]
    assert_ready_index_is_the_scan(cluster)
    req = Request(id=1, arrived_at=engine.now)
    cluster.submit(req)
    assert req.pod_id == 1                          # both idle: the lower id


@pytest.mark.parametrize("first", list(Pool))
@pytest.mark.parametrize("pref", list(RoutePref))
def test_queued_route_breaks_a_cross_pool_tie_by_the_lower_id(first, pref):
    engine, cluster = make_cluster(pref=pref)
    second = Pool.GPU if first is Pool.CPU else Pool.CPU
    cluster.spawn_ready(first, 1)                   # the lower id
    cluster.spawn_ready(second, 1)
    low, high = cluster.ready_pods(first)[0], cluster.ready_pods(second)[0]
    for i in range(low.concurrency_cap + high.concurrency_cap):
        cluster.submit(Request(id=i, arrived_at=0.0))
    assert low.in_service == low.concurrency_cap and high.in_service == high.concurrency_cap
    a, b = Request(id=100, arrived_at=0.0), Request(id=101, arrived_at=0.0)
    cluster.submit(a)                               # queues 0 and 0: the lower id
    cluster.submit(b)                               # queues 1 and 0: the shorter
    assert list(low.queue) == [a] and list(high.queue) == [b]


def test_pods_compare_by_identity():
    pod = Pod(1, Pool.CPU, 2)
    assert pod == pod
    assert Pod(1, Pool.CPU, 2) != Pod(1, Pool.CPU, 2)


# ---- the request cycle: typed events run inline against listeners and timers ----

class ReferenceCluster(ClusterModel):
    """Service starts as they went through `Engine.schedule`, one call per start, each
    completing in its own `_complete` timer that calls the listeners; the completion log
    is kept by the first listener, as the metrics window's once did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completion_listeners.append(self._log)

    def _log(self, req):
        self.completion_times.append(req.completed_at)
        self.completion_latencies.append(req.latency)

    def _route(self, req):
        if self.routing_pref is RoutePref.GPU_FIRST:
            order = (self.gpu_ready, self.cpu_ready)
        else:
            order = (self.cpu_ready, self.gpu_ready)
        for pods in order:
            target = None
            for p in pods:
                n = p.in_service
                if n < p.concurrency_cap and (target is None or n < least):
                    target, least = p, n
            if target is not None:
                req.pod_id = target.id
                req.service_started_at = now = self.engine.clock.now
                target.in_service = least + 1
                self.engine.schedule(now + target.service_times[least], self._complete, target, req)
                return
        target = None
        for pods in order:
            for p in pods:
                n = len(p.queue)
                if target is None or n < least or (n == least and p.id < target.id):
                    target, least = p, n
        (self.backlog if target is None else target.queue).append(req)

    def _start_service(self, pod, req):
        req.pod_id = pod.id
        req.service_started_at = now = self.engine.clock.now
        pod.in_service += 1
        self.engine.schedule(now + pod.service_times[pod.in_service - 1], self._complete, pod, req)

    def _complete(self, pod, req):
        pod.in_service -= 1
        req.completed_at = self.engine.clock.now
        self.requests_completed += 1
        for listener in self.completion_listeners:
            listener(req)
        if pod.phase is PodPhase.READY:
            if pod.queue:
                self._start_service(pod, pod.queue.popleft())
        elif pod.phase is PodPhase.TERMINATING and not pod.in_service:
            self._remove_pod(pod)


class ReferenceGenerator(LoadGenerator):
    """Think-time wakes as timers on the heap, from a completion listener: each wake
    checks its user, then builds and submits a new request. A wake due at or after the
    episode's end is never scheduled, and a retired user's wake finds it gone."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cluster.completion_listeners.append(self._on_complete)

    def _sync(self, now):
        if now >= self.cfg.episode_s:
            return
        target = self.target(now)
        while len(self._active) < target:
            self._next_user_id += 1
            self._active.add(self._next_user_id)
            self._wake(self._next_user_id)
        for uid in sorted(self._active, reverse=True)[:len(self._active) - target]:
            self._active.remove(uid)

    def _on_complete(self, req):
        now, cfg = self.engine.clock.now, self.cfg
        if req.user in self._active and now + cfg.hold_s < cfg.episode_s:
            self.engine.schedule(now + cfg.hold_s, self._wake, req.user)

    def _wake(self, uid):
        if uid in self._active:
            self.cluster.submit(Request(uid, self.engine.clock.now, user=uid))


def pending(engine):
    """Every event left, in firing order, as (fire_at, seq, what): an arrival names its
    user, a completion its pod and its request's user, a timer its action."""
    left = []
    for fire_at, seq, action, args in sorted(engine.heap) + list(engine.lane):
        if action is COMPLETION or getattr(action, "__name__", None) == "_complete":
            *_, pod, req = args
            what = ("completion", pod.id, req.user)
        elif isinstance(action, ClusterModel):      # the lane's (due, seq, cluster, request)
            what = ("arrival", args.user)
        elif action.__name__ == "_wake":
            what = ("arrival", args[0])
        else:
            what = action.__name__
        left.append((fire_at, seq, what))
    return sorted(left)


def completion_log(cluster):
    """The cluster's completion log as (completed_at, latency) pairs, in completion order."""
    return list(zip(cluster.completion_times, cluster.completion_latencies))


def track(engine, cluster):
    """Lists that get every completed request's (arrived_at, service_started_at,
    completed_at, pod_id, user), and clock.seq after each route (every arrival's among
    them) and at each completion, in the order the events fire."""
    requests, seqs = [], []
    route = cluster._route

    def tracked_route(req):
        route(req)
        seqs.append(("route", req.user, engine.clock.seq))

    def on_complete(r):
        requests.append((r.arrived_at, r.service_started_at, r.completed_at, r.pod_id, r.user))
        seqs.append(("completion", r.user, engine.clock.seq))

    cluster._route = tracked_route
    cluster.completion_listeners.append(on_complete)
    return requests, seqs


def run_request_cycle(cluster_cls, generator_cls, hold_s):
    """A queued run with scale-ups, standbys, a backlog and drains: what `track` saw,
    the completion log, the final clock.seq and the events left."""
    engine = Engine()
    cluster = cluster_cls(engine, ServiceModel(), limits=PoolLimits(0, 8, 0, 8),
                          routing_pref=RoutePref.GPU_FIRST)
    cluster.spawn_ready(Pool.CPU, 2)
    cluster.spawn_ready(Pool.GPU, 1)
    cfg = ExperimentConfig(episode_s=300.0, users_min=4, users_max=40,
                           periodic_period_s=60.0, hold_s=hold_s)
    generator_cls(cfg, "periodic", 5, engine, cluster).start()
    requests, seqs = track(engine, cluster)
    for t, pool, count in ((20.0, Pool.CPU, 5), (25.0, Pool.GPU, 3), (40.0, Pool.CPU, 0),
                           (45.0, Pool.GPU, 0), (55.0, Pool.CPU, 3), (70.0, Pool.GPU, 1)):
        engine.run_until(t)
        cluster.set_desired_replicas(pool, count)
    engine.run_until(120.0)
    return requests, seqs, completion_log(cluster), engine.clock.seq, pending(engine)


@pytest.mark.parametrize("hold_s", [0.0, 0.1, 3.0])
def test_the_request_cycle_pushes_what_schedule_and_the_checked_lane_pushed(hold_s):
    """Service starts, direct and queued, think-time wakes and completions, run inline
    by `run_until` as typed events: the same requests, the same seq, the same order."""
    new = run_request_cycle(ClusterModel, LoadGenerator, hold_s)
    ref = run_request_cycle(ReferenceCluster, ReferenceGenerator, hold_s)
    requests = new[0]
    waited = sum(r[1] > r[0] for r in requests)
    assert 10 < waited < len(requests) - 10     # queued starts and direct ones
    assert len({r[3] for r in requests}) > 3    # pods came and went
    assert new == ref


PLAN = st.lists(st.tuples(st.floats(0.0, 60.0), st.sampled_from(list(Pool)),
                          st.integers(0, 4)), max_size=8)


@settings(max_examples=40, deadline=None)
@given(hold_s=st.sampled_from([0.0, 0.1, 3.0]),
       pattern=st.sampled_from(["periodic", "random", "spike"]),
       seed=st.integers(0, 2**31 - 1), pods=st.tuples(st.integers(0, 3), st.integers(0, 2)),
       budget=st.integers(1, 2), plan=PLAN)
def test_a_simstack_on_the_inline_cycle_runs_like_the_listener_reference(
        hold_s, pattern, seed, pods, budget, plan):
    """A `SimStack`, its cluster and generator wired as every run wires them, against the
    same stack built on the reference classes: through a replica plan that makes GPU
    standbys and drains, under a pattern that retires users, to the episode's end, every
    request, clock.seq after each route and completion, the completion log the window
    reads, the events left and the fields of the requests left in the system agree."""
    cfg = ExperimentConfig(episode_s=60.0, users_min=2, users_max=12, hold_s=hold_s,
                           periodic_period_s=20.0, spike_at_s=15.0, spike_len_s=10.0,
                           random_redraw_s=7.0, gpu_device_budget=budget)

    def run(stack):
        engine, cluster = stack.engine, stack.cluster
        seen = track(engine, cluster)
        for t, pool, count in sorted(plan, key=lambda step: step[0]):
            engine.run_until(t)
            cluster.set_desired_replicas(pool, count)
        engine.run_until(cfg.episode_s)
        assert stack.window.completion_times is cluster.completion_times
        assert stack.window.completion_latencies is cluster.completion_latencies
        in_system = ([a for e in engine.heap for a in e[3] if isinstance(a, Request)]
                     + [r for pod in cluster.cpu_pods + cluster.gpu_pods for r in pod.queue]
                     + list(cluster.backlog))
        fields = sorted((r.user, r.arrived_at, r.service_started_at, r.completed_at, r.pod_id)
                        for r in in_system)     # one request per user: sorted by user
        return (*seen, completion_log(cluster), cluster.requests_injected, engine.clock.seq,
                pending(engine), fields)

    new = run(SimStack(cfg, pattern, seed, *pods))
    with mock.patch.object(kisim.env, "ClusterModel", ReferenceCluster), \
            mock.patch.object(kisim.env, "LoadGenerator", ReferenceGenerator):
        ref = run(SimStack(cfg, pattern, seed, *pods))
    assert new == ref
    requests, log = new[0], new[2]
    assert log == [(r[2], r[2] - r[0]) for r in requests]


@pytest.mark.parametrize("base_s", [-0.05, math.nan, math.inf])
def test_a_service_time_table_not_finite_and_non_negative_is_refused(base_s):
    """A service start is pushed unchecked, so its time must be a finite one from now."""
    with pytest.raises(SimulationError, match="service times must be finite and >= 0"):
        ClusterModel(Engine(), ServiceModel(base_s=base_s), limits=PoolLimits(0, 8, 0, 8))
