"""Pattern curves and the closed-loop virtual-user generator."""

from dataclasses import replace

import pytest

from kisim.config import ExperimentConfig
from kisim.simcore import (ClusterModel, Engine, Pool, PoolLimits, Request, RoutePref,
                           ServiceModel, SimulationError)
from kisim.traffic import PATTERN_NAMES, LoadGenerator


def config(**kw):
    defaults = dict(episode_s=300.0, users_min=5, users_max=50, hold_s=0.5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def make_cluster():
    engine = Engine()
    return engine, ClusterModel(engine, ServiceModel(), limits=PoolLimits(0, 8, 0, 8),
                                routing_pref=RoutePref.GPU_FIRST)


def track_arrivals(cluster, arrived):
    """Call `arrived(request)` after each arrival is stamped and routed: a user's first
    through `submit`, each later one inline in `Engine.run_until`. An arrival counts
    `requests_injected` just before it routes its request, and a re-route from a queue or
    the backlog counts nothing, so a route that finds the count moved, by one, is an
    arrival."""
    route, counted = cluster._route, [cluster.requests_injected]

    def tracked_route(req):
        moved = cluster.requests_injected - counted[0]
        assert moved in (0, 1)
        counted[0] = cluster.requests_injected
        route(req)
        if moved:
            arrived(req)

    cluster._route = tracked_route


def curve(kind, seed=9, **kw):
    """The target(t) curve of a generator that is never started."""
    return LoadGenerator(config(**kw), kind, seed, *make_cluster()).target


# ---- curves -----------------------------------------------------------------

def test_ramp_endpoints():
    target = curve("ramp")
    assert target(0.0) == 5
    assert target(300.0) == 50


def test_ramp_is_monotone_nondecreasing():
    target = curve("ramp")
    counts = [target(t / 2.0) for t in range(0, 601)]
    assert counts == sorted(counts)
    assert all(5 <= c <= 50 for c in counts)


def test_periodic_starts_at_floor_and_repeats():
    target = curve("periodic", periodic_period_s=120.0)
    assert target(0.0) == 5
    for t in (0.0, 1.5, 7.25, 60.0, 119.0, 150.5):
        assert target(t) == target(t + 120.0)


def test_periodic_peaks_mid_cycle():
    target = curve("periodic", periodic_period_s=120.0)
    assert target(60.0) == 50


def test_spike_window_and_two_values():
    target = curve("spike", spike_at_s=100.0, spike_len_s=30.0)
    assert target(115.0) == 50
    assert target(99.999) == 5
    assert target(130.0) == 5
    values = {target(t / 4.0) for t in range(0, 1201)}
    assert values == {5, 50}


def test_random_is_piecewise_constant_and_seeded():
    target = curve("random", random_redraw_s=15.0)
    counts = [target(float(t)) for t in range(0, 300)]
    assert counts == [curve("random")(float(t)) for t in range(0, 300)]
    for seg in range(20):
        seg_vals = {counts[t] for t in range(seg * 15, (seg + 1) * 15)}
        assert len(seg_vals) == 1
    assert all(5 <= c <= 50 for c in counts)
    other = [curve("random", seed=10)(float(t)) for t in range(0, 300)]
    assert other != counts


def test_time_outside_episode_rejected():
    target = curve("ramp")
    with pytest.raises(ValueError):
        target(-0.1)
    with pytest.raises(ValueError):
        target(300.1)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        curve("sawtooth")


@pytest.mark.parametrize("kind", PATTERN_NAMES)
def test_all_curves_stay_in_bounds(kind):
    target = curve(kind)
    for t in range(0, 301, 3):
        assert 5 <= target(float(t)) <= 50


# ---- closed-loop generator ------------------------------------------------

def run_generator(kind, seed=9, init_cpu=0, init_gpu=1, **kw):
    engine, cluster = make_cluster()
    if init_cpu:
        cluster.spawn_ready(Pool.CPU, init_cpu)
    if init_gpu:
        cluster.spawn_ready(Pool.GPU, init_gpu)
    gen = LoadGenerator(config(**kw), kind, seed, engine, cluster)
    gen.start()
    return engine, cluster, gen


def test_single_user_hold_zero_reaches_service_rate():
    engine, cluster, _ = run_generator("spike", users_min=1, users_max=1, hold_s=0.0,
                                       episode_s=300.0)
    engine.run_until(300.0)
    throughput = cluster.requests_completed / 300.0
    assert throughput == pytest.approx(1.0 / 0.0816, rel=0.01)


def test_zero_users_zero_arrivals():
    engine, cluster, _ = run_generator("spike", users_min=0, users_max=0)
    engine.run_until(300.0)
    assert cluster.requests_injected == 0


def test_doubling_users_below_saturation_doubles_throughput():
    # GPU pod with 8 slots: 2 and 4 users are both far from saturation
    _, c1, _ = run_generator("spike", users_min=2, users_max=2, hold_s=0.5)
    _, c2, _ = run_generator("spike", users_min=4, users_max=4, hold_s=0.5)
    c1.engine.run_until(300.0)
    c2.engine.run_until(300.0)
    ratio = c2.requests_completed / c1.requests_completed
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_in_flight_never_exceeds_user_curve_on_monotone_pattern():
    engine, cluster, gen = run_generator("ramp", users_min=2, users_max=20)
    while engine.now < 300.0:
        engine.run_until(min(300.0, engine.now + 0.25))
        assert cluster.outstanding() <= gen.target(engine.now)
        assert gen.active_users() <= gen.target(engine.now)


def test_user_removals_wait_for_inflight_completion():
    # spike drops from u_max back to u_min at t=20; in-flight work finishes
    engine, cluster, gen = run_generator("spike", init_gpu=1, users_min=1, users_max=30,
                                         spike_at_s=10.0, spike_len_s=10.0, hold_s=0.2)
    engine.run_until(19.0)
    assert gen.active_users() == 30
    engine.run_until(21.0)
    assert gen.active_users() == 1
    engine.run_until(40.0)
    # all retired users' requests completed; only one user keeps issuing
    assert cluster.outstanding() <= 1


def test_seeded_generator_reproduces_trace():
    def run():
        engine, cluster, _ = run_generator("random", seed=17, users_min=2, users_max=10)
        completions = []
        cluster.completion_listeners.append(
            lambda r: completions.append((r.id, round(r.completed_at, 9))))
        engine.run_until(120.0)
        return completions

    assert run() == run()


def test_a_request_without_a_user_wakes_no_one():
    engine, cluster, gen = run_generator("spike", users_min=1, users_max=1)
    # not the generator's request; alone on the pod, it completes first, at base time
    stranger = Request(id=1000, arrived_at=0.0)
    cluster.submit(stranger)
    engine.run_until(0.0)                   # user 1 issues request 1
    assert gen.active_users() == 1 and cluster.requests_injected == 2
    scheduled = engine.clock.seq
    engine.run_until(0.09)
    assert stranger.completed_at == 0.0816
    assert engine.clock.seq == scheduled    # nobody was sent to think
    engine.run_until(0.2)                   # user 1's own completion
    assert cluster.requests_completed == 2
    assert engine.clock.seq == scheduled + 1


def test_the_request_path_costs_one_completion_and_one_wake_per_request():
    """Events and completions of a fixed run that queues requests, as measured
    before the Ready index: the count moves if the path gains or loses an event."""
    engine, cluster, gen = run_generator("periodic", seed=5, init_cpu=2, init_gpu=1,
                                         users_min=4, users_max=40, periodic_period_s=60.0,
                                         hold_s=0.1)
    queued = []
    cluster.completion_listeners.append(
        lambda r: queued.append(r.service_started_at > r.arrived_at))
    engine.run_until(120.0)
    assert sum(queued) == 4620                      # most of them waited in a queue
    assert (engine.clock.seq, cluster.requests_completed) == (13716, 6819)
    assert cluster.requests_injected == 6821 and cluster.outstanding() == 2



@pytest.mark.parametrize("hold_s, pin", [(0.0, (15360, 7653)), (3.0, (1858, 868))],
                         ids=["wake_at_its_completion_instant", "users_retired_mid_think"])
def test_a_wake_comes_hold_s_after_its_completion_and_the_run_is_pinned(hold_s, pin):
    """Events and completions of two fixed runs, as measured when wakes shared the
    heap with every other event: at hold_s=0 each wake is due at its completion's
    own instant; at hold_s=3 the falling half of the curve retires thinking users."""
    engine, cluster, gen = run_generator("periodic", seed=5, init_cpu=2, init_gpu=1,
                                         users_min=4, users_max=40, periodic_period_s=60.0,
                                         hold_s=hold_s)
    last_done, thinking, retired_thinking, lags = {}, set(), set(), []

    def arrived(req):
        if req.user in last_done:
            lags.append(engine.now - last_done[req.user])   # the arrival run_until stamps
        thinking.discard(req.user)

    def on_complete(req):
        last_done[req.user] = req.completed_at
        retired_thinking.update(u for u in thinking if u not in gen._active)
        if req.user in gen._active:
            thinking.add(req.user)

    track_arrivals(cluster, arrived)
    cluster.completion_listeners.append(on_complete)
    engine.run_until(120.0)
    assert (engine.clock.seq, cluster.requests_completed) == pin
    assert lags and all(lag == pytest.approx(hold_s, abs=1e-9) for lag in lags)
    assert bool(retired_thinking) == (hold_s > 0)


def test_a_wake_due_before_the_lanes_last_event_is_refused_and_leaves_no_trace():
    engine, cluster, gen = run_generator("spike", users_min=1, users_max=1, hold_s=0.5)
    engine.run_until(0.0)                   # user 1's first request is in service
    engine.clock.seq += 1                   # another request's arrival, due later
    engine.lane.append((50.0, engine.clock.seq, cluster, Request(99, arrived_at=0.0)))
    scheduled = engine.clock.seq
    with pytest.raises(SimulationError, match="before the lane's last event"):
        engine.run_until(1.0)               # the completion at 0.0816 wakes user 1 at 0.5816
    assert engine.clock.seq == scheduled and len(engine.lane) == 1


def test_a_thinking_user_retired_by_sync_is_never_submitted():
    """A user's next request waits in the lane while the user thinks; the sync that
    retires the user withdraws it, leaving the rest of the lane in order."""
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 2)
    cluster.spawn_ready(Pool.GPU, 1)
    gen = LoadGenerator(config(users_min=4, users_max=40, periodic_period_s=60.0, hold_s=3.0),
                        "periodic", 5, engine, cluster)
    sync, retired_thinking, arrivals = gen._sync, set(), []

    def arrived(req):
        assert req.user in gen._active
        assert req.arrived_at == engine.now     # stamped by its arrival
        arrivals.append(req)

    def tracked_sync(now):
        active, thinking = set(gen._active), {e[3].user for e in engine.lane}
        sync(now)
        retired_thinking.update((active - gen._active) & thinking)
        assert {e[3].user for e in engine.lane} <= gen._active
        due = [e[0] for e in engine.lane]
        assert due == sorted(due)

    track_arrivals(cluster, arrived)
    gen._sync = tracked_sync
    gen.start()
    engine.run_until(120.0)
    assert len(retired_thinking) > 10
    assert len(arrivals) == cluster.requests_injected


@pytest.mark.parametrize("hold_s", [0.0, 0.5, 3.0])
def test_no_request_is_injected_at_or_after_the_episode_end(hold_s):
    """A user whose think time ends at or after `episode_s` sends nothing more, so
    nothing waits in the lane for it either."""
    engine, cluster, gen = run_generator("ramp", init_cpu=2, users_min=4, users_max=40,
                                         episode_s=20.0, hold_s=hold_s)
    arrivals = []

    def arrived(req):
        arrivals.append(req.arrived_at)     # stamped by its arrival

    def after_the_wake(req):    # a listener runs once the completion put its wake on the lane
        assert all(e[0] < 20.0 for e in engine.lane)

    track_arrivals(cluster, arrived)
    cluster.completion_listeners.append(after_the_wake)
    engine.run_until(40.0)
    assert arrivals and max(arrivals) < 20.0
    assert not engine.lane and cluster.requests_injected == len(arrivals)
    assert cluster.requests_completed == cluster.requests_injected


# ---- the request lifecycle: one Request per user ----------------------------

def test_a_completed_request_is_its_users_next_arrival_hold_s_later():
    """The object a completion hands to the listeners is the one the user's next arrival
    submits, arriving exactly `hold_s` after it completed: one Request per user."""
    hold_s = 0.5
    engine, cluster, gen = run_generator("ramp", init_cpu=2, users_min=4, users_max=20,
                                         hold_s=hold_s)
    completed, resubmitted, objects = {}, [], {}   # user -> (request, completed_at)

    def arrived(req):
        objects.setdefault(req.user, set()).add(id(req))
        if req.user in completed:
            done, done_at = completed.pop(req.user)
            resubmitted.append((req is done, req.arrived_at == done_at + hold_s))

    def on_complete(req):
        completed[req.user] = (req, req.completed_at)

    track_arrivals(cluster, arrived)
    cluster.completion_listeners.append(on_complete)
    engine.run_until(60.0)
    assert len(objects) == gen.active_users() and all(len(v) == 1 for v in objects.values())
    # every submission but each user's first re-submits the request it completed
    assert len(resubmitted) == cluster.requests_injected - len(objects) > 500
    assert all(same and exact for same, exact in resubmitted)


def test_a_resubmitted_request_that_queues_reads_unstarted_until_it_starts():
    """A user's re-arrival, which `run_until` runs inline, clears its last service's start,
    pod and completion: a request waiting in a pod's queue or the backlog reads
    `service_started_at`, `pod_id` and `completed_at` as None until it starts, and a
    started one has its own start and pod. Only `_route`'s reset clears the first two."""
    engine, cluster, gen = run_generator("spike", init_cpu=1, init_gpu=0, users_min=6,
                                         users_max=6, hold_s=0.1)
    queued, served = [], set()     # served: the users that have completed a request

    def waiting():
        return [r for p in cluster.cpu_pods for r in p.queue] + list(cluster.backlog)

    def arrived(req):
        if req.service_started_at is None:
            queued.append(req.user in served)
        assert all((r.service_started_at, r.pod_id, r.completed_at) == (None, None, None)
                   for r in waiting())

    def on_complete(req):
        served.add(req.user)
        assert req.pod_id == cluster.cpu_pods[0].id
        assert req.arrived_at <= req.service_started_at < req.completed_at == engine.now
        assert all((r.service_started_at, r.pod_id, r.completed_at) == (None, None, None)
                   for r in waiting())

    track_arrivals(cluster, arrived)
    cluster.completion_listeners.append(on_complete)
    engine.run_until(30.0)
    assert sum(queued) > 100    # re-submissions that queued


def test_a_listener_after_the_wake_reads_the_completed_requests_own_fields():
    """A completion logs the request, then only puts it on the lane before it calls the
    listeners: each listener, the first and the last, reads the fields the log took."""
    engine, cluster, gen = run_generator("periodic", seed=5, init_cpu=2, init_gpu=1,
                                         users_min=4, users_max=40, periodic_period_s=60.0,
                                         hold_s=0.1)
    first, after, logged = [], [], []
    cluster.completion_listeners.append(lambda r: first.append(replace(r)))

    def last(req):
        after.append(replace(req))
        logged.append((req.completed_at, req.completed_at - req.arrived_at))
        if req.user in gen._active:     # its wake is on the lane already
            assert engine.lane[-1][3] is req

    cluster.completion_listeners.append(last)
    engine.run_until(120.0)
    assert len(after) > 6000 and after == first
    assert logged == list(zip(cluster.completion_times, cluster.completion_latencies))
    assert all(r.completed_at > r.arrived_at and r.pod_id is not None for r in after)
