"""Operational laws of the whole stack, exact to float rounding.

A bare `SimStack` is stepped from event instant to event instant, each the earlier
head of the engine's heap and lane, so the cluster's state is constant between two
instants and its time integrals are sums over those segments:

- Little's law: the time integral of `outstanding()` over [0, T] is the time the
  submitted requests spent in the system up to T;
- the utilization law, per pool: the time integral of the requests in service on the
  pool's pods is the service time its requests received up to T;
- the interactive response-time law: each user spends the time from its spawn to T, or
  to its retirement instant if it retires first, in its requests' residence or in think
  time, each cut at that end, so N users who never retire spend N * T.

The same runs check the asymptotic bounds of operational analysis (Denning and Buzen,
1978; Lazowska et al., 1984, ch. 5), which hold for any queueing discipline, with
s_min = `base_service_s`, the service time of a request that starts alone on its pod:

- every response time is at least s_min;
- on a fixed deployment, the C completions in [0, T] satisfy C * s_min <= T * the slots
  of the Ready pods, since busy slot-seconds never exceed the slots' time;
- for N users who never retire, with think time Z = `hold_s`, C * (Z + s_min) <= N * (T + Z):
  each completion but a user's last is followed by a think of Z, clipped at T.

Each bound is asserted within the relative `REL` of the laws, not strictly: a response
time, `completed_at - arrived_at`, is a difference of two clock readings, so a request
served alone in exactly s_min can read below it by an ulp of the clock (near T = 300 s,
about 6e-14 s). Each of the twelve fixed deployments below has such a response time.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from kisim.agent import PpoAgent
from kisim.baselines import HpaController
from kisim.config import ExperimentConfig
from kisim.env import ACTIONS, ScalingEnv, SimStack
from kisim.simcore import PodPhase, Pool
from kisim.traffic import PATTERN_NAMES
from test_traffic import track_arrivals

REL = 1e-9


def run_to_the_end(stack, retired_at=None):
    """Step `stack` to `episode_s` instant by instant. Returns every request submitted,
    the integrals of outstanding() and of each pool's requests in service, the pool of
    every pod seen, every (pod id, phase) seen and the longest backlog seen. A dict
    `retired_at` gets the instant each user that retires leaves the generator's users.

    A user re-submits its one Request, so each submission is returned as a copy of its
    own fields: taken at its completion, or at the end for one still in flight."""
    cluster, engine, end = stack.cluster, stack.engine, stack.config.episode_s
    users, active = stack.generator._active, set()
    submitted, in_flight = [], {}   # in_flight: id() of a live request -> its submission

    def collect(request):
        in_flight[id(request)] = len(submitted)
        submitted.append(request)

    def keep(request):      # a listener reads the completed request's own fields
        submitted[in_flight.pop(id(request))] = replace(request)

    track_arrivals(cluster, collect)
    cluster.completion_listeners.append(keep)
    outstanding, in_service = 0.0, dict.fromkeys(Pool, 0.0)
    pool_of, phases_seen, backlog = {}, set(), 0
    now = engine.now
    while now < end:
        heads = [queue[0][0] for queue in (engine.heap, engine.lane) if queue]
        nxt = min(heads + [end])
        span = nxt - now
        outstanding += cluster.outstanding() * span
        backlog = max(backlog, len(cluster.backlog))
        for pool in Pool:
            pods = cluster.pods(pool)
            in_service[pool] += sum(p.in_service for p in pods) * span
            for p in pods:
                pool_of[p.id] = pool
                phases_seen.add((p.id, p.phase))
        engine.run_until(nxt)
        now = nxt
        if retired_at is not None and users != active:
            retired_at.update(dict.fromkeys(active - users, now))
            active = set(users)
    for i in in_flight.values():
        submitted[i] = replace(submitted[i])
    return submitted, outstanding, in_service, pool_of, phases_seen, backlog


def assert_every_response_takes_s_min(stack, submitted):
    s_min = stack.config.base_service_s
    assert min(r.completed_at - r.arrived_at for r in submitted
               if r.completed_at is not None) >= s_min * (1 - REL)


def assert_the_fixed_deployment_bound_holds(stack):
    """C * s_min <= T * the slots of the Ready pods, on a deployment no policy moved."""
    cluster, cfg = stack.cluster, stack.config
    slots = sum(p.concurrency_cap for pool in Pool for p in cluster.ready_pods(pool))
    assert cluster.requests_completed * cfg.base_service_s <= cfg.episode_s * slots * (1 + REL)


def assert_the_laws_hold(stack):
    """Run `stack` to its end, check both laws; returns what `run_to_the_end` saw."""
    submitted, outstanding, in_service, *seen = run_to_the_end(stack)
    end = stack.config.episode_s
    assert submitted and stack.cluster.requests_completed > 0
    assert len(submitted) == stack.cluster.requests_injected

    def until_end(t):
        return end if t is None else min(t, end)

    in_system = math.fsum(until_end(r.completed_at) - r.arrived_at for r in submitted)
    assert_every_response_takes_s_min(stack, submitted)
    assert outstanding == pytest.approx(in_system, rel=REL)
    for pool in Pool:
        served = math.fsum(until_end(r.completed_at) - r.service_started_at for r in submitted
                           if r.service_started_at is not None and seen[0][r.pod_id] is pool)
        assert in_service[pool] == pytest.approx(served, rel=REL, abs=0.0)
    return submitted, *seen


@pytest.mark.parametrize("pattern, pods", itertools.product(PATTERN_NAMES,
                                                            [(3, 0), (0, 1), (6, 1)]))
def test_littles_law_and_the_utilization_law_hold_over_an_episode(pattern, pods):
    stack = SimStack(ExperimentConfig(), pattern, traffic_seed=11, init_cpu=pods[0],
                     init_gpu=pods[1])
    submitted, pool_of, _, _ = assert_the_laws_hold(stack)
    assert_the_fixed_deployment_bound_holds(stack)
    assert {pool_of[r.pod_id] for r in submitted if r.pod_id is not None} == \
        {pool for pool, n in zip((Pool.CPU, Pool.GPU), pods) if n}


def test_the_laws_hold_through_drains_and_a_promoted_standby():
    stack = SimStack(ExperimentConfig(), "spike", traffic_seed=11, init_cpu=6, init_gpu=1)
    cluster, schedule = stack.cluster, stack.engine.schedule
    first_gpu = cluster.gpu_pods[0].id
    schedule(110.0, cluster.set_desired_replicas, Pool.CPU, 0)   # the CPU pods drain
    schedule(115.0, cluster.set_desired_replicas, Pool.GPU, 0)   # the GPU pod drains ...
    schedule(115.0, cluster.set_desired_replicas, Pool.GPU, 1)   # ... its successor waits
    schedule(150.0, cluster.set_desired_replicas, Pool.CPU, 5)
    submitted, pool_of, phases, backlog = assert_the_laws_hold(stack)

    standby = max(i for i, pool in pool_of.items() if pool is Pool.GPU)
    assert standby != first_gpu
    assert {(standby, PodPhase.PENDING), (standby, PodPhase.READY)} <= phases
    assert (first_gpu, PodPhase.TERMINATING) in phases
    assert any(r.pod_id == standby for r in submitted)
    assert sum(phase is PodPhase.TERMINATING and pool_of[i] is Pool.CPU
               for i, phase in phases) == 6
    assert backlog > 0      # no pod was Ready from the GPU drain to the standby's start-up


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_the_laws_hold_under_a_seeded_policy_plan(pattern):
    env = ScalingEnv(ExperimentConfig())
    env.reset_to(pattern, traffic_seed=11)
    actions = list(ACTIONS.values())
    plan = [actions[i] for i in np.random.default_rng(6).integers(len(actions), size=20)]
    for k, action in enumerate(plan):
        env.stack.engine.schedule(k * env.config.control_interval_s, env.decode_and_apply,
                                  action)
    _, pool_of, phases, _ = assert_the_laws_hold(env.stack)
    for pool in Pool:
        assert {PodPhase.STARTING, PodPhase.TERMINATING} <= \
            {phase for i, phase in phases if pool_of[i] is pool}


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_the_laws_hold_under_hpa_syncs(pattern):
    """HPA syncs as `run_baseline` runs it, one controller keeping its stabilization
    window. On each pattern it starts 5 CPU pods and drains none, since its 300 s
    stabilization window spans the whole episode."""
    cfg = ExperimentConfig()
    env = ScalingEnv(replace(cfg, control_interval_s=cfg.hpa_sync_period_s))
    env.reset_to(pattern, traffic_seed=11)
    hpa = HpaController(env.config)

    def sync(k):
        env.step_index = k
        hpa.act(None, env)

    interval = env.config.control_interval_s
    for k in range(1, 20):
        env.stack.engine.schedule(k * interval, sync, k)
    _, pool_of, phases, _ = assert_the_laws_hold(env.stack)
    assert PodPhase.STARTING in {phase for i, phase in phases if pool_of[i] is Pool.CPU}


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_the_laws_hold_under_a_greedy_kiscaler(pattern):
    """A fresh agent whose greedy policy starts CPU pods and leaves GPU pods Pending in
    every pattern. Which one does follows the init weights: at seed 0 the ramp policy
    only scales CPU down, so seed 3, the first that covers both phases in all four."""
    env = ScalingEnv(ExperimentConfig())
    env.reset_to(pattern, traffic_seed=11)
    agent = PpoAgent(seed=3)

    def act():
        env.decode_and_apply(agent.greedy_action(env.observe()))

    for k in range(20):
        env.stack.engine.schedule(k * env.config.control_interval_s, act)
    _, pool_of, phases, _ = assert_the_laws_hold(env.stack)
    assert PodPhase.STARTING in {phase for i, phase in phases if pool_of[i] is Pool.CPU}
    assert PodPhase.PENDING in {phase for i, phase in phases if pool_of[i] is Pool.GPU}


RESPONSE_TIME_CASES = [
    (pattern, pods, users, hold_s) for (pods, users, hold_s), pattern in zip(
        itertools.product([(3, 0), (0, 1), (6, 1)], [1, 5, 50], [0.5, 3.0]),
        itertools.cycle(PATTERN_NAMES))]


@pytest.mark.parametrize("pattern, pods, users, hold_s", RESPONSE_TIME_CASES, ids=[
    f"{pattern}-{cpu}cpu{gpu}gpu-{users}users-hold{hold_s}"
    for pattern, (cpu, gpu), users, hold_s in RESPONSE_TIME_CASES])
def test_the_interactive_response_time_law_holds_for_users_who_never_retire(
        pattern, pods, users, hold_s):
    """With users_min = users_max = N every pattern holds N users from t = 0 and none
    retires. A user's next request arrives `hold_s` after its last one completes, or
    none does before T, so its requests' residence and its think times tile [0, T]."""
    cfg = replace(ExperimentConfig(), users_min=users, users_max=users, hold_s=hold_s)
    stack = SimStack(cfg, pattern, traffic_seed=11, init_cpu=pods[0], init_gpu=pods[1])
    submitted = run_to_the_end(stack)[0]
    end = cfg.episode_s
    assert stack.generator.active_users() == users
    assert {r.user for r in submitted if r.arrived_at == 0.0} == set(range(1, users + 1))

    def until_end(t):
        return end if t is None else min(t, end)

    spent = {uid: [] for uid in range(1, users + 1)}    # residence and think times
    for r in submitted:
        spent[r.user].append(until_end(r.completed_at) - r.arrived_at)
        if r.completed_at is not None and r.completed_at < end:
            spent[r.user].append(min(r.completed_at + hold_s, end) - r.completed_at)
    assert users * end == pytest.approx(math.fsum(map(math.fsum, spent.values())), rel=REL)
    assert all(math.fsum(times) == pytest.approx(end, rel=REL) for times in spent.values())
    assert_every_response_takes_s_min(stack, submitted)
    assert_the_fixed_deployment_bound_holds(stack)
    completed = stack.cluster.requests_completed
    assert completed * (hold_s + cfg.base_service_s) <= users * (end + hold_s) * (1 + REL)


@pytest.mark.parametrize("pattern", ["periodic", "random", "spike"])
def test_the_interactive_response_time_law_holds_for_users_who_retire(pattern):
    """Surplus users retire, one with a request in flight among them, and a retired
    user's pending arrival is withdrawn. So each user's requests' residence and its
    think times, each cut at the end of its time min(retirement instant, T), tile the
    time from its spawn, its first request's arrival, to that end."""
    stack = SimStack(ExperimentConfig(), pattern, traffic_seed=11, init_cpu=3, init_gpu=1)
    retired_at: dict[int, float] = {}
    submitted = run_to_the_end(stack, retired_at)[0]
    hold_s, end = stack.config.hold_s, stack.config.episode_s
    users: dict[int, list] = {}
    for r in submitted:
        users.setdefault(r.user, []).append(r)
    ends = {uid: min(retired_at.get(uid, end), end) for uid in users}
    assert retired_at and set(retired_at) <= set(users)
    assert any(r.arrived_at < retired_at[r.user] < (r.completed_at or math.inf)
               for r in submitted if r.user in retired_at)    # retired in flight

    def cut(uid, t):
        return ends[uid] if t is None else min(t, ends[uid])

    spawned, spent = {}, {}
    for uid, requests in users.items():
        spawned[uid] = requests[0].arrived_at
        spent[uid] = [cut(uid, r.completed_at) - r.arrived_at for r in requests]
        spent[uid] += [cut(uid, r.completed_at + hold_s) - r.completed_at for r in requests
                       if r.completed_at is not None and r.completed_at < ends[uid]]
    assert all(r.arrived_at <= ends[r.user] for r in submitted)
    assert all(math.fsum(spent[uid]) == pytest.approx(ends[uid] - spawned[uid], rel=REL)
               for uid in users)
    assert math.fsum(map(math.fsum, spent.values())) == \
        pytest.approx(math.fsum(ends[uid] - spawned[uid] for uid in users), rel=REL)
