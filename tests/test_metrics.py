"""Windowed statistics and utilization synthesis."""

import math

import pytest
from hypothesis import given, strategies as st

from kisim.config import ExperimentConfig
from kisim.metrics import MetricsWindow, UtilizationModel, mean_busy, nearest_rank_p95
from kisim.simcore import (ClusterModel, Engine, PodPhase, Pool, PoolLimits,
                           Request, RoutePref, ServiceModel)


def done(ts, latency):
    """The completion time and latency that `run_until` logs for a request completed at
    ts that arrived `latency` seconds before (to rounding)."""
    req = Request(id=0, arrived_at=ts - latency, completed_at=ts)
    return req.completed_at, req.latency


def empty_window(window_len_s):
    """A window over a completion log of its own, and `record(done(...))` appending to it."""
    times, latencies = [], []

    def record(completion):
        times.append(completion[0])
        latencies.append(completion[1])

    return MetricsWindow(times, latencies, window_len_s), record


def brute_force_p95(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


# ---- p95 ------------------------------------------------------------------

def test_p95_twenty_samples_takes_19th_order_statistic():
    window, record = empty_window(30.0)
    for i in range(19):
        record(done(1.0, 0.1))
    record(done(1.0, 1.0))
    assert window.p95(1.0) == pytest.approx(0.1)


def test_p95_singleton_and_empty():
    window, record = empty_window(30.0)
    assert window.p95(0.0) == 0.0
    record(done(0.5, 0.5))
    assert window.p95(0.5) == pytest.approx(0.5)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=1000))
def test_p95_matches_sort_oracle(latencies):
    window, record = empty_window(1e9)
    completions = [done(1.0, lat) for lat in latencies]
    for completion in completions:
        record(completion)
    assert window.p95(1.0) == brute_force_p95([latency for _, latency in completions])


def test_samples_age_out_of_the_window():
    window, record = empty_window(30.0)
    record(done(10.0, 5.0))
    record(done(35.0, 0.2))
    assert window.p95(35.0) == pytest.approx(5.0)   # 10.0 > 35-30, retained
    assert window.p95(40.5) == pytest.approx(0.2)   # old sample expired
    assert window.throughput(40.5) == pytest.approx(1 / 30.0)


# events of a run: ("done", gap, latency) records a completion and ("query", gap)
# queries the window, each `gap` seconds after the previous event
GAPS = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(min_value=0.0, max_value=40.0)
EVENTS = st.lists(st.tuples(st.just("done"), GAPS, st.floats(min_value=0.0, max_value=5.0))
                  | st.tuples(st.just("query"), GAPS), max_size=200)


@given(EVENTS, st.sampled_from([0.5, 3.0, 30.0]))
def test_window_and_run_queries_match_brute_force_filters(events, window_len):
    window, record = empty_window(window_len)
    log = []
    now = 0.0
    for kind, gap, *latency in events:
        now += gap
        if kind == "done":
            record(done(now, latency[0]))
            log.append(done(now, latency[0]))
            continue
        inside = [lat for ts, lat in log if ts > now - window_len]
        assert window.latencies(now) == inside
        assert window.p95(now) == brute_force_p95(inside)
        assert window.throughput(now) == len(inside) / window_len
    every = [lat for _, lat in log]
    assert window.run_p95() == brute_force_p95(every)
    assert window.run_mean() == (sum(every) / len(every) if every else 0.0)


# ---- throughput --------------------------------------------------------------

def test_throughput_is_completions_over_window():
    window, record = empty_window(30.0)
    for i in range(300):
        record(done(29.9, 0.1))
    assert window.throughput(30.0) == pytest.approx(10.0)
    assert window.throughput(30.0) * window.window_len_s == 300


def test_throughput_empty_window():
    assert empty_window(30.0)[0].throughput(100.0) == 0.0


# ---- utilization ---------------------------------------------------------------

def make_cluster(budget=1):
    engine = Engine()
    cluster = ClusterModel(engine, ServiceModel(), limits=PoolLimits(0, 8, 0, 8),
                           gpu_device_budget=budget, routing_pref=RoutePref.GPU_FIRST)
    return engine, cluster


def occupy(cluster, pool, n):
    pod = cluster.ready_pods(pool)[0]
    for i in range(n):
        cluster.submit(Request(id=1000 + i, arrived_at=cluster.engine.now))
    return pod


def test_mean_busy_averages_the_ready_pods_of_one_pool():
    engine, cluster = make_cluster()
    assert mean_busy(cluster, Pool.CPU) == 0.0           # no Ready pod
    cluster.spawn_ready(Pool.CPU, 3)
    cluster.spawn_ready(Pool.GPU, 1)
    cpu = list(cluster.ready_pods(Pool.CPU))
    cpu[0].in_service = 2
    cpu[1].in_service = 1
    cpu[2].in_service = 2
    cluster.set_desired_replicas(Pool.CPU, 2)            # the newest Ready pod goes
    assert cpu[2].phase is PodPhase.TERMINATING          # draining, not Ready: left out
    assert cpu[2] in cluster.cpu_pods and cpu[2].in_service == 2
    assert mean_busy(cluster, Pool.CPU) == (2 / 2 + 1 / 2) / 2
    assert mean_busy(cluster, Pool.GPU) == 0.0


def test_gpu_utilization_levels():
    engine, cluster = make_cluster()
    model = UtilizationModel(ExperimentConfig())
    assert model.gpu_utilization(cluster) == 0.0
    cluster.spawn_ready(Pool.GPU, 1)
    occupy(cluster, Pool.GPU, 8)
    assert model.gpu_utilization(cluster) == pytest.approx(1.0)


def test_gpu_utilization_half_busy():
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.GPU, 1)
    occupy(cluster, Pool.GPU, 4)
    assert UtilizationModel(ExperimentConfig()).gpu_utilization(cluster) == pytest.approx(0.5)


def test_cpu_utilization_idle_and_busy_endpoints():
    model = UtilizationModel(ExperimentConfig(memory_pods=0))
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 3)
    assert model.cpu_mem_utilization(cluster) == pytest.approx(3 * 715 / 16000)
    for pod in cluster.cpu_pods:
        pod.in_service = pod.concurrency_cap
    assert model.cpu_mem_utilization(cluster) == pytest.approx(3 * 1062 / 16000)


def test_no_pods_reports_only_memory_pod_millicores():
    model = UtilizationModel(ExperimentConfig())
    engine, cluster = make_cluster()
    assert model.cpu_mem_utilization(cluster) == pytest.approx(3 * 3.0 / 16000)


def test_cpu_utilization_sums_the_ready_pods_of_both_pools_one_by_one():
    """One float, the bits of the pod-by-pod sum; a draining pod adds nothing."""
    cfg = ExperimentConfig()
    model = UtilizationModel(cfg)
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 4)
    cluster.spawn_ready(Pool.GPU, 1)
    for pod, busy in zip(cluster.cpu_pods, (0, 1, 2, 2)):
        pod.in_service = busy
    cluster.gpu_pods[0].in_service = 3
    cluster.set_desired_replicas(Pool.CPU, 3)            # the newest Ready pod drains
    assert cluster.cpu_pods[3].phase is PodPhase.TERMINATING
    millicores = cfg.memory_pods * cfg.memory_pod_millicores
    for pod in cluster.cpu_pods[:3]:
        millicores += cfg.cpu_pod_idle_millicores + pod.in_service / pod.concurrency_cap * (
            cfg.cpu_pod_busy_millicores - cfg.cpu_pod_idle_millicores)
    gpu = cluster.gpu_pods[0]
    millicores += cfg.gpu_pod_idle_millicores + gpu.in_service / gpu.concurrency_cap * (
        cfg.gpu_pod_busy_millicores - cfg.gpu_pod_idle_millicores)
    util = model.cpu_mem_utilization(cluster)
    assert type(util) is float and util.hex() == (millicores / cfg.node_millicores).hex()


def test_all_utilizations_bounded():
    model = UtilizationModel(ExperimentConfig(node_millicores=100.0))  # tiny node saturates
    engine, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 5)
    assert 0.0 <= model.cpu_mem_utilization(cluster) <= 1.0
