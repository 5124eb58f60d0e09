"""Route-outcome classification and the probe's install/restore contract."""

from kisim.simcore import (ClusterModel, Engine, PoolLimits, Pool, Request, RoutePref,
                           ServiceModel)

from probe import Probe, classify_route
from tracer import Tracer


def make_cluster():
    engine = Engine()
    cluster = ClusterModel(engine, ServiceModel(cpu_cap=2),
                           limits=PoolLimits(cpu_min=0, cpu_max=4, gpu_min=0, gpu_max=2),
                           routing_pref=RoutePref.CPU_FIRST)
    return engine, cluster


def test_submit_outcomes_direct_then_queued():
    _, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 1)   # one ready pod with two slots
    outcomes = []
    for i in range(3):
        req = Request(id=i, arrived_at=0.0)
        cluster.submit(req)
        outcomes.append(classify_route(cluster, req))
    assert outcomes == ["direct", "direct", "queued"]


def test_submit_without_a_ready_pod_goes_to_the_backlog():
    _, cluster = make_cluster()
    cluster.set_desired_replicas(Pool.CPU, 1)   # starting, not ready yet
    requests = [Request(id=i, arrived_at=0.0) for i in range(2)]
    outcomes = []
    for req in requests:
        cluster.submit(req)
        outcomes.append(classify_route(cluster, req))
    assert outcomes == ["backlog", "backlog"]
    assert list(cluster.backlog) == requests


def test_traced_probe_counts_routes_and_restores_kisim():
    original = ClusterModel.submit
    _, cluster = make_cluster()
    cluster.spawn_ready(Pool.CPU, 1)
    with Probe(Tracer()) as probe:
        assert ClusterModel.submit is not original
        for i in range(3):
            cluster.submit(Request(id=i, arrived_at=0.0))
    assert ClusterModel.submit is original
    assert probe.routes == {"direct": 2, "queued": 1, "backlog": 0}
    assert probe.tracer.stat("simcore.submit").count == 3
    assert cluster.requests_injected == 3
