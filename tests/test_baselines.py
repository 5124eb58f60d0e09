import gc
import hashlib
import json
import weakref

import pytest

from kisim.agent import PpoAgent
from kisim.baselines import POLICY_NAMES, HpaController, hpa_decide, run_baseline
from kisim.cli import run_policy_episode
from kisim.config import ConfigError, ExperimentConfig
from kisim.env import SimStack
from kisim.nn import NetDims
from kisim.simcore import ClusterModel, PodPhase, Pool
from kisim.traffic import PATTERN_NAMES


def test_hpa_holds_inside_tolerance_band_and_scales_outside_it():
    cfg = ExperimentConfig(hpa_target_cpu_util=0.5, hpa_tolerance=0.1)
    assert hpa_decide(4, 0.54, cfg) == 4        # |0.54/0.5 - 1| = 0.08
    assert hpa_decide(4, 0.46, cfg) == 4
    assert hpa_decide(4, 0.6, cfg) == 5         # ceil(4 * 1.2)
    assert hpa_decide(4, 0.3, cfg) == 3         # ceil(4 * 0.6)
    assert hpa_decide(4, 1.0, cfg) == cfg.cpu_max
    assert hpa_decide(4, 0.0, cfg) == cfg.cpu_min


def test_hpa_scales_the_cpu_pool_within_its_bounds():
    """Under a ramp to 50 users HPA wants every CPU pod it may have, and no more
    than the bounds KIScaler is held to."""
    cfg = ExperimentConfig(cpu_max=2, init_cpu=2)
    rows: list[dict] = []
    run_baseline("hpa", "ramp", cfg, traffic_seed=3, timeseries=rows)
    assert max(row["cpu_replicas"] for row in rows) == 2


def test_hpa_first_syncs_one_period_in_and_each_row_precedes_its_sync(monkeypatch):
    """HPA leaves t=0 alone. Its t=15 row shows the three init pods that its first
    sync then sheds, since a row is the state at its instant before the policy acts."""
    synced = []
    original = ClusterModel.set_desired_replicas

    def set_desired_replicas(cluster, pool, count):
        synced.append((cluster.engine.now, pool, count))
        original(cluster, pool, count)

    monkeypatch.setattr(ClusterModel, "set_desired_replicas", set_desired_replicas)
    cfg = ExperimentConfig()
    rows: list[dict] = []
    run_baseline("hpa", "ramp", cfg, traffic_seed=3, timeseries=rows)
    assert (rows[0]["t"], rows[0]["cpu_replicas"]) == (cfg.hpa_sync_period_s, cfg.init_cpu)
    assert synced[0] == (cfg.hpa_sync_period_s, Pool.CPU, 1)     # the first call of all
    assert rows[1]["cpu_replicas"] == 1


def test_a_zero_delta_leaves_a_pool_outside_its_bounds():
    """A fixed policy never moves a pool: fixed_cpu keeps 8 Ready pods above
    cpu_max = 6, and fixed_gpu keeps no CPU pod under cpu_min = 1."""
    cfg = ExperimentConfig(fixed_cpu_replicas=8)
    assert (cfg.cpu_min, cfg.cpu_max) == (1, 6)
    for policy, cpu_pods in (("fixed_cpu", 8), ("fixed_gpu", 0)):
        rows: list[dict] = []
        run_baseline(policy, "spike", cfg, traffic_seed=3, timeseries=rows)
        assert [row["cpu_replicas"] for row in rows] == [cpu_pods] * 20


def test_hpa_stabilization_window_delays_scale_down():
    ctl = HpaController(ExperimentConfig(hpa_stabilization_down_s=60.0))
    assert ctl.decide(0.0, 4, 0.75) == 6        # scale up at once
    # A dip inside the window keeps the highest recent recommendation.
    assert ctl.decide(15.0, 6, 0.1) == 6
    assert ctl.decide(45.0, 6, 0.1) == 6
    # Once the t=0 recommendation ages out, the dip is honoured.
    assert ctl.decide(61.0, 6, 0.1) == 2


def test_negative_hpa_tolerance_is_a_config_error():
    with pytest.raises(ConfigError, match="hpa_tolerance"):
        ExperimentConfig(hpa_tolerance=-0.1)


@pytest.fixture
def checked_steps(monkeypatch):
    """Check conservation, the GPU budget and that each pool's desired count
    is its number of non-terminating pods at every time-series row, i.e.
    after every control step; returns the list of checked instants."""
    seen = []
    original = SimStack.row

    def row(stack):
        cluster = stack.cluster
        assert cluster.requests_injected == \
            cluster.requests_completed + cluster.outstanding()
        assert cluster.active_gpu_count() <= cluster.gpu_device_budget
        for pool in (Pool.CPU, Pool.GPU):
            assert cluster.desired(pool) == sum(p.phase is not PodPhase.TERMINATING
                                                for p in cluster.pods(pool))
        seen.append(stack.engine.now)
        return original(stack)

    monkeypatch.setattr(SimStack, "row", row)
    return seen


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
@pytest.mark.parametrize("policy", ("kiscaler",) + POLICY_NAMES)
def test_baseline_conserves_requests_within_gpu_budget(policy, pattern, checked_steps):
    cfg = ExperimentConfig()
    if policy == "kiscaler":
        agent = PpoAgent(NetDims(hidden1=16, hidden2=16), cfg, seed=0)
        report = run_policy_episode(agent, pattern, cfg, traffic_seed=3, timeseries=[])
    else:
        report = run_baseline(policy, pattern, cfg, traffic_seed=3, timeseries=[])
    interval = cfg.hpa_sync_period_s if policy == "hpa" else cfg.control_interval_s
    # one row per observation: the reset at t=0, then one after every step
    assert checked_steps == [k * interval for k in range(21)]
    assert report["requests_completed"] > 0


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_the_traffic_seed_moves_only_the_random_pattern(pattern):
    """Only `random` draws from the traffic seed; no other part of the stack reads it."""
    runs = []
    for seed in (3, 4):
        rows: list[dict] = []
        report = run_baseline("hpa", pattern, ExperimentConfig(episode_s=60.0),
                              traffic_seed=seed, timeseries=rows)
        assert report.pop("traffic_seed") == seed
        runs.append((report, rows))
    assert (runs[0] == runs[1]) == (pattern != "random")


def test_baseline_runs_reproduce_their_pinned_bytes():
    """Any change to event order, timing or metrics moves this digest."""
    cfg = ExperimentConfig(episode_s=60.0)
    runs: list = []
    for pattern in PATTERN_NAMES:
        for policy in POLICY_NAMES:
            rows: list[dict] = []
            report = run_baseline(policy, pattern, cfg, traffic_seed=42, timeseries=rows)
            runs += [report, rows]
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "06b2208955bf32fc"


def test_a_finished_run_is_freed_without_the_cyclic_gc(monkeypatch):
    """Nothing a finished run leaves points back at its SimStack, so reference
    counting frees it the moment the run returns."""
    stacks = []
    original = SimStack.__init__

    def init(stack, *args, **kwargs):
        original(stack, *args, **kwargs)
        stacks.append(weakref.ref(stack))

    monkeypatch.setattr(SimStack, "__init__", init)
    cfg = ExperimentConfig(episode_s=30)
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), cfg)
    gc.collect()
    gc.disable()
    try:
        run_baseline("hpa", "ramp", cfg, traffic_seed=3)
        run_policy_episode(agent, "spike", cfg, traffic_seed=3)
        assert len(stacks) == 2
        assert [ref() for ref in stacks] == [None, None]
    finally:
        gc.enable()
