import pytest

from kisim.agent import PpoAgent
from kisim.baselines import POLICY_NAMES, HpaController, hpa_decide, run_baseline
from kisim.cli import run_policy_episode
from kisim.config import ConfigError, ExperimentConfig
from kisim.env import SimStack
from kisim.nn import NetDims
from kisim.traffic import PATTERN_NAMES


def test_hpa_holds_inside_tolerance_band_and_scales_outside_it():
    cfg = ExperimentConfig(hpa_target_cpu_util=0.5, hpa_tolerance=0.1)
    assert hpa_decide(4, 0.54, cfg) == 4        # |0.54/0.5 - 1| = 0.08
    assert hpa_decide(4, 0.46, cfg) == 4
    assert hpa_decide(4, 0.6, cfg) == 5         # ceil(4 * 1.2)
    assert hpa_decide(4, 0.3, cfg) == 3         # ceil(4 * 0.6)
    assert hpa_decide(4, 1.0, cfg) == cfg.hpa_max_replicas
    assert hpa_decide(4, 0.0, cfg) == cfg.hpa_min_replicas


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
    """Check conservation and the GPU budget at every time-series row, i.e.
    after every control step; returns the list of checked instants."""
    seen = []
    original = SimStack.row

    def row(stack):
        cluster = stack.cluster
        assert cluster.requests_injected == \
            cluster.requests_completed + cluster.outstanding()
        assert cluster.active_gpu_count() <= cluster.gpu_device_budget
        seen.append(stack.engine.now)
        return original(stack)

    monkeypatch.setattr(SimStack, "row", row)
    return seen


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_baseline_conserves_requests_within_gpu_budget(policy, pattern, checked_steps):
    cfg = ExperimentConfig()
    report = run_baseline(policy, pattern, cfg, traffic_seed=3, timeseries=[])
    interval = cfg.hpa_sync_period_s if policy == "hpa" else cfg.control_interval_s
    assert len(checked_steps) == round(cfg.episode_s / interval)
    assert checked_steps[-1] == cfg.episode_s
    assert report["requests_completed"] > 0


def test_policy_episode_conserves_requests_within_gpu_budget(checked_steps):
    cfg = ExperimentConfig()
    agent = PpoAgent(NetDims(hidden1=16, hidden2=16), cfg, seed=0)
    report = run_policy_episode(agent, "spike", cfg, traffic_seed=3, timeseries=[])
    assert len(checked_steps) == round(cfg.episode_s / cfg.control_interval_s)
    assert report["requests_completed"] > 0
