import pytest

from kisim.agent import PpoAgent
from kisim.baselines import run_baseline
from kisim.cli import run_policy_episode
from kisim.config import ExperimentConfig
from kisim.env import ActionTriple, ScalingEnv
from kisim.nn import NetDims


@pytest.mark.parametrize("interval", [11.0, 13.0, 15.0])
def test_policy_episode_runs_to_episode_end_like_a_baseline(interval):
    cfg = ExperimentConfig(control_interval_s=interval)
    agent = PpoAgent(NetDims(hidden1=16, hidden2=16), cfg, seed=0)
    kis_rows: list[dict] = []
    run_policy_episode(agent, "ramp", cfg, traffic_seed=5, timeseries=kis_rows)
    base_rows: list[dict] = []
    run_baseline("fixed_cpu", "ramp", cfg, traffic_seed=5, timeseries=base_rows)
    assert kis_rows[-1]["t"] == cfg.episode_s
    assert len(kis_rows) == len(base_rows)
    assert [r["t"] for r in kis_rows] == [r["t"] for r in base_rows]


@pytest.mark.parametrize("interval", [11.0, 13.0, 15.0])
def test_observations_stay_in_unit_interval_through_the_last_step(interval):
    cfg = ExperimentConfig(control_interval_s=interval)
    env = ScalingEnv(cfg)
    obs = env.reset_to("spike", 5)
    vectors = [obs.as_vector()]
    done = False
    while not done:
        obs, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=1, pref=1))
        vectors.append(obs.as_vector())
    assert env.stack.engine.now == cfg.episode_s
    assert vectors[-1][8] == 1.0          # t_norm reaches exactly 1
    for vec in vectors:
        assert ((vec >= 0.0) & (vec <= 1.0)).all(), vec


@pytest.mark.parametrize("interval, steps", [(15.0, 20), (1.0, 300)])
def test_step_count_for_default_and_dense_control(interval, steps):
    env = ScalingEnv(ExperimentConfig(control_interval_s=interval,
                                      users_min=1, users_max=5))
    env.reset(0)
    done = False
    count = 0
    while not done:
        _, _, done = env.step(ActionTriple(d_gpu=0, d_cpu=0, pref=0))
        count += 1
    assert count == steps
