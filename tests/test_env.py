import hashlib
import itertools
import json
import math
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kisim.agent import PpoAgent
from kisim.baselines import run_baseline
from kisim.config import ExperimentConfig
from kisim.env import (DELTAS, OBS_FIELDS, REWARD_TERMS, TIMESERIES_FIELDS, ActionTriple,
                       EpisodeFinished, ScalingEnv, SimStack, episode_traffic,
                       run_policy_episode, trace_line)
from kisim.nn import NetDims
from kisim.simcore import RoutePref, SimulationError
from kisim.traffic import PATTERN_NAMES


@pytest.mark.parametrize("interval", [11.0, 13.0, 15.0, 0.7, 2.3, 7.7])
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


def test_a_policy_of_a_few_lines_runs_and_reports_under_its_own_name():
    class Hold:
        """Two CPU pods and one GPU pod from t=0, routed GPU-first."""
        name, pods = "hold", (2, 1)

        def act(self, obs, env):
            return ActionTriple(d_gpu=0, d_cpu=0, pref=1)

    rows: list[dict] = []
    report = run_policy_episode(Hold(), "spike", ExperimentConfig(episode_s=60.0), 3, rows)
    assert report["policy"] == "hold" and report["requests_completed"] > 0
    assert [(r["t"], r["cpu_replicas"], r["gpu_replicas"]) for r in rows] == \
        [(15.0, 2, 1), (30.0, 2, 1), (45.0, 2, 1), (60.0, 2, 1)]


@pytest.mark.parametrize("interval", [11.0, 13.0, 15.0])
def test_observations_stay_in_unit_interval_through_the_last_step(interval):
    cfg = ExperimentConfig(control_interval_s=interval)
    env = ScalingEnv(cfg)
    obs = env.reset_to("spike", 5)
    vectors = [obs]
    done = False
    while not done:
        obs, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=1, pref=1))
        vectors.append(obs)
    assert env.stack.engine.now == cfg.episode_s
    assert vectors[-1][8] == 1.0          # t_norm reaches exactly 1
    for vec in vectors:
        assert ((vec >= 0.0) & (vec <= 1.0)).all(), vec


@pytest.mark.parametrize("interval, steps", [(15.0, 20), (1.0, 300)])
def test_step_count_for_default_and_dense_control(interval, steps):
    env = ScalingEnv(ExperimentConfig(control_interval_s=interval,
                                      users_min=1, users_max=5))
    env.reset_to(*episode_traffic(env.config.seed, 0))
    done = False
    count = 0
    while not done:
        _, _, done = env.step(ActionTriple(d_gpu=0, d_cpu=0, pref=0))
        count += 1
    assert count == steps


@pytest.mark.parametrize("p_idx", range(len(PATTERN_NAMES)))
def test_eval_index_reset_picks_the_pattern_at_its_offset(p_idx):
    cfg = ExperimentConfig(episode_s=5.0)
    index = ScalingEnv.EVAL_INDEX_BASE + len(PATTERN_NAMES) * 3 + p_idx
    env = ScalingEnv(cfg)
    env.reset_to(*episode_traffic(cfg.seed, index))
    assert env.pattern == PATTERN_NAMES[p_idx]
    assert env.stack.generator.seed == episode_traffic(cfg.seed, index)[1]


def test_step_outside_an_episode_is_episode_finished():
    env = ScalingEnv(ExperimentConfig(episode_s=30.0))
    hold = ActionTriple(d_gpu=0, d_cpu=0, pref=0)
    with pytest.raises(EpisodeFinished):
        env.step(hold)
    env.reset_to("ramp", 3)
    assert env.step(hold)[2] is False
    assert env.step(hold)[2] is True
    with pytest.raises(EpisodeFinished):
        env.step(hold)
    env.reset_to("spike", 3)
    assert env.step(hold)[2] is False


def test_pattern_follows_each_reset_across_episodes():
    env = ScalingEnv(ExperimentConfig(episode_s=15.0))
    for i, pattern in enumerate(["spike", "ramp", "ramp", "periodic", "random"]):
        env.reset_to(pattern, i)
        assert env.pattern == pattern
        env.step(ActionTriple(d_gpu=0, d_cpu=0, pref=0))
        assert env.pattern == pattern


def test_a_row_holds_the_time_series_fields_in_order():
    env = ScalingEnv(ExperimentConfig(episode_s=30.0))
    env.reset_to("ramp", 3)
    env.step(ActionTriple(d_gpu=0, d_cpu=1, pref=0))
    assert tuple(env.stack.row()) == TIMESERIES_FIELDS


def test_each_observation_reads_the_row_of_its_step():
    cfg = ExperimentConfig(episode_s=90.0)
    assert len(OBS_FIELDS) == NetDims(hidden1=cfg.hidden1, hidden2=cfg.hidden2).obs_dim
    env = ScalingEnv(cfg)
    obs = env.reset_to("periodic", 7)
    done = False
    while True:
        fields = dict(zip(OBS_FIELDS, obs))
        assert fields["t_norm"] * cfg.episode_s == env.row["t"] == env.stack.engine.now
        assert fields["u_gpu"] == env.row["gpu_util"]
        assert fields["u_cpu"] == env.row["cpu_util"]
        assert fields["u_mem"] == env.row["mem_util"]
        if done:
            break
        obs, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=-1, pref=1))


# every weight off its default, the smoothness term (off by default) switched on
REWARD_CFG = ExperimentConfig(reward_alpha=0.7, reward_beta=0.3, reward_gamma=0.45,
                              reward_delta=0.2, hold_s=0.25, episode_s=120.0)


@pytest.mark.parametrize("desired, overhead", [((0, 1), 0.0), ((2, 6), 4 / 9), ((3, 12), 1.0)])
def test_each_reward_term_is_its_formula_at_non_default_weights(desired, overhead):
    """A characterization of the reward as it stands. At t=30 the ramp holds 16 users,
    a demand of 4 replicas: no excess, 4 of 9, and more than the pools' 9."""
    cfg = REWARD_CFG
    env = ScalingEnv(cfg)
    env.reset_to("ramp", 3)
    for _ in range(2):
        env.step(ActionTriple(0, 1, 0))
    assert (env.row["users"], env.demand_estimate()) == (16, 4)
    obs = np.linspace(0.05, 0.95, len(OBS_FIELDS))
    terms = env.reward(obs, ActionTriple(d_gpu=-1, d_cpu=2, pref=1), desired)
    assert tuple(terms) == REWARD_TERMS
    assert terms["latency"] == obs[OBS_FIELDS.index("l_p95")]
    assert terms["gpu_util"] == obs[OBS_FIELDS.index("u_gpu")]
    assert terms["overhead"] == min(1.0, max(0, sum(desired) - 4) / (cfg.gpu_max + cfg.cpu_max))
    assert terms["overhead"] == pytest.approx(overhead)
    assert terms["smoothness"] == (1 + 2) / 4.0
    assert terms["total"] == (-0.7 * terms["latency"] + 0.3 * terms["gpu_util"]
                              - 0.45 * terms["overhead"] - 0.2 * terms["smoothness"])


def test_demand_estimate_rates_every_replica_at_a_cpu_pods_rate():
    """A characterization: the offered rate of the row's users over the CPU pod's saturated
    completion rate, whatever GPU pods run."""
    cfg = REWARD_CFG
    cpu_rps = cfg.cpu_concurrency / (cfg.base_service_s
                                     * cfg.cpu_concurrency ** cfg.cpu_contention_exp)
    env = ScalingEnv(cfg)
    env.reset_to("ramp", 3)
    demands = []
    done = False
    while not done:
        _, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=0, pref=1))
        demands.append(env.demand_estimate())
        assert demands[-1] == math.ceil(env.row["users"] / (cfg.hold_s + cfg.base_service_s)
                                        / cpu_rps)
    assert env.row["gpu_replicas"] > 0
    assert demands == [3, 4, 5, 7, 8, 9, 11, 12]


FIVE_ACTIONS = (ActionTriple(1, 1, 1), ActionTriple(2, -1, 0), ActionTriple(-1, 2, 1),
                ActionTriple(0, -2, 0), ActionTriple(-2, 0, 1))


def test_env_trace_reproduces_its_pinned_bytes():
    """Observations, rewards and trace records of four episodes under a fixed
    action cycle; any change to the simulator, the metrics window or the load
    generator as ScalingEnv reads them moves this digest."""
    sink = StringIO()
    env = ScalingEnv(ExperimentConfig(episode_s=60.0), trace_sink=sink)
    actions = itertools.cycle(FIVE_ACTIONS)
    for i in range(4):
        env.reset_to(*episode_traffic(env.config.seed, i), episode_index=i)
        done = False
        while not done:
            _, _, done = env.step(next(actions))
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest[:16] == "9b3f9802bb552b19"


class CyclingAgent:
    """Acts FIVE_ACTIONS in turn, whatever it observes."""

    name = "kiscaler"
    pods = None

    def __init__(self) -> None:
        self.actions = itertools.cycle(FIVE_ACTIONS)

    def act(self, obs, env):
        return next(self.actions)


def test_policy_episodes_reproduce_their_pinned_bytes():
    """Reports and time-series rows of the KIScaler loop in every pattern under
    a fixed action cycle; no network is involved, so no BLAS rounding either."""
    cfg = ExperimentConfig(episode_s=60.0)
    agent = CyclingAgent()
    runs: list = []
    for pattern in PATTERN_NAMES:
        rows: list[dict] = []
        runs.append([run_policy_episode(agent, pattern, cfg, 42, timeseries=rows), rows])
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "c484660a4c13a13d"


def test_only_a_reported_run_samples_utilization():
    """A training-style episode schedules no sampler, and its stack refuses to
    report utilization means it never sampled; the policy runner samples every
    monitor interval from t=0 to the episode's end."""
    cfg = ExperimentConfig(episode_s=30.0)
    env = ScalingEnv(cfg)
    env.reset_to("ramp", 3)
    done = False
    while not done:
        _, _, done = env.step(ActionTriple(0, 0, 1))
    assert env.stack.util_samples == []
    with pytest.raises(SimulationError, match="sampled no utilization"):
        env.stack.report("kiscaler")

    stacks = []

    class Holder(CyclingAgent):
        def act(self, obs, env):
            stacks.append(env.stack)
            return super().act(obs, env)

    report = run_policy_episode(Holder(), "ramp", cfg, 3)
    assert len(stacks[0].util_samples) == 31 and report["cpu_util_mean"] > 0.0


def json_trace_line(episode, step, pattern, obs, action, terms, desired, users):
    """A trace line as json.dumps wrote it before the template: the reference."""
    record = {
        "episode": episode,
        "step": step,
        "pattern": pattern,
        "obs": [round(float(x), 9) for x in obs],
        "action": [action.d_gpu, action.d_cpu, action.pref],
        "reward": {k: round(v, 9) for k, v in terms.items()},
        "desired_gpu": desired[0],
        "desired_cpu": desired[1],
        "users": users,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


# finite floats, and the values whose repr is special: an exponent, a sign, a bare 0 or 1
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e-05, -1e-05, 1.5e-07, 1e16, -0.0, 0.0, 1.0, 0.1]),
                   st.floats(-1e-8, 1e-8))
COUNT = st.integers(0, 2**63)


@given(episode=COUNT, step=COUNT, pattern=st.sampled_from(PATTERN_NAMES),
       obs=st.lists(FINITE, min_size=len(OBS_FIELDS), max_size=len(OBS_FIELDS)),
       action=st.builds(ActionTriple, st.sampled_from(DELTAS), st.sampled_from(DELTAS),
                        st.sampled_from([0, 1, RoutePref.CPU_FIRST, RoutePref.GPU_FIRST])),
       terms=st.lists(FINITE, min_size=len(REWARD_TERMS), max_size=len(REWARD_TERMS)),
       desired=st.tuples(COUNT, COUNT), users=COUNT)
def test_the_trace_template_writes_the_bytes_json_dumps_writes(episode, step, pattern, obs,
                                                               action, terms, desired, users):
    terms = dict(zip(REWARD_TERMS, terms))
    line = trace_line(episode, step, pattern, obs, action, terms, desired, users)
    assert line == json_trace_line(episode, step, pattern, obs, action, terms, desired, users)
    assert json.loads(line)["reward"]["total"] == round(terms["total"], 9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("slot", range(len(OBS_FIELDS) + len(REWARD_TERMS)))
def test_a_non_finite_trace_value_is_a_simulation_error_naming_its_step(slot, value):
    values = [0.5] * (len(OBS_FIELDS) + len(REWARD_TERMS))
    values[slot] = value
    obs, terms = values[:len(OBS_FIELDS)], dict(zip(REWARD_TERMS, values[len(OBS_FIELDS):]))
    with pytest.raises(SimulationError, match="episode 12 step 34: non-finite"):
        trace_line(12, 34, "ramp", obs, ActionTriple(0, 0, 0), terms, (1, 2), 5)


def test_a_stepped_non_finite_observation_is_refused_before_it_is_written(monkeypatch):
    row = SimStack.row

    def nan_gpu_util(stack):
        return {**row(stack), "gpu_util": math.nan}

    sink = StringIO()
    env = ScalingEnv(ExperimentConfig(episode_s=30.0), trace_sink=sink)
    env.reset_to("ramp", 3, episode_index=5)
    monkeypatch.setattr(SimStack, "row", nan_gpu_util)
    with pytest.raises(SimulationError, match="episode 5 step 1: non-finite"):
        env.step(ActionTriple(0, 0, 1))
    assert sink.getvalue() == ""


@pytest.mark.parametrize("fields", [(True, 0, 0), (0, False, 0), (0, 0, True), (0, 0, False),
                                    (np.True_, 0, 1), (0, 0, np.False_)])
def test_an_action_of_bools_is_refused(fields):
    with pytest.raises(ValueError, match="ints, not bools"):
        ActionTriple(*fields)


def test_route_pref_members_and_numpy_ints_are_actions():
    assert [ActionTriple(0, 0, pref).pref for pref in RoutePref] == [0, 1]
    assert ActionTriple(np.int64(-2), np.int64(2), np.int64(1)) == ActionTriple(-2, 2, 1)
