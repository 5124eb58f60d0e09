import hashlib
import itertools
import json
import math
import pickle
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kisim.agent import EVAL_INDEX_BASE, PpoAgent, run_episode
from kisim.baselines import run_baseline
from kisim.config import ExperimentConfig
from kisim.env import (ACTIONS, DELTAS, HEAD_SIZES, OBS_FIELDS, REWARD_TERMS, TIMESERIES_FIELDS,
                       ActionTriple, EpisodeFinished, ScalingEnv, SimStack, episode_traffic,
                       _TEXTS, _TEXTS_MAX, read_trace_line, run_policy_episode, trace_line)
from kisim.nn import NetDims
from kisim.simcore import Request, RoutePref, SimulationError
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
    played: list[ActionTriple] = []
    report = run_policy_episode(Hold(), "spike", ExperimentConfig(episode_s=60.0), 3, rows,
                                actions=played)
    assert report["policy"] == "hold" and report["requests_completed"] > 0
    assert [(r["t"], r["cpu_replicas"], r["gpu_replicas"]) for r in rows] == \
        [(15.0, 2, 1), (30.0, 2, 1), (45.0, 2, 1), (60.0, 2, 1)]
    assert played == [ActionTriple(0, 0, RoutePref.GPU_FIRST)] * 4   # one per step, t=0 on


@pytest.mark.parametrize("interval", [11.0, 13.0, 15.0, 7.0, 1.0, 400.0])
def test_observations_stay_in_unit_interval_through_the_last_step(interval):
    """Also the fact `kisim replay` reads an episode's end by: t_norm is 1.0 on the step
    that returns `done` and, as the trace writes it to 9 digits, below 1.0 on every earlier
    one; at an interval that does not divide the episode (7 s) and at one longer than it
    (400 s, one step) too."""
    cfg = ExperimentConfig(control_interval_s=interval)
    env = ScalingEnv(cfg)
    obs = env.reset_to("spike", 5)
    vectors = [obs]
    done = False
    while not done:
        obs, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=1, pref=1))
        vectors.append(obs)
    assert env.stack.engine.now == cfg.episode_s
    t_norm = OBS_FIELDS.index("t_norm")
    assert vectors[-1][t_norm] == 1.0          # t_norm reaches exactly 1
    assert all(round(vec[t_norm], 9) < 1.0 for vec in vectors[:-1])
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
    index = EVAL_INDEX_BASE + len(PATTERN_NAMES) * 3 + p_idx
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
    n_max = cfg.gpu_max + cfg.cpu_max
    env = ScalingEnv(cfg)
    obs = env.reset_to("periodic", 7)
    done = False
    while True:
        fields = dict(zip(OBS_FIELDS, obs))
        assert fields["t_norm"] * cfg.episode_s == env.row["t"] == env.stack.engine.now
        assert fields["u_gpu"] == env.row["gpu_util"]
        assert fields["u_cpu"] == env.row["cpu_util"]
        assert fields["gpu_ready"] == min(1.0, env.row["gpu_replicas"] / n_max)
        assert fields["cpu_ready"] == min(1.0, env.row["cpu_replicas"] / n_max)
        if done:
            break
        obs, _, done = env.step(ActionTriple(d_gpu=1, d_cpu=-1, pref=1))


def test_the_ready_counts_split_the_ready_total_by_pool():
    """Three CPU pods and two CPU pods beside a GPU pod hold one Ready total, which
    the two counts read alike in their sum and apart in the GPU count."""
    env = ScalingEnv(ExperimentConfig())
    gpu, cpu = OBS_FIELDS.index("gpu_ready"), OBS_FIELDS.index("cpu_ready")
    cpu_only, mixed = env.reset_to("ramp", 3, pods=(3, 0)), env.reset_to("ramp", 3, pods=(2, 1))
    assert cpu_only[gpu] + cpu_only[cpu] == mixed[gpu] + mixed[cpu] == 3 / 9
    assert (cpu_only[gpu], mixed[gpu]) == (0.0, 1 / 9)


def test_an_empty_window_with_requests_outstanding_reads_the_worst_latency():
    """A GPU pod with no device never serves: no request completes, the backlog grows,
    and the latency term reads 1.0, not the best latency 0.0 of an empty window. The
    time series keeps the window's p95, 0.0."""
    cfg = ExperimentConfig(episode_s=60.0, cpu_min=0, init_cpu=0, init_gpu=1,
                           gpu_device_budget=0)
    env = ScalingEnv(cfg)
    obs = env.reset_to("ramp", 3)
    assert obs[OBS_FIELDS.index("l_p95")] == 0.0 and env.stack.cluster.outstanding() == 0
    backlog = []
    for _ in range(4):
        obs, reward, _ = env.step(ActionTriple(0, 0, 1))
        assert env.terms["latency"] == obs[OBS_FIELDS.index("l_p95")] == 1.0
        assert reward == -cfg.reward_alpha and env.row["p95_s"] == 0.0
        backlog.append(len(env.stack.cluster.backlog))
    assert env.stack.cluster.requests_completed == 0
    assert backlog[0] == 16 and backlog[-1] == 49


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


class CyclingAgent:
    """Acts FIVE_ACTIONS in turn, whatever it observes: as a policy of
    `run_policy_episode` and greedily in `agent.run_episode`."""

    name = "kiscaler"
    pods = None

    def __init__(self) -> None:
        self.actions = itertools.cycle(FIVE_ACTIONS)

    def greedy_action(self, obs):
        return next(self.actions)

    def act(self, obs, env):
        return self.greedy_action(obs)


def test_env_trace_reproduces_its_pinned_bytes():
    """Observations, rewards and trace records of four episodes under a fixed
    action cycle, as `run_episode` traces them; any change to the simulator, the
    metrics window or the load generator as ScalingEnv reads them moves this digest."""
    sink = StringIO()
    env, agent = ScalingEnv(ExperimentConfig(episode_s=60.0)), CyclingAgent()
    for i in range(4):
        run_episode(env, agent, i, trace=sink)
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest[:16] == "7037b1bb5f8fc7af"


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
    assert digest[:16] == "42ef28d0f35dc1f0"


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
    assert read_trace_line(line) == json.loads(line)


N_TRACE_VALUES = len(OBS_FIELDS) + len(REWARD_TERMS)


def trace_lines_of(*rows):
    """(trace_line, json_trace_line) of each row of N_TRACE_VALUES values, in order: the
    first len(OBS_FIELDS) are the observation, the rest the reward terms."""
    lines = []
    for values in rows:
        obs, terms = list(values[:len(OBS_FIELDS)]), dict(zip(REWARD_TERMS,
                                                              values[len(OBS_FIELDS):]))
        args = (3, 4, "spike", obs, ActionTriple(1, -1, 0), terms, (1, 2), 7)
        lines.append((trace_line(*args), json_trace_line(*args)))
    return lines


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first", "minus_first"])
def test_each_signed_zero_writes_its_own_text_whichever_came_first(zeros):
    _TEXTS.clear()
    rows = [[zeros[0]] * N_TRACE_VALUES, [zeros[1]] * N_TRACE_VALUES,
            [zeros[i % 2] for i in range(N_TRACE_VALUES)]]
    for line, reference in trace_lines_of(*rows):
        assert line == reference


@pytest.mark.parametrize("int_first", [True, False])
def test_an_int_and_an_equal_float_keep_their_own_texts(int_first):
    """An int among the reward terms (the reference writes obs values as floats)."""
    _TEXTS.clear()
    ints = [0.5] * len(OBS_FIELDS) + [1, 2, 1, 2, 1]
    floats = [1.0] * len(OBS_FIELDS) + [1.0, 2.0, 1.0, 2.0, 1.0]
    for line, reference in trace_lines_of(*([ints, floats] if int_first else [floats, ints])):
        assert line == reference
    assert trace_lines_of(ints)[0][0].endswith(
        '"reward":{"latency":1,"gpu_util":2,"overhead":1,"smoothness":2,"total":1},'
        '"desired_gpu":1,"desired_cpu":2,"users":7}\n')


def test_a_value_evicted_from_the_memo_writes_the_same_bytes_again():
    _TEXTS.clear()
    row = [0.123456789123] * N_TRACE_VALUES
    before = trace_lines_of(row)
    trace_lines_of(*([k + 0.5 for k in range(i, i + N_TRACE_VALUES)]     # > _TEXTS_MAX others
                     for i in range(0, _TEXTS_MAX + N_TRACE_VALUES, N_TRACE_VALUES)))
    assert row[0] not in _TEXTS
    after = trace_lines_of(row)
    assert row[0] in _TEXTS
    assert after == before and after[0][0] == after[0][1]


def test_the_memo_stays_within_its_bound_over_100000_distinct_values():
    values = [k / 7.0 + 1.0 for k in range(100_000)]
    for i in range(0, len(values), N_TRACE_VALUES):
        trace_lines_of((values[i:i + N_TRACE_VALUES] * 2)[:N_TRACE_VALUES])
        assert len(_TEXTS) <= _TEXTS_MAX == 4096


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_value_raises_its_old_message_and_is_never_remembered(value):
    trace_lines_of([0.5] * N_TRACE_VALUES)
    memo = dict(_TEXTS)
    with pytest.raises(SimulationError) as info:
        trace_lines_of([0.5] * (N_TRACE_VALUES - 1) + [value])
    assert str(info.value) == ("episode 3 step 4: non-finite observation or reward term in ["
                               + "0.5, " * (N_TRACE_VALUES - 1) + repr(value) + "]")
    assert _TEXTS == memo


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
    monkeypatch.setattr(SimStack, "row", nan_gpu_util)
    with pytest.raises(SimulationError, match="episode 5 step 1: non-finite"):
        run_episode(ScalingEnv(ExperimentConfig(episode_s=30.0)), CyclingAgent(), 5, trace=sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("fields", [(True, 0, 0), (0, False, 0), (0, 0, True), (0, 0, False),
                                    (np.True_, 0, 1), (0, 0, np.False_)])
def test_an_action_of_bools_is_refused(fields):
    with pytest.raises(ValueError, match="ints, not bools"):
        ActionTriple(*fields)


def test_route_pref_members_and_numpy_ints_are_actions():
    assert [ActionTriple(0, 0, pref).pref for pref in RoutePref] == [0, 1]
    assert ActionTriple(np.int64(-2), np.int64(2), np.int64(1)) == ActionTriple(-2, 2, 1)
    for pref in (1, np.int64(1), RoutePref.GPU_FIRST):
        assert ActionTriple(0, 0, pref).pref is RoutePref.GPU_FIRST


def test_the_action_table_holds_every_action_once_by_its_head_indices():
    assert len(set(ACTIONS.values())) == len(ACTIONS) == 50
    assert list(ACTIONS) == sorted(ACTIONS)
    for (g, c, p), action in ACTIONS.items():
        assert action == ActionTriple(DELTAS[g], DELTAS[c], p)
        assert action.pref is RoutePref(p)


def test_a_fork_of_an_env_mid_episode_steps_like_its_source():
    """A fork for planning: `env.fork()` of a ScalingEnv mid-episode, whose lane holds
    each thinking user's next Request beside its cluster's bound `submit`, replays the
    source's rows, observations, rewards and event count step for step to the end, where
    the return it carried from the source has summed to the source's, bit for bit."""
    env = ScalingEnv(ExperimentConfig())
    env.reset_to("periodic", traffic_seed=11)
    plan = [ACTIONS[g, c, p] for g, c, p in
            np.random.default_rng(5).integers(0, HEAD_SIZES, size=(20, 3)).tolist()]
    for action in plan[:7]:
        env.step(action)
    fork = env.fork()
    lane = fork.stack.engine.lane
    assert lane and all(e[2].__self__ is fork.stack.cluster and e[3][0].user for e in lane)
    assert lane[0][3][0] is not env.stack.engine.lane[0][3][0]
    done = False
    for action in plan[7:]:
        assert not done
        results = [sim.step(action) for sim in (env, fork)]
        (obs, reward, done), (fork_obs, fork_reward, fork_done) = results
        assert (fork.row, fork_obs.tobytes(), fork_reward, fork_done) == \
            (env.row, obs.tobytes(), reward, done)
        assert fork.stack.engine.clock.seq == env.stack.engine.clock.seq
    assert done
    assert fork.episode_return.hex() == env.episode_return.hex()


def test_a_fork_records_completions_only_into_its_own_listeners():
    """A listener bound to per-run state, here a list's builtin `append`, forks with that
    state: the fork's completions grow the fork's copy of the list, never the source's.
    A listener that pickle cannot copy, such as a lambda, makes `fork()` raise."""
    env = ScalingEnv(ExperimentConfig())
    env.reset_to("ramp", traffic_seed=4)
    log: list = []
    env.stack.cluster.completion_listeners.append(log.append)
    for _ in range(3):
        env.step(ActionTriple(1, 0, RoutePref.GPU_FIRST))
    size = len(log)
    fork = env.fork()
    fork.step(ActionTriple(1, 0, RoutePref.GPU_FIRST))
    assert len(log) == size > 0
    assert len(fork.stack.cluster.completion_listeners[-1].__self__) > size
    env.stack.cluster.completion_listeners.append(lambda request: None)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        env.fork()


def steps_to_end(env, plan):
    """Each step of `env` under `plan` to the episode end, as (row, observation bytes,
    reward, event count), then the episode's return; floats as hex, bit for bit."""
    steps, done = [], False
    while not done:
        obs, reward, done = env.step(plan[env.step_index])
        steps.append((env.row, obs.tobytes(), reward.hex(), env.stack.engine.clock.seq))
    return steps, env.episode_return.hex()


def requests_of(env):
    """Every Request of `env`'s run: its users' next arrivals on the lane, those in service
    (in the heap's completions), those queued on a pod and those backlogged."""
    engine, cluster = env.stack.engine, env.stack.cluster
    return ([e[3][0] for e in engine.lane]
            + [a for e in engine.heap for a in e[3] if isinstance(a, Request)]
            + [r for pod in cluster.cpu_pods + cluster.gpu_pods for r in pod.queue]
            + list(cluster.backlog))


@settings(max_examples=30, deadline=None)
@given(pattern=st.sampled_from(PATTERN_NAMES), seed=st.integers(0, 2**31 - 1),
       plan=st.lists(st.sampled_from(list(ACTIONS.values())), min_size=4, max_size=4),
       fork_at=st.integers(0, 3))
@example(pattern="random", seed=11, plan=[ACTIONS[2, 2, 0]] * 4, fork_at=2)
def test_a_fork_at_any_step_and_its_source_step_on_like_an_unforked_twin(pattern, seed, plan,
                                                                         fork_at):
    """Forked after `fork_at` of its four steps, an env and its fork each step to the end
    bit for bit like a twin that was never forked: no state is shared between the two. Each
    samples utilization as a reported run does, and reports like the twin. Neither side
    changes the other's Requests: the fork copies every one, and the source's keep their
    fields while the fork runs, as the fork's keep theirs while the source runs. Most forks
    after t=0 come while users think, so the lane holds their re-submitted Requests, but
    not all: one CPU pod saturated by many users can leave none thinking at the fork. The
    explicit example forks with Requests on the lane, queued and in service."""
    cfg = ExperimentConfig(episode_s=60.0)
    env, twin = ScalingEnv(cfg), ScalingEnv(cfg)
    for sim in (env, twin):
        sim.reset_to(pattern, seed)
        sim.stack.engine.schedule_periodic(cfg.monitor_interval_s, sim.stack._sample_util,
                                           cfg.episode_s)
    for action in plan[:fork_at]:
        env.step(action)
    fork = env.fork()
    mine, theirs = requests_of(env), requests_of(fork)
    assert len(mine) == len(theirs) and not set(map(id, mine)) & set(map(id, theirs))
    assert bool(fork_at) == bool(mine)      # users are served or think at every fork but t=0
    held = [replace(r) for r in mine]
    twin_steps, twin_return = steps_to_end(twin, plan)
    expected = (twin_steps[fork_at:], twin_return)
    assert steps_to_end(fork, plan) == expected
    assert mine == held
    held = [replace(r) for r in theirs]
    assert steps_to_end(env, plan) == expected
    assert theirs == held
    report = twin.stack.report("twin")
    assert env.stack.report("twin") == report == fork.stack.report("twin")


class ForkingAgent(CyclingAgent):
    """A `CyclingAgent` that, at step `fork_at` of the episode `run_episode` traces, forks
    `env` once per action in `ACTIONS` and steps each fork to the episode end under that
    action, as a rollout planner does, before it acts. It keeps every observation it saw."""

    def __init__(self, env, sink, fork_at) -> None:
        super().__init__()
        self.env, self.sink, self.fork_at = env, sink, fork_at
        self.seen, self.forks = [], []

    def greedy_action(self, obs):
        self.seen.append(obs.tobytes())
        env = self.env
        if env.step_index == self.fork_at:
            row, seq, written = dict(env.row), env.stack.engine.clock.seq, self.sink.tell()
            for action in ACTIONS.values():
                fork = env.fork()
                done = False
                while not done:
                    _, _, done = fork.step(action)
                self.forks.append(fork)
            assert (env.row, env.stack.engine.clock.seq) == (row, seq)
            assert self.sink.tell() == written      # the forks wrote nothing
        return super().greedy_action(obs)


def test_an_env_forked_mid_episode_while_it_is_traced_leaves_the_source_and_its_trace_alone(
        tmp_path):
    """The rollout planner's fork: `run_episode` traces an env into a file, as `train` does,
    and its agent forks that env mid-episode and plays every action on a fork to the end.
    The source steps on as if unforked: the same row, event sequence and next observation,
    and the trace bytes of an unforked run. An env holds no file (an open one would make
    `fork()` raise), so no fork can write to the source's trace."""
    cfg = ExperimentConfig(episode_s=90.0)
    plain_sink = StringIO()
    plain = ForkingAgent(ScalingEnv(cfg), plain_sink, fork_at=-1)
    run_episode(plain.env, plain, 2, trace=plain_sink)
    with (tmp_path / "trace.jsonl").open("w") as sink:
        forking = ForkingAgent(ScalingEnv(cfg), sink, fork_at=3)
        run_episode(forking.env, forking, 2, trace=sink)
    assert len(forking.forks) == len(ACTIONS) and plain.forks == []
    assert all(fork.step_index == 6 and fork.stack.engine.now == cfg.episode_s
               for fork in forking.forks)
    assert len({fork.stack.engine.clock.seq for fork in forking.forks}) > 1
    assert forking.seen == plain.seen
    traced = (tmp_path / "trace.jsonl").read_text()
    assert traced == plain_sink.getvalue() and len(traced.splitlines()) == 6


class Hold:
    """The config's init pods, never scaled, routed GPU-first."""

    name, pods = "hold", None

    def act(self, obs, env):
        return ActionTriple(0, 0, RoutePref.GPU_FIRST)


class ForkingHold(Hold):
    """`Hold`, but at every control instant it first forks `env`, whose engine carries the
    reported run's utilization sampler, and plays the fork to the episode end under one
    fixed action, as a planner inside a reported run does."""

    def __init__(self) -> None:
        self.forks = []

    def act(self, obs, env):
        fork = env.fork()
        done = False
        while not done:
            _, _, done = fork.step(ActionTriple(2, -1, 0))
        self.forks.append((len(env.stack.util_samples), len(fork.stack.util_samples)))
        return super().act(obs, env)


@pytest.mark.parametrize("pattern", ["ramp", "spike"])
def test_a_reported_run_that_forks_at_every_instant_reports_like_one_that_never_forks(pattern):
    """Forks inside `run_policy_episode`: a policy that forks its env at every control
    instant and plays each fork to the end gets the report and time series, byte for byte,
    of the same policy unforked; each fork sampled utilization on to the end alone."""
    cfg = ExperimentConfig(episode_s=60.0)
    runs = []
    forking = ForkingHold()
    for policy in (Hold(), forking):
        rows: list[dict] = []
        report = run_policy_episode(policy, pattern, cfg, 3, timeseries=rows)
        runs.append(json.dumps([report, rows], sort_keys=True))
    assert runs[0] == runs[1]
    assert len(forking.forks) == 4
    assert all(at_fork < at_end == 61 for at_fork, at_end in forking.forks)
