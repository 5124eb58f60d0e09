import json
import math
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import kisim.agent
from kisim.agent import (CHECKPOINT_STATE, MOVING_AVG_WINDOW, AgentError, CheckpointError,
                         PpoAgent, TrainState, detect_convergence, gae, load_checkpoint,
                         moving_average, run_episode, save_checkpoint)
from kisim.config import ExperimentConfig
from kisim.env import ActionTriple, ScalingEnv
from kisim.nn import (HEAD_SIZES, ActorCriticParams, Adam, NetDims, actor_forward, log_softmax,
                      tensor_shapes)

N_RETURNS = 100


def test_gae_matches_a_hand_worked_case_with_a_mid_buffer_done():
    # gamma 0.9, lambda 0.8; step 1 ends an episode, the value after step 2 is 0.
    # t=2: delta = 3 - 1.5 = 1.5                     A = 1.5
    # t=1: delta = 2 - 1.0 = 1.0 (terminal)          A = 1.0
    # t=0: delta = 1 + 0.9*1.0 - 0.5 = 1.4           A = 1.4 + 0.72*1.0 = 2.12
    adv, ret = gae([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], [False, True, False], 0.9, 0.8)
    assert adv.tolist() == pytest.approx([2.12, 1.0, 1.5])
    assert ret.tolist() == pytest.approx([2.62, 2.0, 3.0])


SHORT = ExperimentConfig(episode_s=60.0)


def sampled_episode(trace_sink=None):
    """(agent, steps) after one sampled 4-step episode of a small network."""
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT, seed=1)
    steps: list = []
    run_episode(ScalingEnv(SHORT, trace_sink=trace_sink), agent, 0, steps=steps)
    return agent, steps


def test_update_of_an_empty_rollout_is_an_agent_error():
    with pytest.raises(AgentError, match="empty rollout"):
        PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT).update([])


def test_update_learns_from_its_steps_and_empties_them():
    agent, steps = sampled_episode()
    assert len(steps) == 4
    before = {k: v.copy() for k, v in agent.params.tensors.items()}
    report = agent.update(steps)
    assert steps == []
    assert all(math.isfinite(v) for v in
               (report.policy_loss, report.value_loss, report.entropy))
    assert all(not np.array_equal(before[k], v) for k, v in agent.params.tensors.items())


def test_recorded_heads_decode_to_the_traced_action():
    sink = StringIO()
    _, steps = sampled_episode(trace_sink=sink)
    traced = [json.loads(line)["action"] for line in sink.getvalue().splitlines()]
    decoded = [ActionTriple.from_heads(*heads) for _, heads, *_ in steps]
    assert [[a.d_gpu, a.d_cpu, a.pref] for a in decoded] == traced


def test_sampled_heads_are_the_draws_of_generator_choice(monkeypatch):
    """sample_action's inverse CDF draws what Generator.choice(k, p) draws from
    a twin generator, and leaves the generator in the same state."""
    rng = np.random.default_rng(11)
    logit_sets = [[rng.normal(0.0, scale, (1, k)) for k in (5, 5, 2)]
                  for scale in rng.choice([0.1, 3.0, 30.0], size=200)]
    fed = iter(logit_sets)
    monkeypatch.setattr(kisim.agent, "actor_forward", lambda p, obs: (next(fed), None))
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT, seed=5)
    agent._sample_rng = np.random.default_rng(2024)
    twin = np.random.default_rng(2024)
    for logits in logit_sets:
        _, heads, log_prob, _ = agent.sample_action(np.zeros(10))
        lps = [log_softmax(lg)[0] for lg in logits]
        expected = tuple(int(twin.choice(len(lp), p=np.exp(lp))) for lp in lps)
        assert heads == expected
        assert log_prob == sum(float(lp[i]) for lp, i in zip(lps, heads))
    assert agent._sample_rng.bit_generator.state == twin.bit_generator.state


def test_greedy_action_is_the_argmax_of_the_actor_alone(monkeypatch):
    init = PpoAgent(NetDims(hidden1=16, hidden2=12), seed=2).params
    rng = np.random.default_rng(3)
    # spread the near-uniform initial heads, so the argmax moves with obs
    agent = PpoAgent(ActorCriticParams(init.dims, {
        name: w + rng.normal(0.0, 0.5, w.shape).astype(np.float32)
        for name, w in init.tensors.items()}), SHORT)

    def no_critic(*args):
        raise AssertionError("greedy_action ran the critic")

    monkeypatch.setattr(kisim.agent, "critic_forward", no_critic)
    chosen = set()
    for obs in rng.uniform(0.0, 1.0, (50, 10)):
        logits, _ = actor_forward(agent.params.as_float64(), obs.reshape(1, -1))
        expected = ActionTriple.from_heads(*(int(np.argmax(lg[0])) for lg in logits))
        assert agent.greedy_action(obs) == expected
        chosen.add(expected)
    assert len(chosen) > 1


@given(scale=st.floats(1e-3, 1e2), kind=st.sampled_from(["spread", "ties", "dominant"]),
       seed=st.integers(0, 2**32 - 1))
def test_padded_heads_give_each_heads_own_log_softmax_exp_and_argmax(scale, kind, seed):
    """The padded (3, 5) array `_actor` returns, fed to log_softmax and exp once,
    gives every head the bytes its own (1, k) array gives, and -inf/0 elsewhere."""
    rng = np.random.default_rng(seed)
    logits = []
    for k in HEAD_SIZES:
        if kind == "ties":
            lg = rng.integers(-2, 3, k) * scale
        else:
            lg = rng.normal(0.0, scale, k)
        if kind == "dominant":
            lg[rng.integers(k)] += rng.choice([40.0, 800.0])
        logits.append(lg.reshape(1, k))
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT)
    with mock.patch.object(kisim.agent, "actor_forward", lambda p, obs: (logits, None)):
        _, z = agent._actor(np.zeros(10))
    lp = log_softmax(z)
    prob = np.exp(lp)
    for i, (k, lg) in enumerate(zip(HEAD_SIZES, logits)):
        own = log_softmax(lg)[0]
        assert lp[i, :k].tobytes() == own.tobytes()
        assert prob[i, :k].tobytes() == np.exp(own).tobytes()
        assert (lp[i, k:] == -np.inf).all() and (prob[i, k:] == 0.0).all()
        assert z.argmax(axis=1)[i] == np.argmax(lg[0])


def _logits_with(head, slot, value):
    logits = [np.linspace(-1.0, 1.0, k).reshape(1, k) for k in HEAD_SIZES]
    logits[head][0, slot] = value
    return logits


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("head, slot", [(h, s) for h, k in enumerate(HEAD_SIZES)
                                        for s in range(k)])
def test_a_non_finite_logit_in_any_head_is_an_agent_error(head, slot, value):
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT, seed=5)
    state = agent._sample_rng.bit_generator.state
    with mock.patch.object(kisim.agent, "actor_forward",
                           lambda p, obs: (_logits_with(head, slot, value), None)):
        for act in (agent.sample_action, agent.greedy_action):
            with pytest.raises(AgentError, match="non-finite policy logits"):
                act(np.zeros(10))
    assert agent._sample_rng.bit_generator.state == state


def test_an_infinite_reward_is_a_non_finite_loss_error():
    agent, steps = sampled_episode()
    obs, heads, log_prob, value, _, done = steps[1]
    steps[1] = (obs, heads, log_prob, value, math.inf, done)
    with np.errstate(invalid="ignore", over="ignore"):   # the NaN is the point here
        with pytest.raises(AgentError, match="non-finite PPO loss"):
            agent.update(steps)


def assert_view_is_a_fresh_conversion(params):
    view = params.as_float64()
    assert list(view) == list(params.tensors)
    for name, tensor in params.tensors.items():
        fresh = tensor.astype(np.float64)
        assert np.array_equal(view[name], fresh), name
        assert (view[name].flags.c_contiguous, view[name].flags.f_contiguous) == \
            (fresh.flags.c_contiguous, fresh.flags.f_contiguous), name


def test_float64_view_follows_the_weights_value_and_memory_order(tmp_path):
    """The memory order picks the BLAS path, so the last bits of every forward."""
    params = PpoAgent(NetDims(hidden1=16, hidden2=12), seed=4).params
    assert_view_is_a_fresh_conversion(params)
    # the orthogonal init of a wide *_w1 is Fortran-ordered until its first step
    assert not params.as_float64()["a_w1"].flags.c_contiguous
    optimizer = Adam(params, lr=0.01)
    rng = np.random.default_rng(5)
    for _ in range(3):
        optimizer.step(params, {name: rng.normal(size=shape)
                                for name, shape in tensor_shapes(params.dims).items()})
        assert_view_is_a_fresh_conversion(params)
    save_checkpoint(params, TrainState(), tmp_path / "p.kisc")
    loaded, _ = load_checkpoint(tmp_path / "p.kisc")
    assert_view_is_a_fresh_conversion(loaded)


def test_flat_returns_converge_after_two_windows():
    converged = [n for n in range(1, 61) if detect_convergence(TrainState(returns=[1.0] * n))]
    assert converged[0] == 40


@pytest.mark.parametrize("returns", [
    list(np.linspace(1.0, 2.0, 60)),     # still improving
    [0.5, 1.5] * 30,                      # flat on average but noisy
])
def test_rising_or_noisy_returns_do_not_converge(returns):
    assert not any(detect_convergence(TrainState(returns=returns[:n]))
                   for n in range(1, len(returns) + 1))


def test_train_state_derives_its_index_and_moving_average_from_its_returns():
    state = TrainState()
    assert (state.episode_index, state.moving_avg) == (0, 0.0)
    state.returns.extend(float(r) for r in range(15))
    assert state.episode_index == 15
    assert state.moving_avg == sum(range(15 - MOVING_AVG_WINDOW, 15)) / MOVING_AVG_WINDOW
    with pytest.raises(AttributeError):
        state.moving_avg = 1.0


def test_moving_average_is_the_mean_of_the_last_window_of_returns():
    assert moving_average([]) == 0.0
    assert moving_average([2.0, 4.0]) == 3.0
    returns = [float(r * r) for r in range(MOVING_AVG_WINDOW + 5)]
    assert moving_average(returns) == sum(returns[-MOVING_AVG_WINDOW:]) / MOVING_AVG_WINDOW
    assert moving_average(returns) == TrainState(returns=returns).moving_avg


@pytest.fixture
def saved(tmp_path):
    """A checkpoint of 100 returns: (path, bytes, offset of the state struct)."""
    params = PpoAgent(NetDims(hidden1=8, hidden2=6), seed=3).params
    rng = np.random.default_rng(7)
    state = TrainState(returns=rng.normal(1.0, 0.3, N_RETURNS).tolist(),
                       best_moving_avg=1.25, converged_at=61)
    path = tmp_path / "run.kisc"
    save_checkpoint(params, state, path)
    raw = path.read_bytes()
    return path, raw, len(raw) - 8 * N_RETURNS - CHECKPOINT_STATE.size, params, state


def test_saved_state_round_trips(saved):
    path, _, _, params, state = saved
    loaded_params, loaded = load_checkpoint(path)
    assert loaded == state
    assert (loaded.episode_index, loaded.moving_avg) == (N_RETURNS, state.moving_avg)
    for name, tensor in params.tensors.items():
        assert np.array_equal(loaded_params.tensors[name], tensor.astype(np.float32))


def test_fresh_state_round_trips(tmp_path):
    path = tmp_path / "fresh.kisc"
    save_checkpoint(PpoAgent(NetDims(hidden1=8, hidden2=6)).params, TrainState(), path)
    _, loaded = load_checkpoint(path)
    assert loaded == TrainState()


def _cut_lengths(raw, state_off):
    returns_off = state_off + CHECKPOINT_STATE.size
    yield len(raw) - 80                              # ten returns short
    yield len(raw) - 3
    yield state_off + 10                             # inside the state struct
    yield state_off
    yield from range(returns_off, len(raw), 8)       # every return boundary


def test_every_truncation_is_a_checkpoint_error(saved):
    path, raw, state_off, _, _ = saved
    for length in _cut_lengths(raw, state_off):
        path.write_bytes(raw[:length])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"trailing garbage"])
def test_appended_bytes_are_a_checkpoint_error(saved, extra):
    path, raw, _, _, _ = saved
    path.write_bytes(raw + extra)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_stored_index_or_average_that_the_returns_contradict_is_an_error(saved):
    path, raw, state_off, _, _ = saved
    episode_index, n, moving_avg, best, converged = CHECKPOINT_STATE.unpack_from(raw, state_off)
    for fields in [(episode_index - 1, n, moving_avg, best, converged),
                   (episode_index, n, moving_avg + 1e-9, best, converged)]:
        path.write_bytes(raw[:state_off] + CHECKPOINT_STATE.pack(*fields)
                         + raw[state_off + CHECKPOINT_STATE.size:])
        with pytest.raises(CheckpointError, match="contradict"):
            load_checkpoint(path)
