import bisect
import csv
import hashlib
import itertools
import json
import math
import re
import struct
from collections import Counter
from dataclasses import fields, replace
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kisim.agent
from kisim.agent import (CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_STATE,
                         MOVING_AVG_WINDOW, AgentError, CheckpointError, PpoAgent, TrainState,
                         gae, load_checkpoint, moving_average, run_episode, save_checkpoint,
                         train)
from kisim.config import ExperimentConfig
from kisim.env import ACTIONS, HEAD_SIZES, OBS_FIELDS, ScalingEnv, episode_traffic
from kisim.nn import (ActorCriticParams, NetDims, actor_forward, critic_forward, log_softmax,
                      ppo_loss_and_grads, tensor_shapes)
from kisim.traffic import PATTERN_NAMES

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


def sampled_episode(trace=None):
    """(agent, steps) after one sampled 4-step episode of a small network, traced into
    `trace` or a fresh StringIO."""
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT, seed=1)
    steps: list = []
    run_episode(ScalingEnv(SHORT), agent, 0, steps, StringIO() if trace is None else trace)
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
    _, steps = sampled_episode(trace=sink)
    traced = [json.loads(line)["action"] for line in sink.getvalue().splitlines()]
    decoded = [ACTIONS[heads] for _, heads, *_ in steps]
    assert [[a.d_gpu, a.d_cpu, a.pref] for a in decoded] == traced


def test_sampled_heads_are_the_draws_of_generator_choice(monkeypatch):
    """sample_action's inverse CDF draws what Generator.choice(k, p) draws from
    a twin generator, and leaves the generator in the same state."""
    rng = np.random.default_rng(11)
    logit_sets = [[rng.normal(0.0, scale, (1, k)) for k in HEAD_SIZES]
                  for scale in rng.choice([0.1, 3.0, 30.0], size=200)]
    fed = iter(logit_sets)
    monkeypatch.setattr(kisim.agent, "actor_forward", lambda p, obs: (next(fed), None))
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT, seed=5)
    agent._sample_rng = np.random.default_rng(2024)
    twin = np.random.default_rng(2024)
    for logits in logit_sets:
        _, heads, log_prob = agent.sample_action(np.zeros(len(OBS_FIELDS)))
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
    for obs in rng.uniform(0.0, 1.0, (50, len(OBS_FIELDS))):
        logits, _ = actor_forward(agent.params.tensors, obs.reshape(1, -1).astype(np.float32))
        expected = ACTIONS[tuple(int(np.argmax(lg[0])) for lg in logits)]
        assert agent.greedy_action(obs) == expected
        chosen.add(expected)
    assert len(chosen) > 1


def test_sampled_acting_runs_the_actor_alone(monkeypatch):
    def no_critic(*args):
        raise AssertionError("sample_action ran the critic")

    monkeypatch.setattr(kisim.agent, "critic_forward", no_critic)
    agent, steps = sampled_episode()
    assert [len(step) for step in steps] == [5] * 4     # (obs, heads, log_prob, reward, done)
    with pytest.raises(AssertionError, match="ran the critic"):
        agent.update(list(steps))                       # the update alone values the steps
    monkeypatch.undo()
    agent.update(steps)
    assert steps == []


class _Valued(Exception):
    """Carries the values `update` handed `gae` out of the update."""


def values_fed_to_gae(agent, obs):
    """The values `agent.update` hands `gae` for a rollout of the rows of `obs`."""
    def stop(rewards, values, dones, gamma, lam):
        raise _Valued(np.asarray(values))

    steps = [(row, (0, 0, 0), 0.0, 0.0, False) for row in obs]
    with mock.patch.object(kisim.agent, "gae", stop), pytest.raises(_Valued) as valued:
        agent.update(steps)
    return valued.value.args[0]


@pytest.mark.parametrize("n", [1, 2, 20, 64, 300, 301])
@pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "after_one_adam_step"])
@settings(max_examples=10, deadline=None)
@given(scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)), seed=st.integers(0, 2**32 - 1))
def test_update_values_each_step_with_the_bits_of_its_own_one_row_forward(stepped, n, scale,
                                                                          seed):
    """The stacked float32 pass gives every row the bytes of its own one-row forward
    of the row cast to float32, on a fresh agent's weights and on stepped ones."""
    rng = np.random.default_rng(seed)
    agent = PpoAgent(seed=seed % 6)
    if stepped:
        agent.optimizer.step(agent.params, {name: rng.normal(size=shape).astype(np.float32)
                                            for name, shape
                                            in tensor_shapes(agent.params.dims).items()})
    p = agent.params.tensors
    obs = rng.uniform(-1.0, 1.0, (n, len(OBS_FIELDS))) * scale
    values = values_fed_to_gae(agent, obs)
    assert values.shape == (n,) and values.dtype == np.float32
    for row, value in zip(obs.astype(np.float32), values):
        assert value.tobytes() == critic_forward(p, row.reshape(1, -1))[0][0].tobytes()


def test_a_rollout_of_three_episodes_gets_the_advantages_of_per_step_values(tmp_path):
    """One update every 3 episodes: the rollout holds two episode ends mid-buffer, and
    its advantages and returns are the bytes of values taken one step at a time."""
    cfg = replace(SHORT, episodes=3, ppo_update_every_episodes=3)
    agent = PpoAgent(cfg=cfg, seed=6)
    real_update, real_gae = agent.update, gae
    rollouts, gae_outputs = [], []

    def update(steps):
        # the reference: each step valued alone by a one-row forward, with the weights
        # that acted it (the update has not stepped them yet)
        p = agent.params.tensors
        rollouts.append([(float(critic_forward(p, obs.reshape(1, -1).astype(np.float32))[0][0]),
                          reward, done) for obs, _, _, reward, done in steps])
        return real_update(steps)

    def recorded_gae(*args):
        gae_outputs.append(real_gae(*args))
        return gae_outputs[-1]

    with mock.patch.object(agent, "update", update), \
            mock.patch.object(kisim.agent, "gae", recorded_gae):
        train(agent, tmp_path)
    [rollout], [(adv, returns)] = rollouts, gae_outputs
    values, rewards, dones = zip(*rollout)
    assert list(dones) == [False, False, False, True] * 3
    ref_adv, ref_returns = real_gae(rewards, values, dones, cfg.ppo_discount,
                                    cfg.ppo_gae_lambda)
    assert adv.tobytes() == ref_adv.tobytes()
    assert returns.tobytes() == ref_returns.tobytes()


def _drawn_logits(scale, kind, seed):
    """Three heads' (1, k) logits: spread at `scale`, in ties, or with one dominant."""
    rng = np.random.default_rng(seed)
    logits = []
    for k in HEAD_SIZES:
        lg = rng.integers(-2, 3, k) * scale if kind == "ties" else rng.normal(0.0, scale, k)
        if kind == "dominant":
            lg[rng.integers(k)] += rng.choice([40.0, 800.0])
        logits.append(lg.reshape(1, k))
    return logits


@given(scale=st.floats(1e-3, 1e2), kind=st.sampled_from(["spread", "ties", "dominant"]),
       seed=st.integers(0, 2**32 - 1))
def test_padded_heads_give_each_heads_own_log_softmax_exp_and_argmax(scale, kind, seed):
    """The padded (3, 5) array `_actor` returns, fed to log_softmax and exp once,
    gives every head the bytes its own (1, k) array gives, and -inf/0 elsewhere."""
    logits = _drawn_logits(scale, kind, seed)
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT)
    with mock.patch.object(kisim.agent, "actor_forward", lambda p, obs: (logits, None)):
        z = agent._actor(np.zeros(len(OBS_FIELDS)))
    lp = log_softmax(z)
    prob = np.exp(lp)
    for i, (k, lg) in enumerate(zip(HEAD_SIZES, logits)):
        own = log_softmax(lg)[0]
        assert lp[i, :k].tobytes() == own.tobytes()
        assert prob[i, :k].tobytes() == np.exp(own).tobytes()
        assert (lp[i, k:] == -np.inf).all() and (prob[i, k:] == 0.0).all()
        assert z.argmax(axis=1)[i] == np.argmax(lg[0])


def _reference_actor_and_draw(logits, rng):
    """The padded array and the draw as per-call np.full padding and per-head lists made
    them before the concatenation and the one accumulate: (z, heads, log_prob)."""
    z = np.full((len(HEAD_SIZES), max(HEAD_SIZES)), -np.inf)
    for row, lg in zip(z, logits):
        row[:lg.shape[1]] = lg[0]
    lp = log_softmax(z)
    heads, log_prob = [], 0.0
    for k, lp_row, p_row, u in zip(HEAD_SIZES, lp.tolist(), np.exp(lp).tolist(),
                                   rng.random(len(HEAD_SIZES)).tolist()):
        cdf = list(itertools.accumulate(p_row[:k]))
        idx = bisect.bisect_right([c / cdf[-1] for c in cdf], u)
        heads.append(idx)
        log_prob += lp_row[idx]
    return z, tuple(heads), log_prob


@given(scale=st.floats(1e-3, 1e2), kind=st.sampled_from(["spread", "ties", "dominant"]),
       seed=st.integers(0, 2**32 - 1))
def test_acting_keeps_the_bytes_of_per_call_padding_and_per_head_lists(scale, kind, seed):
    logits = _drawn_logits(scale, kind, seed)
    agent = PpoAgent(NetDims(hidden1=8, hidden2=6), SHORT)
    agent._sample_rng = np.random.default_rng(seed)
    z_ref, heads_ref, log_prob_ref = _reference_actor_and_draw(logits, np.random.default_rng(seed))
    with mock.patch.object(kisim.agent, "actor_forward", lambda p, obs: (logits, None)):
        z = agent._actor(np.zeros(len(OBS_FIELDS)))
        action, heads, log_prob = agent.sample_action(np.zeros(len(OBS_FIELDS)))
    assert z.tobytes() == z_ref.tobytes() and z.shape == z_ref.shape
    assert heads == heads_ref and action is ACTIONS[heads_ref]
    assert struct.pack("<d", log_prob) == struct.pack("<d", log_prob_ref)


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
                act(np.zeros(len(OBS_FIELDS)))
    assert agent._sample_rng.bit_generator.state == state


def test_an_infinite_reward_is_a_non_finite_loss_error():
    agent, steps = sampled_episode()
    obs, heads, log_prob, _, done = steps[1]
    steps[1] = (obs, heads, log_prob, math.inf, done)
    with np.errstate(invalid="ignore", over="ignore"):   # the NaN is the point here
        with pytest.raises(AgentError, match="non-finite PPO loss"):
            agent.update(steps)


def test_a_loaded_checkpoint_acts_like_the_agent_that_saved_it(tmp_path):
    """After a few Adam steps, the saved and the loaded weights give the same logits,
    greedy actions and sampled draws, bit for bit, on every corner of the obs box."""
    agent = PpoAgent(NetDims(hidden1=16, hidden2=12), SHORT, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(3):
        agent.optimizer.step(agent.params, {
            name: rng.normal(size=shape).astype(np.float32)
            for name, shape in tensor_shapes(agent.params.dims).items()})
    save_checkpoint(agent.params, TrainState(), tmp_path / "p.kisc")
    loaded = PpoAgent(load_checkpoint(tmp_path / "p.kisc")[0], SHORT)
    for params in (agent.params, loaded.params):
        assert list(params.tensors) == list(tensor_shapes(params.dims))
        assert all(t.dtype == np.float32 and t.flags.c_contiguous
                   for t in params.tensors.values())
    agent._sample_rng, loaded._sample_rng = np.random.default_rng(9), np.random.default_rng(9)
    chosen = set()
    for obs in itertools.product((0.0, 1.0), repeat=len(OBS_FIELDS)):
        obs = np.array(obs)
        assert agent._actor(obs).tobytes() == loaded._actor(obs).tobytes()
        greedy = agent.greedy_action(obs)
        assert loaded.greedy_action(obs) == greedy
        chosen.add(greedy)
        (action, heads, log_prob), drawn = agent.sample_action(obs), loaded.sample_action(obs)
        assert (action, heads) == drawn[:2]
        assert struct.pack("<d", log_prob) == struct.pack("<d", drawn[2])
    assert len(chosen) > 1


def test_one_update_keeps_every_tensor_moment_and_gradient_float32(monkeypatch):
    """A stray float64 temporary would double the learner's cost and pass the rest."""
    agent, steps = sampled_episode()
    seen = []

    def recorded(p, batch, *coefs):
        seen.append((batch, ppo_loss_and_grads(p, batch, *coefs)))
        return seen[-1][1]

    monkeypatch.setattr(kisim.agent, "ppo_loss_and_grads", recorded)
    agent.update(steps)
    assert seen
    names = list(tensor_shapes(agent.params.dims))
    for batch, (total, _, grads) in seen:
        assert total.dtype == np.float32
        assert [batch[k].dtype for k in ("obs", "old_logp", "advantages", "returns")] == \
            [np.float32] * 4
        assert sorted(grads) == sorted(names)
        assert all(g.dtype == np.float32 for g in grads.values())
    for store in (agent.params.tensors, agent.optimizer.m, agent.optimizer.v):
        assert list(store) == names
        assert all(t.dtype == np.float32 and t.flags.c_contiguous for t in store.values())


def test_train_state_derives_its_index_and_moving_average_from_its_returns():
    state = TrainState()
    assert (state.episode_index, state.moving_avg) == (0, 0.0)
    state.returns.extend(float(r) for r in range(15))
    assert state.episode_index == 15
    assert state.moving_avg == sum(range(15 - MOVING_AVG_WINDOW, 15)) / MOVING_AVG_WINDOW
    with pytest.raises(AttributeError):
        state.moving_avg = 1.0
    with pytest.raises(AttributeError):
        state.best_moving_avg = 1.0
    assert [f.name for f in fields(TrainState)] == ["returns"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
                | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=40))
def test_the_best_moving_average_is_the_running_maximum_a_training_loop_keeps(returns):
    """The best, derived from the returns, is what a loop that appends each return and
    keeps the moving average whenever it is strictly higher holds: -inf before any
    return, and the first of ties (a later equal average does not replace it)."""
    state, best = TrainState(), -math.inf
    for ret in returns:
        state.returns.append(ret)
        if state.moving_avg > best:
            best = state.moving_avg
    assert struct.pack("<d", TrainState(returns=list(returns)).best_moving_avg) == \
        struct.pack("<d", best)


def test_moving_average_is_the_mean_of_the_last_window_of_returns():
    assert moving_average([]) == 0.0
    assert moving_average([2.0, 4.0]) == 3.0
    returns = [float(r * r) for r in range(MOVING_AVG_WINDOW + 5)]
    assert moving_average(returns) == sum(returns[-MOVING_AVG_WINDOW:]) / MOVING_AVG_WINDOW
    assert moving_average(returns) == TrainState(returns=returns).moving_avg


def test_the_moving_average_window_holds_each_pattern_alike():
    """Training episode i plays `episode_traffic(seed, i)`'s pattern, so the last
    `MOVING_AVG_WINDOW` of n episodes hold three of each pattern, whatever n."""
    patterns = [episode_traffic(42, i)[0] for i in range(40)]
    for n in range(MOVING_AVG_WINDOW, 41):
        assert Counter(patterns[:n][-MOVING_AVG_WINDOW:]) == \
            {pattern: 3 for pattern in PATTERN_NAMES}, n


@pytest.fixture
def saved(tmp_path):
    """A checkpoint of 100 returns: (path, bytes, offset of the state struct)."""
    params = PpoAgent(NetDims(hidden1=8, hidden2=6), seed=3).params
    rng = np.random.default_rng(7)
    state = TrainState(returns=rng.normal(1.0, 0.3, N_RETURNS).tolist())
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


def test_a_saved_checkpoint_keeps_its_kisc2_bytes(saved):
    """An 8x6 network with 100 fixed returns saves to pinned KISC2 bytes, the best moving
    average derived from the returns in its slot."""
    path, raw, state_off, _, state = saved
    assert hashlib.sha256(raw).hexdigest()[:16] == "9a6a91931d2a8bc3"
    assert CHECKPOINT_STATE.unpack_from(raw, state_off) == \
        (N_RETURNS, N_RETURNS, state.moving_avg, state.best_moving_avg)


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
    episode_index, n, moving_avg, best = CHECKPOINT_STATE.unpack_from(raw, state_off)
    # -1e308 is the slot's -inf, the best before any return
    for stored in [(episode_index - 1, n, moving_avg, best),
                   (episode_index, n, moving_avg + 1e-9, best),
                   (episode_index, n, moving_avg, best + 1e-9),
                   (episode_index, n, moving_avg, -1e308)]:
        path.write_bytes(raw[:state_off] + CHECKPOINT_STATE.pack(*stored)
                         + raw[state_off + CHECKPOINT_STATE.size:])
        with pytest.raises(CheckpointError, match="contradict"):
            load_checkpoint(path)


def test_a_kisc1_checkpoint_is_a_version_mismatch(saved):
    """KISC1 stored a moving average over 10 episodes and a convergence episode after
    the best; a KISC2 reader refuses it rather than read either."""
    path, raw, state_off, _, state = saved
    kisc1_state = struct.pack("<IIddi", N_RETURNS, N_RETURNS, moving_average(state.returns[-10:]),
                              state.best_moving_avg, -1)
    path.write_bytes(b"KISC1" + raw[len(CHECKPOINT_MAGIC):state_off] + kisc1_state
                     + raw[state_off + CHECKPOINT_STATE.size:])
    with pytest.raises(CheckpointError,
                       match=re.escape("checkpoint version mismatch: b'KISC1' != b'KISC2'")):
        load_checkpoint(path)


N_INPUTS = len(OBS_FIELDS)


@pytest.mark.parametrize("header, shape", [
    ((11, 8, 6, 5, 5, 2), "11 inputs and heads (5, 5, 2)"),
    ((N_INPUTS, 8, 6, 5, 5, 3), f"{N_INPUTS} inputs and heads (5, 5, 3)"),
    ((N_INPUTS, 8, 6, 4, 4, 4), f"{N_INPUTS} inputs and heads (4, 4, 4)"),
    ((N_INPUTS, 8, 6, 6, 5, 1), f"{N_INPUTS} inputs and heads (6, 5, 1)"),
    ((10, 8, 6, 5, 5, 2), "10 inputs and heads (5, 5, 2)")])
def test_a_network_of_other_inputs_or_heads_than_the_envs_is_a_checkpoint_error(saved, header,
                                                                                  shape):
    """10 inputs is the width of the observation before it held each pool's Ready count."""
    path, raw, _, _, _ = saved
    magic = len(CHECKPOINT_MAGIC)
    path.write_bytes(raw[:magic] + CHECKPOINT_HEADER.pack(*header)
                     + raw[magic + CHECKPOINT_HEADER.size:])
    with pytest.raises(CheckpointError,
                       match=re.escape(f"has {shape}, not the env's {N_INPUTS} and (5, 5, 2)")):
        load_checkpoint(path)


@pytest.mark.parametrize("hidden", [(0, 0), (1, 0)])
def test_a_network_of_no_hidden_unit_is_a_checkpoint_error(tmp_path, hidden):
    """The config refuses hidden sizes below 1; a checkpoint saved from them loads as
    a constant policy of the head biases unless load_checkpoint refuses it too."""
    path = tmp_path / "hollow.kisc"
    save_checkpoint(PpoAgent(NetDims(*hidden)).params, TrainState(), path)
    with pytest.raises(CheckpointError, match=re.escape(
            f"has hidden sizes {hidden}, but the config's rule is hidden1 >= 1 and hidden2 >= 1")):
        load_checkpoint(path)


class Interrupted(Exception):
    pass


def interrupt_training_at(monkeypatch, k: int) -> list:
    """Make `train`'s episode k raise `Interrupted`; returns the list that gets the
    return of each episode played before it."""
    returns: list = []
    run = kisim.agent.run_episode

    def interrupted(env, agent, episode_index, steps, trace):
        if episode_index == k:
            raise Interrupted
        returns.append(run(env, agent, episode_index, steps, trace))
        return returns[-1]

    monkeypatch.setattr(kisim.agent, "run_episode", interrupted)
    return returns


def test_train_traces_each_training_step_once_and_no_greedy_evaluation(tmp_path,
                                                                          monkeypatch):
    """Four training episodes of 20 steps write 80 lines, one per (episode, step) in
    order, and `train` plays no episode besides them."""
    cfg = replace(ExperimentConfig(), episodes=4)
    played = interrupt_training_at(monkeypatch, cfg.episodes)   # an index it never reaches
    state = train(PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0), tmp_path)
    assert played == state.returns
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [(r["episode"], r["step"]) for r in records] == \
        [(ep, step) for ep in range(4) for step in range(1, 21)]


def test_each_trace_line_holds_the_reward_its_step_returned(tmp_path, monkeypatch):
    """A line's reward is `round(r, 9)` of the reward `env.step` returned for its step, and
    an episode's trace rewards sum to its logged return within that rounding, 5e-10 a step."""
    cfg = replace(SHORT, episodes=2)
    stepped: list = []
    step = ScalingEnv.step

    def recorded(env, action):
        result = step(env, action)
        stepped.append((env.step_index, result[1]))
        return result

    monkeypatch.setattr(ScalingEnv, "step", recorded)
    train(PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0), tmp_path)
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [(r["step"], r["reward"]) for r in records] == \
        [(index, round(reward, 9)) for index, reward in stepped]
    with (tmp_path / "training_log.csv").open() as fh:
        logged = [float(row["return"]) for row in csv.DictReader(fh)]
    assert len(logged) == 2 and len(records) == 2 * 4
    for episode, ret in enumerate(logged):
        rewards = [reward for (_, reward), r in zip(stepped, records) if r["episode"] == episode]
        assert sum(rewards) == ret      # the return is the stepped rewards' sum, in step order
        traced = [r["reward"] for r in records if r["episode"] == episode]
        assert abs(sum(traced) - ret) <= len(traced) * 5e-10


def test_the_state_train_returns_is_the_state_its_last_checkpoint_stores(tmp_path):
    cfg = replace(ExperimentConfig(), episodes=4, episode_s=60.0)
    state = train(PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0), tmp_path)
    assert load_checkpoint(tmp_path / "checkpoint.kisc")[1] == state
    assert state.episode_index == 4


@pytest.mark.parametrize("k", [1, 2, 5])
def test_an_interrupted_run_keeps_the_rows_of_every_episode_it_finished(k, tmp_path,
                                                                          monkeypatch):
    """Training episode k raises. training_log.csv then holds the rows an uninterrupted run
    at the same seed writes for episodes 0 to k - 1, byte for byte."""
    cfg = replace(ExperimentConfig(), episodes=6, episode_s=60.0)
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    whole.mkdir()
    cut.mkdir()
    train(PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0), whole)
    interrupt_training_at(monkeypatch, k)
    with pytest.raises(Interrupted):
        train(PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0), cut)
    lines = (whole / "training_log.csv").read_bytes().splitlines(keepends=True)
    assert (cut / "training_log.csv").read_bytes() == b"".join(lines[:1 + k])


def test_the_first_k_episodes_of_a_run_do_not_depend_on_its_length(tmp_path, monkeypatch):
    """`train` of k episodes writes the checkpoint of the weights and returns that a
    longer run at the same seed holds when its episode k begins, byte for byte."""
    k = 3
    cfg = replace(SHORT, episodes=6)
    train(PpoAgent(NetDims(hidden1=8, hidden2=6), replace(cfg, episodes=k), seed=0), tmp_path)
    longer = PpoAgent(NetDims(hidden1=8, hidden2=6), cfg, seed=0)
    returns = interrupt_training_at(monkeypatch, k)
    (tmp_path / "cut").mkdir()
    with pytest.raises(Interrupted):
        train(longer, tmp_path / "cut")
    save_checkpoint(longer.params, TrainState(returns), tmp_path / "cut.kisc")
    assert (tmp_path / "cut.kisc").read_bytes() == (tmp_path / "checkpoint.kisc").read_bytes()
