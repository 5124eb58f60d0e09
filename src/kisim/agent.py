"""PPO autoscaling agent: rollouts, clipped-surrogate updates, training, checkpoints.

The actor emits three categorical heads (GPU delta, CPU delta, placement
preference); the critic is an independent value network. Updates run once
per episode by default over minibatches with normalized advantages. Acting runs
the actor alone: a rollout is a list of `(obs, heads, log_prob, reward, done)`
steps, `heads` the drawn head indices, that `update` values in one stacked critic
pass. Both compute in float32, the weights' dtype, on the env's observations cast once.
`train(agent, out)` is a training run's one writer: each episode's trace lines and log row
as it ends, the checkpoint at the end; it returns the `TrainState` the checkpoint stores.
"""

from __future__ import annotations

import bisect
import csv
import math
import struct
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .env import (ACTIONS, HEAD_SIZES, OBS_FIELDS, ActionTriple, ScalingEnv, episode_traffic,
                  trace_line)
from .nn import (ActorCriticParams, Adam, NetDims, actor_forward, critic_forward, log_softmax,
                 ppo_loss_and_grads, tensor_shapes)
from .traffic import PATTERN_NAMES

CHECKPOINT_MAGIC = b"KISC2"
CHECKPOINT_HEADER = struct.Struct("<6I")    # inputs, hidden1, hidden2, the three head sizes
CHECKPOINT_STATE = struct.Struct("<IIdd")   # episode_index, n_returns, moving_avg, best
# `_actor` pads each head to a row of max(HEAD_SIZES) with -inf; every head but the last
# is that wide already, so one block after the last fills its row
_PAD = np.full((1, len(HEAD_SIZES) * max(HEAD_SIZES) - sum(HEAD_SIZES)), -np.inf, np.float32)
MOVING_AVG_WINDOW = 3 * len(PATTERN_NAMES)  # episodes averaged: 3 rotations, each pattern alike


class AgentError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class LossReport:
    policy_loss: float
    value_loss: float
    entropy: float


def gae(rewards, values, dones, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation, valuing the state after the last
    step at 0; returns (advantages, returns)."""
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=np.float64)
    if not (len(r) == len(v) == len(d)):
        raise ValueError("rewards, values and dones must have equal length")
    n = len(r)
    adv = np.zeros(n, dtype=np.float64)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - d[t]
        next_value = v[t + 1] if t + 1 < n else 0.0
        delta = r[t] + gamma * next_value * nonterminal - v[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + v


class PpoAgent:
    """Actor-critic policy with multi-discrete heads."""

    def __init__(self, net: NetDims | ActorCriticParams | None = None,
                 cfg: ExperimentConfig = ExperimentConfig(), seed: int = 0) -> None:
        """`net` is trained weights, or the shape of fresh ones (by default the config's)."""
        if isinstance(net, ActorCriticParams):
            self.params = net
        else:
            init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            self.params = ActorCriticParams.initialize(
                net or NetDims(hidden1=cfg.hidden1, hidden2=cfg.hidden2), init_rng)
        self.cfg = cfg
        self.optimizer = Adam(self.params, lr=cfg.ppo_lr)
        self._sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self._shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    # ---- acting ---------------------------------------------------------

    def _actor(self, obs_vec: np.ndarray) -> np.ndarray:
        """The logits: head i's fill row i, and -inf the slots past its size."""
        obs = np.asarray(obs_vec, dtype=np.float32).reshape(1, -1)
        logits, _ = actor_forward(self.params.tensors, obs)
        z = np.concatenate((*logits, _PAD), axis=1).reshape(len(HEAD_SIZES), -1)
        if np.count_nonzero(np.isfinite(z)) != sum(HEAD_SIZES):
            raise AgentError("non-finite policy logits (training diverged)")
        return z

    def sample_action(self, obs_vec: np.ndarray) -> tuple[ActionTriple, tuple, float]:
        """(action, drawn head indices, their joint log-probability). Each head is
        drawn as `Generator.choice(k, p=exp(lp))` draws it, by one uniform's inverse
        CDF. A -inf slot adds 0 to its row's CDF, which so stays at 1 > u past the head."""
        lp = log_softmax(self._actor(obs_vec))
        heads = []
        log_prob = 0.0
        for lp_row, cdf, u in zip(lp.tolist(), np.add.accumulate(np.exp(lp), axis=1).tolist(),
                                  self._sample_rng.random(len(HEAD_SIZES)).tolist()):
            idx = bisect.bisect_right(cdf, u, key=cdf[-1].__rtruediv__)    # cdf / cdf[-1]
            heads.append(idx)
            log_prob += lp_row[idx]
        heads = tuple(heads)
        return ACTIONS[heads], heads, log_prob

    def greedy_action(self, obs_vec: np.ndarray) -> ActionTriple:
        return ACTIONS[tuple(self._actor(obs_vec).argmax(axis=1).tolist())]

    # a policy of env.run_policy_episode, on the config's init pods
    name = "kiscaler"
    pods = None

    def act(self, obs_vec: np.ndarray, env: ScalingEnv) -> ActionTriple:
        return self.greedy_action(obs_vec)

    # ---- learning ---------------------------------------------------------

    def update(self, steps: list) -> LossReport:
        """PPO epochs over the rollout `steps`, which it then empties."""
        if not steps:
            raise AgentError("cannot update from an empty rollout")
        cfg = self.cfg
        obs, heads, log_probs, rewards, dones = zip(*steps)
        obs = np.array(obs, dtype=np.float32)
        # each step's value under the weights that acted it (only update writes weights, and it
        # empties `steps`); matmul over the (n, 1, k) stack runs each row's own gemv (a dot at
        # the value head), so each keeps a one-row forward's bits; an (n, k) gemm would move them
        values = critic_forward(self.params.tensors, obs[:, None, :])[0][:, 0]
        adv, returns = gae(rewards, values, dones, cfg.ppo_discount, cfg.ppo_gae_lambda)
        batch = {"obs": obs,
                 "actions": np.asarray(heads, dtype=np.int64),
                 "old_logp": np.asarray(log_probs, dtype=np.float32),
                 "advantages": ((adv - adv.mean()) / (adv.std() + 1e-8)).astype(np.float32),
                 "returns": returns.astype(np.float32)}

        n = len(steps)
        reports: list[dict] = []
        for _ in range(cfg.ppo_epochs):
            order = self._shuffle_rng.permutation(n)
            for start in range(0, n, cfg.ppo_minibatch):
                idx = order[start:start + cfg.ppo_minibatch]
                mini = {k: v[idx] for k, v in batch.items()}
                total, parts, grads = ppo_loss_and_grads(
                    self.params.tensors, mini, cfg.ppo_clip, cfg.ppo_value_coef,
                    cfg.ppo_entropy_coef)
                if not math.isfinite(total):
                    raise AgentError(
                        f"non-finite PPO loss {total!r} (parts={parts})")
                self.optimizer.step(self.params, grads)
                reports.append(parts)
        steps.clear()
        return LossReport(
            policy_loss=float(np.mean([r["policy_loss"] for r in reports])),
            value_loss=float(np.mean([r["value_loss"] for r in reports])),
            entropy=float(np.mean([r["entropy"] for r in reports])),
        )


# ---- training state ---------------------------------------------------------

@dataclass
class TrainState:
    """A training run's state, exactly what a checkpoint stores: each episode's return."""
    returns: list = field(default_factory=list)

    @property
    def episode_index(self) -> int:
        return len(self.returns)

    @property
    def moving_avg(self) -> float:
        return moving_average(self.returns)

    @property
    def best_moving_avg(self) -> float:
        """The highest moving average after any episode, the first of ties; -inf before one."""
        return max([-math.inf] + [moving_average(self.returns[max(0, n - MOVING_AVG_WINDOW):n])
                                  for n in range(1, self.episode_index + 1)])


def moving_average(returns: list) -> float:
    """Mean of the last `MOVING_AVG_WINDOW` returns; 0.0 for none."""
    window = returns[-MOVING_AVG_WINDOW:]
    return sum(window) / len(window) if window else 0.0


# ---- checkpointing ---------------------------------------------------------

def _state_fields(state: TrainState) -> tuple:
    """`CHECKPOINT_STATE`'s fields, each read from the returns; a best of -inf is -1e308."""
    return (state.episode_index, len(state.returns), state.moving_avg,
            max(state.best_moving_avg, -1e308))


def save_checkpoint(params: ActorCriticParams, state: TrainState,
                    path: str | Path) -> None:
    dims = params.dims
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += CHECKPOINT_HEADER.pack(len(OBS_FIELDS), dims.hidden1, dims.hidden2, *HEAD_SIZES)
    for name in tensor_shapes(dims):
        blob += np.ascontiguousarray(params.tensors[name], dtype="<f4").tobytes()
    blob += CHECKPOINT_STATE.pack(*_state_fields(state))
    blob += np.asarray(state.returns, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[ActorCriticParams, TrainState]:
    """Read a KISC2 file; a wrong shape or length or an inconsistent state is a CheckpointError."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + CHECKPOINT_HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if raw[:4] == CHECKPOINT_MAGIC[:4] and raw[:5] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint version mismatch: {raw[:5]!r} != {CHECKPOINT_MAGIC!r}")
    if raw[:5] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic {raw[:5]!r})")
    n_inputs, h1, h2, *heads = CHECKPOINT_HEADER.unpack_from(raw, len(CHECKPOINT_MAGIC))
    if (n_inputs, tuple(heads)) != (len(OBS_FIELDS), HEAD_SIZES):
        raise CheckpointError(f"checkpoint {path} has {n_inputs} inputs and heads {tuple(heads)}, "
                              f"not the env's {len(OBS_FIELDS)} and {HEAD_SIZES}")
    if min(h1, h2) < 1:     # the config's rule: a network of no unit is refused
        raise CheckpointError(f"checkpoint {path} has hidden sizes {(h1, h2)}, but the "
                              "config's rule is hidden1 >= 1 and hidden2 >= 1")
    off = len(CHECKPOINT_MAGIC) + CHECKPOINT_HEADER.size
    dims = NetDims(hidden1=h1, hidden2=h2)
    shapes = tensor_shapes(dims)
    state_off = off + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) < state_off + CHECKPOINT_STATE.size:
        raise CheckpointError(f"checkpoint {path} is truncated before its training state")
    stored = CHECKPOINT_STATE.unpack_from(raw, state_off)
    n_returns = stored[1]
    returns_off = state_off + CHECKPOINT_STATE.size
    if len(raw) != returns_off + 8 * n_returns:
        raise CheckpointError(f"checkpoint {path} is {len(raw)} bytes, expected "
                              f"{returns_off + 8 * n_returns} for {n_returns} returns")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        end = off + 4 * math.prod(shape)
        tensors[name] = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    state = TrainState(np.frombuffer(raw, dtype="<f8", offset=returns_off).tolist())
    if stored != _state_fields(state):
        raise CheckpointError(f"checkpoint {path} stores {stored}, which its returns contradict")
    return ActorCriticParams(dims, tensors), state


# ---- training loop -------------------------------------------------------

def run_episode(env: ScalingEnv, agent: PpoAgent, episode_index: int,
                steps: list, trace) -> float:
    """Play one sampled episode; returns the undiscounted episode return, `env.episode_return`.

    Appends each step to `steps` and writes its `trace_line`, the reward as stepped, to `trace`."""
    obs = env.reset_to(*episode_traffic(env.config.seed, episode_index))
    done = False
    while not done:
        action, heads, log_prob = agent.sample_action(obs)
        next_obs, reward, done = env.step(action)
        trace.write(trace_line(episode_index, env.step_index, env.pattern, next_obs.tolist(),
                               action, reward, env.desired, env.row["users"]))
        steps.append((obs, heads, log_prob, reward, done))
        obs = next_obs
    return env.episode_return


def train(agent: PpoAgent, out: str | Path) -> TrainState:
    """Train `cfg.episodes` traced episodes over rotating patterns, updating every
    `cfg.ppo_update_every_episodes`. Writes each episode's out/trace.jsonl lines and its
    row of out/training_log.csv as it ends, so an interrupted run keeps them, and
    out/checkpoint.kisc, the run's weights, at the end."""
    cfg = agent.cfg
    out = Path(out)
    env = ScalingEnv(cfg)
    state = TrainState()
    steps: list = []
    with ((out / "trace.jsonl").open("w") as trace,
          (out / "training_log.csv").open("w", newline="") as log_file):
        log = csv.writer(log_file)      # writes a float as its repr and any other value as its str
        log.writerow(("episode", "pattern", "return", "moving_avg",
                      "policy_loss", "value_loss", "entropy"))
        for ep in range(cfg.episodes):
            ret = run_episode(env, agent, ep, steps, trace)
            state.returns.append(ret)
            update_due = (ep + 1) % cfg.ppo_update_every_episodes == 0
            losses = agent.update(steps) if update_due else None
            log.writerow((ep, env.pattern, ret, state.moving_avg,
                          *(astuple(losses) if losses else ("", "", ""))))
    save_checkpoint(agent.params, state, out / "checkpoint.kisc")
    return state
