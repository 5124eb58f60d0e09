"""PPO autoscaling agent: rollouts, clipped-surrogate updates, training, checkpoints.

The actor emits three categorical heads (GPU delta, CPU delta, placement
preference); the critic is an independent value network. Updates run once
per episode by default over minibatches with normalized advantages. A
rollout is a plain list of `(obs, heads, log_prob, value, reward, done)`
steps, `heads` being the drawn head indices. `train` runs the schedule in
the agent's config and returns a `TrainState`, the one record of the run.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .env import ActionTriple, ScalingEnv, episode_traffic
from .nn import (HEAD_SIZES, ActorCriticParams, Adam, NetDims, actor_forward, critic_forward,
                 log_softmax, ppo_loss_and_grads, tensor_shapes)
from .traffic import PATTERN_NAMES

CHECKPOINT_MAGIC = b"KISC1"
CHECKPOINT_STATE = struct.Struct("<IIddi")  # episode_index, n_returns, moving_avg, best, converged_at
# `_actor` pads each head to a row of max(HEAD_SIZES) with -inf; every head but the last
# is that wide already, so one block after the last fills its row
_PAD = np.full((1, len(HEAD_SIZES) * max(HEAD_SIZES) - sum(HEAD_SIZES)), -np.inf)
MOVING_AVG_WINDOW = 10   # episodes in the reported moving-average return
CONVERGENCE_WINDOW = 20          # detect_convergence compares two such windows,
CONVERGENCE_STD_FRAC = 0.05      # wants the last one's std under 5% of its mean
CONVERGENCE_IMPROVE_FRAC = 0.01  # and its mean under 1% above the previous one's


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

    def _actor(self, obs_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(obs row, logits): head i's fill row i, and -inf the slots past its size."""
        obs = np.asarray(obs_vec, dtype=np.float64).reshape(1, -1)
        logits, _ = actor_forward(self.params.as_float64(), obs)
        z = np.concatenate((*logits, _PAD), axis=1).reshape(len(HEAD_SIZES), -1)
        if np.count_nonzero(np.isfinite(z)) != sum(HEAD_SIZES):
            raise AgentError("non-finite policy logits (training diverged)")
        return obs, z

    def sample_action(self, obs_vec: np.ndarray) -> tuple[ActionTriple, tuple, float, float]:
        """(action, drawn head indices, their joint log-probability, value). Each head
        is drawn as `Generator.choice(k, p=exp(lp))` draws it, by one uniform's inverse
        CDF. A -inf slot adds 0 to its row's CDF, which so stays at 1 > u past the head."""
        obs, z = self._actor(obs_vec)
        value, _ = critic_forward(self.params.as_float64(), obs)
        lp = log_softmax(z)
        heads = []
        log_prob = 0.0
        for lp_row, cdf, u in zip(lp.tolist(), np.add.accumulate(np.exp(lp), axis=1).tolist(),
                                  self._sample_rng.random(len(HEAD_SIZES)).tolist()):
            idx = bisect.bisect_right(cdf, u, key=cdf[-1].__rtruediv__)    # cdf / cdf[-1]
            heads.append(idx)
            log_prob += lp_row[idx]
        return ActionTriple.from_heads(*heads), tuple(heads), log_prob, float(value[0])

    def greedy_action(self, obs_vec: np.ndarray) -> ActionTriple:
        return ActionTriple.from_heads(*self._actor(obs_vec)[1].argmax(axis=1).tolist())

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
        obs, heads, log_probs, values, rewards, dones = zip(*steps)
        adv, returns = gae(rewards, values, dones, cfg.ppo_discount, cfg.ppo_gae_lambda)
        batch = {"obs": np.stack(obs),
                 "actions": np.asarray(heads, dtype=np.int64),
                 "old_logp": np.asarray(log_probs, dtype=np.float64),
                 "advantages": (adv - adv.mean()) / (adv.std() + 1e-8),
                 "returns": returns}

        n = len(steps)
        reports: list[dict] = []
        for _ in range(cfg.ppo_epochs):
            order = self._shuffle_rng.permutation(n)
            for start in range(0, n, cfg.ppo_minibatch):
                idx = order[start:start + cfg.ppo_minibatch]
                mini = {k: v[idx] for k, v in batch.items()}
                p64 = self.params.as_float64()
                total, parts, grads = ppo_loss_and_grads(
                    p64, mini, cfg.ppo_clip, cfg.ppo_value_coef,
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


# ---- training state and convergence ------------------------------------

@dataclass
class TrainState:
    """What a training run produced. `log` holds (pattern, moving_avg, losses
    or None) per episode and `evals` (episode, round, pattern, return) per
    greedy episode; checkpoints keep neither."""
    returns: list = field(default_factory=list)
    best_moving_avg: float = -math.inf
    converged_at: int = -1
    log: list = field(default_factory=list)
    evals: list = field(default_factory=list)

    @property
    def episode_index(self) -> int:
        return len(self.returns)

    @property
    def moving_avg(self) -> float:
        return moving_average(self.returns)


def moving_average(returns: list) -> float:
    """Mean of the last `MOVING_AVG_WINDOW` returns; 0.0 for none."""
    window = returns[-MOVING_AVG_WINDOW:]
    return sum(window) / len(window) if window else 0.0


def detect_convergence(state: TrainState) -> bool:
    """Low variance and <1% window-over-window improvement."""
    returns = state.returns
    window = CONVERGENCE_WINDOW
    if len(returns) < 2 * window:
        return False
    last = np.asarray(returns[-window:], dtype=np.float64)
    prev = np.asarray(returns[-2 * window:-window], dtype=np.float64)
    mean_last = last.mean()
    if last.std() >= CONVERGENCE_STD_FRAC * abs(mean_last):
        return False
    improvement = (mean_last - prev.mean()) / max(abs(prev.mean()), 1e-12)
    return improvement < CONVERGENCE_IMPROVE_FRAC


# ---- checkpointing ---------------------------------------------------------

def save_checkpoint(params: ActorCriticParams, state: TrainState,
                    path: str | Path) -> None:
    dims = params.dims
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<6I", dims.obs_dim, dims.hidden1, dims.hidden2,
                        *dims.heads)
    for name in tensor_shapes(dims):
        arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
        blob += arr.tobytes()
    returns = np.asarray(state.returns, dtype="<f8")
    blob += CHECKPOINT_STATE.pack(
        state.episode_index, len(returns), state.moving_avg,
        state.best_moving_avg if math.isfinite(state.best_moving_avg) else -1e308,
        state.converged_at)
    blob += returns.tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[ActorCriticParams, TrainState]:
    """Read a KISC1 file; any wrong length or inconsistent state is a CheckpointError."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 24:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if raw[:4] == CHECKPOINT_MAGIC[:4] and raw[:5] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint version mismatch: {raw[:5]!r} != {CHECKPOINT_MAGIC!r}")
    if raw[:5] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic {raw[:5]!r})")
    off = 5
    obs_dim, h1, h2, k0, k1, k2 = struct.unpack_from("<6I", raw, off)
    off += struct.calcsize("<6I")
    dims = NetDims(obs_dim=obs_dim, hidden1=h1, hidden2=h2, heads=(k0, k1, k2))
    shapes = tensor_shapes(dims)
    state_off = off + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) < state_off + CHECKPOINT_STATE.size:
        raise CheckpointError(f"checkpoint {path} is truncated before its training state")
    episode_index, n_returns, moving_avg, best_avg, converged_at = \
        CHECKPOINT_STATE.unpack_from(raw, state_off)
    returns_off = state_off + CHECKPOINT_STATE.size
    if len(raw) != returns_off + 8 * n_returns:
        raise CheckpointError(f"checkpoint {path} is {len(raw)} bytes, expected "
                              f"{returns_off + 8 * n_returns} for {n_returns} returns")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        end = off + 4 * math.prod(shape)
        tensors[name] = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    state = TrainState(
        returns=np.frombuffer(raw, dtype="<f8", offset=returns_off).tolist(),
        best_moving_avg=best_avg if best_avg > -1e307 else -math.inf,
        converged_at=converged_at,
    )
    if (episode_index, moving_avg) != (state.episode_index, state.moving_avg):
        raise CheckpointError(f"checkpoint {path} stores episode_index/moving_avg "
                              f"{episode_index}/{moving_avg!r} that its returns contradict")
    return ActorCriticParams(dims, tensors), state


# ---- training loop -------------------------------------------------------

def run_episode(env: ScalingEnv, agent: PpoAgent, episode_index: int,
                steps: list | None = None) -> float:
    """Play one episode; returns the undiscounted episode return.

    With a `steps` list the agent samples its actions and each step is
    appended to it; without one it acts greedily."""
    obs = env.reset_to(*episode_traffic(env.config.seed, episode_index),
                       episode_index=episode_index)
    episode_return = 0.0
    done = False
    while not done:
        if steps is None:
            action = agent.greedy_action(obs)
        else:
            action, heads, log_prob, value = agent.sample_action(obs)
        next_obs, reward, done = env.step(action)
        episode_return += reward
        if steps is not None:
            steps.append((obs, heads, log_prob, value, reward, done))
        obs = next_obs
    return episode_return


def train(env: ScalingEnv, agent: PpoAgent, out: str | Path) -> TrainState:
    """Train `cfg.episodes` episodes over rotating patterns, updating every
    `cfg.ppo_update_every_episodes`, and play one greedy episode per pattern
    on an untraced env every `cfg.eval_every`. Writes out/checkpoint_best.kisc
    whenever the moving average improves and out/checkpoint.kisc at the end."""
    cfg = agent.cfg
    eval_env = ScalingEnv(cfg)
    state = TrainState()
    steps: list = []
    for ep in range(cfg.episodes):
        state.returns.append(run_episode(env, agent, ep, steps=steps))
        update_due = (ep + 1) % cfg.ppo_update_every_episodes == 0
        losses = agent.update(steps) if update_due else None
        state.log.append((env.pattern, state.moving_avg, losses))
        if state.converged_at < 0 and detect_convergence(state):
            state.converged_at = state.episode_index
        if state.moving_avg > state.best_moving_avg:
            state.best_moving_avg = state.moving_avg
            save_checkpoint(agent.params, state, Path(out) / "checkpoint_best.kisc")
        if cfg.eval_every and (ep + 1) % cfg.eval_every == 0:
            eval_round = (ep + 1) // cfg.eval_every
            for p_idx, pattern in enumerate(PATTERN_NAMES):
                # a multiple of len(PATTERN_NAMES) plus p_idx: episode_traffic picks `pattern`
                eval_index = ScalingEnv.EVAL_INDEX_BASE + eval_round * len(PATTERN_NAMES) + p_idx
                state.evals.append(
                    (ep, eval_round, pattern, run_episode(eval_env, agent, eval_index)))
    save_checkpoint(agent.params, state, Path(out) / "checkpoint.kisc")
    return state
