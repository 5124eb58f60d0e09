"""PPO autoscaling agent: rollouts, clipped-surrogate updates, checkpoints.

The actor emits three categorical heads (GPU delta, CPU delta, placement
preference); the critic is an independent value network. Updates run once
per episode by default over minibatches with normalized advantages.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import ExperimentConfig
from .env import ActionTriple, ScalingEnv
from .nn import (ActorCriticParams, Adam, NetDims, actor_forward, critic_forward,
                 log_softmax, ppo_loss_and_grads, tensor_shapes)
from .traffic import PATTERN_NAMES

CHECKPOINT_MAGIC = b"KISC1"
MOVING_AVG_WINDOW = 10   # episodes in the reported moving-average return


class AgentError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class LossReport:
    policy_loss: float
    value_loss: float
    entropy: float


class RolloutBuffer:
    """Per-step trajectory records; cleared after every policy update."""

    def __init__(self) -> None:
        self.obs: list[np.ndarray] = []
        self.actions: list[tuple[int, int, int]] = []
        self.log_probs: list[float] = []
        self.values: list[float] = []
        self.rewards: list[float] = []
        self.dones: list[bool] = []

    def add(self, obs: np.ndarray, action_heads: tuple[int, int, int],
            log_prob: float, value: float, reward: float, done: bool) -> None:
        self.obs.append(np.asarray(obs, dtype=np.float64))
        self.actions.append(action_heads)
        self.log_probs.append(log_prob)
        self.values.append(value)
        self.rewards.append(reward)
        self.dones.append(done)

    def __len__(self) -> int:
        return len(self.rewards)

    def clear(self) -> None:
        self.__init__()

    def as_batch(self, discount: float, gae_lambda: float) -> dict:
        advantages, returns = gae(self.rewards, self.values, self.dones,
                                  discount, gae_lambda)
        return {
            "obs": np.stack(self.obs),
            "actions": np.asarray(self.actions, dtype=np.int64),
            "old_logp": np.asarray(self.log_probs, dtype=np.float64),
            "advantages": advantages,
            "returns": returns,
        }


def gae(rewards, values, dones, gamma: float, lam: float,
        bootstrap_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation; returns (advantages, returns)."""
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
        next_value = v[t + 1] if t + 1 < n else bootstrap_value
        delta = r[t] + gamma * next_value * nonterminal - v[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + v


class PpoAgent:
    """Actor-critic policy with multi-discrete heads."""

    def __init__(self, dims: NetDims = NetDims(),
                 cfg: ExperimentConfig = ExperimentConfig(), seed: int = 0) -> None:
        self.dims = dims
        self.cfg = cfg
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.params = ActorCriticParams.initialize(dims, init_rng)
        self.optimizer = Adam(self.params, lr=cfg.ppo_lr)
        self._sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self._shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    # ---- acting ---------------------------------------------------------

    def _policy_forward(self, obs_vec: np.ndarray):
        p = self.params.as_float64()
        obs = np.asarray(obs_vec, dtype=np.float64).reshape(1, -1)
        logits, _ = actor_forward(p, obs)
        for lg in logits:
            if not np.all(np.isfinite(lg)):
                raise AgentError("non-finite policy logits (training diverged)")
        value, _ = critic_forward(p, obs)
        return logits, float(value[0])

    def sample_action(self, obs_vec: np.ndarray) -> tuple[ActionTriple, float, float]:
        logits, value = self._policy_forward(obs_vec)
        heads = []
        log_prob = 0.0
        for lg in logits:
            lp = log_softmax(lg)[0]
            idx = int(self._sample_rng.choice(len(lp), p=np.exp(lp)))
            heads.append(idx)
            log_prob += float(lp[idx])
        action = ActionTriple.from_heads(heads[0], heads[1], heads[2])
        return action, log_prob, value

    def greedy_action(self, obs_vec: np.ndarray) -> ActionTriple:
        logits, _ = self._policy_forward(obs_vec)
        heads = [int(np.argmax(lg[0])) for lg in logits]
        return ActionTriple.from_heads(heads[0], heads[1], heads[2])

    # ---- learning ---------------------------------------------------------

    def update(self, buffer: RolloutBuffer) -> LossReport:
        if len(buffer) == 0:
            raise AgentError("cannot update from an empty rollout buffer")
        cfg = self.cfg
        batch = buffer.as_batch(cfg.ppo_discount, cfg.ppo_gae_lambda)
        adv = batch["advantages"]
        batch["advantages"] = (adv - adv.mean()) / (adv.std() + 1e-8)

        n = len(buffer)
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
        buffer.clear()
        return LossReport(
            policy_loss=float(np.mean([r["policy_loss"] for r in reports])),
            value_loss=float(np.mean([r["value_loss"] for r in reports])),
            entropy=float(np.mean([r["entropy"] for r in reports])),
        )


# ---- training state and convergence ------------------------------------

@dataclass
class TrainState:
    episode_index: int = 0
    returns: list = field(default_factory=list)
    moving_avg: float = 0.0
    best_moving_avg: float = -math.inf
    converged_at: int = -1

    def record_return(self, value: float) -> float:
        self.returns.append(value)
        self.episode_index = len(self.returns)
        window = self.returns[-MOVING_AVG_WINDOW:]
        self.moving_avg = sum(window) / len(window)
        return self.moving_avg


def detect_convergence(state: TrainState, window: int = 20,
                       std_frac: float = 0.05, improve_frac: float = 0.01) -> bool:
    """Low variance and <1% window-over-window improvement."""
    returns = state.returns
    if len(returns) < 2 * window:
        return False
    last = np.asarray(returns[-window:], dtype=np.float64)
    prev = np.asarray(returns[-2 * window:-window], dtype=np.float64)
    mean_last = last.mean()
    if last.std() >= std_frac * abs(mean_last):
        return False
    improvement = (mean_last - prev.mean()) / max(abs(prev.mean()), 1e-12)
    return improvement < improve_frac


# ---- checkpointing ---------------------------------------------------------

def save_checkpoint(params: ActorCriticParams, state: TrainState,
                    path: str | Path) -> None:
    dims = params.dims
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<6I", dims.obs_dim, dims.hidden1, dims.hidden2,
                        *dims.heads)
    for name in tensor_shapes(dims):
        arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
        blob += arr.tobytes()
    returns = np.asarray(state.returns, dtype="<f8")
    blob += struct.pack("<IIddi", state.episode_index, len(returns),
                        state.moving_avg,
                        state.best_moving_avg if math.isfinite(state.best_moving_avg)
                        else -1e308,
                        state.converged_at)
    blob += returns.tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[ActorCriticParams, TrainState]:
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
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(dims).items():
        count = int(np.prod(shape))
        end = off + 4 * count
        if end > len(raw):
            raise CheckpointError(f"checkpoint {path} is truncated in tensor {name}")
        tensors[name] = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    episode_index, n_returns, moving_avg, best_avg, converged_at = \
        struct.unpack_from("<IIddi", raw, off)
    off += struct.calcsize("<IIddi")
    returns = np.frombuffer(raw[off:off + 8 * n_returns], dtype="<f8")
    state = TrainState(
        episode_index=episode_index,
        returns=[float(x) for x in returns],
        moving_avg=moving_avg,
        best_moving_avg=best_avg if best_avg > -1e307 else -math.inf,
        converged_at=converged_at,
    )
    return ActorCriticParams(dims, tensors), state


# ---- training loop -------------------------------------------------------

def run_episode(env: ScalingEnv, agent: PpoAgent, episode_index: int,
                buffer: Optional[RolloutBuffer] = None) -> float:
    """Play one episode; returns the undiscounted episode return.

    With a buffer the agent samples its actions and the buffer records them;
    without one it acts greedily."""
    obs = env.reset(episode_index)
    episode_return = 0.0
    done = False
    while not done:
        vec = obs.as_vector()
        if buffer is None:
            action = agent.greedy_action(vec)
        else:
            action, log_prob, value = agent.sample_action(vec)
        obs, breakdown, done = env.step(action)
        episode_return += breakdown.total
        if buffer is not None:
            heads = (action.d_gpu + 2, action.d_cpu + 2, action.pref)
            buffer.add(vec, heads, log_prob, value, breakdown.total, done)
    return episode_return


def train(env: ScalingEnv, agent: PpoAgent, episodes: int = 100,
          eval_every: int = 20,
          eval_env: Optional[ScalingEnv] = None,
          checkpoint_path: Optional[Path] = None,
          best_checkpoint_path: Optional[Path] = None,
          on_episode: Optional[Callable] = None,
          on_eval: Optional[Callable] = None) -> TrainState:
    """Train over rotating patterns with a PPO update each episode."""
    state = TrainState()
    buffer = RolloutBuffer()
    eval_round = 0
    for ep in range(episodes):
        episode_return = run_episode(env, agent, ep, buffer=buffer)
        losses = None
        if (ep + 1) % agent.cfg.ppo_update_every_episodes == 0:
            losses = agent.update(buffer)
        moving_avg = state.record_return(episode_return)
        if state.converged_at < 0 and detect_convergence(state):
            state.converged_at = state.episode_index
        if moving_avg > state.best_moving_avg:
            state.best_moving_avg = moving_avg
            if best_checkpoint_path is not None:
                save_checkpoint(agent.params, state, best_checkpoint_path)
        if on_episode is not None:
            on_episode(ep, env.pattern, episode_return, moving_avg, losses)
        if eval_every and (ep + 1) % eval_every == 0:
            eval_round += 1
            target_env = eval_env or env
            for p_idx, pattern in enumerate(PATTERN_NAMES):
                # EVAL_INDEX_BASE is a multiple of len(PATTERN_NAMES): reset() picks `pattern`
                eval_index = ScalingEnv.EVAL_INDEX_BASE + eval_round * len(PATTERN_NAMES) + p_idx
                ret = run_episode(target_env, agent, eval_index)
                if on_eval is not None:
                    on_eval(ep, eval_round, pattern, ret)
    if checkpoint_path is not None:
        save_checkpoint(agent.params, state, checkpoint_path)
    return state
