"""Minimal dense actor-critic networks with hand-written backprop.

Weights are stored float32; all math runs in float64 so the analytic
gradients survive a central finite-difference check. No autograd framework:
the whole model is two tanh MLPs plus three categorical heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEAD_SIZES = (5, 5, 2)


@dataclass(frozen=True)
class NetDims:
    obs_dim: int = 10
    hidden1: int = 256
    hidden2: int = 250
    heads: tuple[int, ...] = HEAD_SIZES


def tensor_shapes(dims: NetDims) -> dict[str, tuple[int, ...]]:
    """Canonical tensor order; checkpoints and Adam state follow it."""
    shapes: dict[str, tuple[int, ...]] = {
        "a_w1": (dims.obs_dim, dims.hidden1), "a_b1": (dims.hidden1,),
        "a_w2": (dims.hidden1, dims.hidden2), "a_b2": (dims.hidden2,),
    }
    for i, k in enumerate(dims.heads):
        shapes[f"h{i}_w"] = (dims.hidden2, k)
        shapes[f"h{i}_b"] = (k,)
    shapes.update({
        "c_w1": (dims.obs_dim, dims.hidden1), "c_b1": (dims.hidden1,),
        "c_w2": (dims.hidden1, dims.hidden2), "c_b2": (dims.hidden2,),
        "c_w3": (dims.hidden2, 1), "c_b3": (1,),
    })
    return shapes


def formula_param_count(dims: NetDims) -> int:
    """Closed-form parameter count for the actor + critic pair."""
    actor = (dims.obs_dim * dims.hidden1 + dims.hidden1
             + dims.hidden1 * dims.hidden2 + dims.hidden2
             + sum(dims.hidden2 * k + k for k in dims.heads))
    critic = (dims.obs_dim * dims.hidden1 + dims.hidden1
              + dims.hidden1 * dims.hidden2 + dims.hidden2
              + dims.hidden2 + 1)
    return actor + critic


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).astype(np.float32)


class ActorCriticParams:
    """Float32 parameter store for the actor-critic pair."""

    def __init__(self, dims: NetDims, tensors: dict[str, np.ndarray]) -> None:
        self.dims = dims
        self.tensors = tensors
        counted = sum(int(t.size) for t in tensors.values())
        expected = formula_param_count(dims)
        if counted != expected:
            raise ValueError(f"parameter count mismatch: {counted} != formula {expected}")

    @classmethod
    def initialize(cls, dims: NetDims, rng: np.random.Generator) -> "ActorCriticParams":
        tensors: dict[str, np.ndarray] = {}
        for name, shape in tensor_shapes(dims).items():
            if name.endswith("_b") or len(shape) == 1:
                tensors[name] = np.zeros(shape, dtype=np.float32)
                continue
            if name.startswith("h"):
                gain = 0.01     # near-uniform initial policy
            elif name == "c_w3":
                gain = 1.0
            else:
                gain = np.sqrt(2.0)
            tensors[name] = _orthogonal(rng, shape[0], shape[1], gain)
        return cls(dims, tensors)

    def as_float64(self) -> dict[str, np.ndarray]:
        return {k: v.astype(np.float64) for k, v in self.tensors.items()}


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def actor_forward(p: dict[str, np.ndarray], obs: np.ndarray):
    """Returns per-head logits and the activation cache for backprop."""
    h1 = np.tanh(obs @ p["a_w1"] + p["a_b1"])
    h2 = np.tanh(h1 @ p["a_w2"] + p["a_b2"])
    logits = [h2 @ p[f"h{i}_w"] + p[f"h{i}_b"] for i in range(len(HEAD_SIZES))]
    return logits, (obs, h1, h2)

def critic_forward(p: dict[str, np.ndarray], obs: np.ndarray):
    h1 = np.tanh(obs @ p["c_w1"] + p["c_b1"])
    h2 = np.tanh(h1 @ p["c_w2"] + p["c_b2"])
    values = (h2 @ p["c_w3"] + p["c_b3"])[:, 0]
    return values, (obs, h1, h2)


def ppo_loss_and_grads(p: dict[str, np.ndarray], batch: dict, clip_eps: float,
                       value_coef: float, entropy_coef: float):
    """Loss plus analytic gradients for every tensor."""
    obs = batch["obs"]
    actions = batch["actions"]
    adv = batch["advantages"]
    n = obs.shape[0]
    grads = {k: np.zeros_like(v) for k, v in p.items()}

    # ---- actor ----
    logits, (x, h1, h2) = actor_forward(p, obs)
    log_probs = [log_softmax(lg) for lg in logits]
    probs = [np.exp(lp) for lp in log_probs]
    new_logp = np.zeros(n, dtype=np.float64)
    for i, lp in enumerate(log_probs):
        new_logp += lp[np.arange(n), actions[:, i]]
    ratio = np.exp(new_logp - batch["old_logp"])
    unclipped = ratio * adv
    clipped_ratio = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    clipped = clipped_ratio * adv
    policy_loss = -np.minimum(unclipped, clipped).mean()
    inside = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    take_unclipped = unclipped <= clipped
    dobj_dratio = np.where(take_unclipped, adv, adv * inside)
    # d policy_loss / d new_logp, via d ratio / d logp = ratio
    g_logp = -(dobj_dratio * ratio) / n

    entropies = [-(pr * lp).sum(axis=1) for pr, lp in zip(probs, log_probs)]
    entropy = sum(e.mean() for e in entropies)

    dh2 = np.zeros_like(h2)
    for i, (lg, lp, pr) in enumerate(zip(logits, log_probs, probs)):
        onehot = np.zeros_like(pr)
        onehot[np.arange(n), actions[:, i]] = 1.0
        dlogits = g_logp[:, None] * (onehot - pr)
        # entropy term: d(-ec * mean(H)) / dz = (ec/n) * p * (log p + H)
        dlogits += (entropy_coef / n) * pr * (lp + entropies[i][:, None])
        grads[f"h{i}_w"] = h2.T @ dlogits
        grads[f"h{i}_b"] = dlogits.sum(axis=0)
        dh2 += dlogits @ p[f"h{i}_w"].T
    dz2 = dh2 * (1.0 - h2 ** 2)
    grads["a_w2"] = h1.T @ dz2
    grads["a_b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ p["a_w2"].T
    dz1 = dh1 * (1.0 - h1 ** 2)
    grads["a_w1"] = x.T @ dz1
    grads["a_b1"] = dz1.sum(axis=0)

    # ---- critic ----
    values, (xc, ch1, ch2) = critic_forward(p, obs)
    err = values - batch["returns"]
    value_loss = np.mean(err ** 2)
    dvalues = value_coef * 2.0 * err / n
    grads["c_w3"] = ch2.T @ dvalues[:, None]
    grads["c_b3"] = np.array([dvalues.sum()])
    dch2 = dvalues[:, None] @ p["c_w3"].T
    dcz2 = dch2 * (1.0 - ch2 ** 2)
    grads["c_w2"] = ch1.T @ dcz2
    grads["c_b2"] = dcz2.sum(axis=0)
    dch1 = dcz2 @ p["c_w2"].T
    dcz1 = dch1 * (1.0 - ch1 ** 2)
    grads["c_w1"] = xc.T @ dcz1
    grads["c_b1"] = dcz1.sum(axis=0)

    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    parts = {"policy_loss": float(policy_loss),
             "value_loss": float(value_loss),
             "entropy": float(entropy)}
    return total, parts, grads


class Adam:
    """Standard first-order adaptive-moment optimizer."""

    def __init__(self, params: ActorCriticParams, lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(v.shape, dtype=np.float64) for k, v in params.tensors.items()}
        self.v = {k: np.zeros(v.shape, dtype=np.float64) for k, v in params.tensors.items()}

    def step(self, params: ActorCriticParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            params.tensors[name] = (
                params.tensors[name].astype(np.float64) - update).astype(np.float32)
