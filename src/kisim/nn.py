"""Minimal dense actor-critic networks with hand-written backprop, in float32.

No autograd framework: the actor ("a") and the critic ("c") are one two-layer
tanh trunk each, with the same forward and backward code, topped by categorical
heads of the env's `HEAD_SIZES` and one value output respectively, both fed its
`OBS_FIELDS`. The weights are C-contiguous float32 tensors, as checkpoints store
them. The forward, backward and loss compute in the dtype of the tensors they are
handed, so a float64 copy of the weights gets gradients exact enough for a
central finite-difference check.

Only `Adam.step` changes weights. Like the trunks with their activations and
gradients, it updates its float32 moments `m` and `v` and the tensors in place,
by the out-of-place formula's elementwise operations in its order, so to the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import HEAD_SIZES, OBS_FIELDS


@dataclass(frozen=True)
class NetDims:
    hidden1: int
    hidden2: int


def tensor_shapes(dims: NetDims) -> dict[str, tuple[int, ...]]:
    """Canonical tensor order; checkpoints and Adam state follow it."""
    def trunk(net: str) -> dict[str, tuple[int, ...]]:
        return {f"{net}_w1": (len(OBS_FIELDS), dims.hidden1), f"{net}_b1": (dims.hidden1,),
                f"{net}_w2": (dims.hidden1, dims.hidden2), f"{net}_b2": (dims.hidden2,)}

    shapes = trunk("a")
    for i, k in enumerate(HEAD_SIZES):
        shapes[f"h{i}_w"] = (dims.hidden2, k)
        shapes[f"h{i}_b"] = (k,)
    shapes.update(trunk("c"), c_w3=(dims.hidden2, 1), c_b3=(1,))
    return shapes


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class ActorCriticParams:
    """The actor-critic pair's weights, C-contiguous float32 tensors."""

    def __init__(self, dims: NetDims, tensors: dict[str, np.ndarray]) -> None:
        self.dims = dims
        self.tensors = {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in tensors.items()}
        shapes = {name: t.shape for name, t in self.tensors.items()}
        if shapes != tensor_shapes(dims):
            raise ValueError(f"tensor shapes {shapes} do not match the layout of {dims}")

    @classmethod
    def initialize(cls, dims: NetDims, rng: np.random.Generator) -> "ActorCriticParams":
        tensors: dict[str, np.ndarray] = {}
        for name, shape in tensor_shapes(dims).items():
            if name.endswith("_b") or len(shape) == 1:
                tensors[name] = np.zeros(shape)
                continue
            if name.startswith("h"):
                gain = 0.01     # near-uniform initial policy
            elif name == "c_w3":
                gain = 1.0
            else:
                gain = np.sqrt(2.0)
            tensors[name] = _orthogonal(rng, shape[0], shape[1], gain)
        return cls(dims, tensors)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _trunk(p: dict[str, np.ndarray], net: str, obs: np.ndarray):
    """Activation cache (obs, h1, h2) of the "a" or "c" trunk."""
    h1 = obs @ p[f"{net}_w1"]
    np.tanh(np.add(h1, p[f"{net}_b1"], out=h1), out=h1)
    h2 = h1 @ p[f"{net}_w2"]
    np.tanh(np.add(h2, p[f"{net}_b2"], out=h2), out=h2)
    return obs, h1, h2


def _trunk_backward(p: dict[str, np.ndarray], net: str, cache, dh2: np.ndarray,
                    grads: dict[str, np.ndarray]) -> None:
    """Adds the trunk's four gradients to `grads`, given d loss / d h2."""
    x, h1, h2 = cache
    dz2 = np.square(h2)
    np.multiply(dh2, np.subtract(1.0, dz2, out=dz2), out=dz2)   # dh2 * (1 - h2**2)
    grads[f"{net}_w2"] = h1.T @ dz2
    grads[f"{net}_b2"] = dz2.sum(axis=0)
    dz1 = np.square(h1)                                          # (dz2 @ w2.T) * (1 - h1**2)
    np.multiply(dz2 @ p[f"{net}_w2"].T, np.subtract(1.0, dz1, out=dz1), out=dz1)
    grads[f"{net}_w1"] = x.T @ dz1
    grads[f"{net}_b1"] = dz1.sum(axis=0)


def actor_forward(p: dict[str, np.ndarray], obs: np.ndarray):
    """Returns per-head logits and the activation cache for backprop."""
    cache = _trunk(p, "a", obs)
    logits = [cache[2] @ p[f"h{i}_w"] + p[f"h{i}_b"] for i in range(len(HEAD_SIZES))]
    return logits, cache


def critic_forward(p: dict[str, np.ndarray], obs: np.ndarray):
    cache = _trunk(p, "c", obs)
    return (cache[2] @ p["c_w3"] + p["c_b3"])[:, 0], cache


def ppo_loss_and_grads(p: dict[str, np.ndarray], batch: dict, clip_eps: float,
                       value_coef: float, entropy_coef: float):
    """Loss plus analytic gradients for every tensor."""
    obs = batch["obs"]
    actions = batch["actions"]
    adv = batch["advantages"]
    n = obs.shape[0]
    grads: dict[str, np.ndarray] = {}   # every tensor gets assigned below

    # ---- actor ----
    logits, cache = actor_forward(p, obs)
    h2 = cache[2]
    log_probs = [log_softmax(lg) for lg in logits]
    probs = [np.exp(lp) for lp in log_probs]
    new_logp = np.zeros(n, dtype=h2.dtype)
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
    _trunk_backward(p, "a", cache, dh2, grads)

    # ---- critic ----
    values, cache = critic_forward(p, obs)
    err = values - batch["returns"]
    value_loss = np.mean(err ** 2)
    dvalues = value_coef * 2.0 * err / n
    grads["c_w3"] = cache[2].T @ dvalues[:, None]
    grads["c_b3"] = np.array([dvalues.sum()])
    _trunk_backward(p, "c", cache, dvalues[:, None] @ p["c_w3"].T, grads)

    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    parts = {"policy_loss": float(policy_loss),
             "value_loss": float(value_loss),
             "entropy": float(entropy)}
    return total, parts, grads


class Adam:
    """Standard first-order adaptive-moment optimizer."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ActorCriticParams, lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}

    def step(self, params: ActorCriticParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m, v = self.m[name], self.v[name]
            step = np.multiply(g, 1.0 - self.beta1)
            np.add(np.multiply(m, self.beta1, out=m), step, out=m)  # m = beta1*m + (1-beta1)*g
            np.multiply(np.multiply(g, 1.0 - self.beta2, out=step), g, out=step)
            np.add(np.multiply(v, self.beta2, out=v), step, out=v)  # v = beta2*v + ((1-beta2)*g)*g
            np.add(np.sqrt(np.divide(v, bc2, out=step), out=step), self.eps, out=step)
            update = np.divide(m, bc1)                  # lr*(m/bc1) / (sqrt(v/bc2) + eps)
            np.divide(np.multiply(self.lr, update, out=update), step, out=update)
            np.subtract(params.tensors[name], update, out=params.tensors[name])
