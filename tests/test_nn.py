import numpy as np
import pytest

from kisim.nn import (ActorCriticParams, NetDims, actor_forward, critic_forward,
                      log_softmax, ppo_loss_and_grads)

CLIP, VALUE_COEF, ENTROPY_COEF = 0.2, 0.5, 0.01


# ---- gradient oracle: the PPO loss written directly, without backprop ------

def joint_log_prob(logits: list[np.ndarray], actions: np.ndarray) -> np.ndarray:
    """Sum of per-head log-probabilities; actions holds head indices (B, 3)."""
    total = np.zeros(actions.shape[0], dtype=np.float64)
    for i, lg in enumerate(logits):
        lp = log_softmax(lg)
        total += lp[np.arange(actions.shape[0]), actions[:, i]]
    return total


def ppo_loss(p: dict[str, np.ndarray], batch: dict, clip_eps: float,
             value_coef: float, entropy_coef: float):
    """Clipped-surrogate PPO loss; returns (total, parts) without gradients."""
    obs = batch["obs"]
    actions = batch["actions"]
    logits, _ = actor_forward(p, obs)
    new_logp = joint_log_prob(logits, actions)
    ratio = np.exp(new_logp - batch["old_logp"])
    adv = batch["advantages"]
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    policy_loss = -np.minimum(unclipped, clipped).mean()

    values, _ = critic_forward(p, obs)
    value_loss = np.mean((values - batch["returns"]) ** 2)

    entropy = 0.0
    for lg in logits:
        lp = log_softmax(lg)
        prob = np.exp(lp)
        entropy += -(prob * lp).sum(axis=1)
    entropy = entropy.mean()

    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    return total, {"policy_loss": float(policy_loss),
                   "value_loss": float(value_loss),
                   "entropy": float(entropy)}


# ---- fixtures ----------------------------------------------------------------

@pytest.fixture
def problem():
    """Small float64 network and a batch whose ratios sit off the clip kinks."""
    dims = NetDims(hidden1=6, hidden2=5)
    rng = np.random.default_rng(7)
    params = ActorCriticParams.initialize(dims, rng).as_float64()
    # Perturb the near-zero head init so every head carries real gradient.
    for name in params:
        params[name] = params[name] + 0.3 * rng.standard_normal(params[name].shape)
    n = 12
    obs = rng.uniform(0.0, 1.0, size=(n, dims.obs_dim))
    actions = np.stack([rng.integers(0, k, size=n) for k in dims.heads], axis=1)
    logits, _ = actor_forward(params, obs)
    new_logp = joint_log_prob(logits, actions)
    # Ratios inside the clip band, and well outside it on both sides, with
    # advantages of both signs: every branch of the surrogate is exercised,
    # and each is at least 0.05 away from the kink at 1 +- CLIP.
    ratios = np.tile([0.9, 1.1, 1.0, 1.5, 0.5, 0.95], 2)
    adv = np.repeat([1.0, -0.7], 6) * rng.uniform(0.5, 1.5, size=n)
    batch = {
        "obs": obs,
        "actions": actions,
        "old_logp": new_logp - np.log(ratios),
        "advantages": adv,
        "returns": rng.normal(0.0, 1.0, size=n),
    }
    return params, batch


# ---- tests ---------------------------------------------------------------------

def test_loss_and_parts_match_oracle(problem):
    params, batch = problem
    total, parts, _ = ppo_loss_and_grads(params, batch, CLIP, VALUE_COEF, ENTROPY_COEF)
    want_total, want_parts = ppo_loss(params, batch, CLIP, VALUE_COEF, ENTROPY_COEF)
    assert total == pytest.approx(want_total, rel=1e-12, abs=1e-12)
    for key, value in want_parts.items():
        assert parts[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_every_gradient_matches_central_finite_difference(problem):
    params, batch = problem
    _, _, grads = ppo_loss_and_grads(params, batch, CLIP, VALUE_COEF, ENTROPY_COEF)
    assert set(grads) == set(params)
    h = 1e-6
    for name, tensor in params.items():
        assert grads[name].shape == tensor.shape, name
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            saved = tensor[idx]
            tensor[idx] = saved + h
            up, _ = ppo_loss(params, batch, CLIP, VALUE_COEF, ENTROPY_COEF)
            tensor[idx] = saved - h
            down, _ = ppo_loss(params, batch, CLIP, VALUE_COEF, ENTROPY_COEF)
            tensor[idx] = saved
            numeric[idx] = (up - down) / (2.0 * h)
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-8,
                                   err_msg=f"gradient of {name}")
