import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kisim

from kisim.env import HEAD_SIZES, OBS_FIELDS
from kisim.nn import (ActorCriticParams, Adam, NetDims, _trunk, _trunk_backward, actor_forward,
                      critic_forward, log_softmax, ppo_loss_and_grads, tensor_shapes)

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
    """An explicit float64 copy of a small network, and a float64 batch whose ratios
    sit off the clip kinks: the loss computes in the dtype it is handed."""
    dims = NetDims(hidden1=6, hidden2=5)
    rng = np.random.default_rng(7)
    params = {name: tensor.astype(np.float64)
              for name, tensor in ActorCriticParams.initialize(dims, rng).tensors.items()}
    # Perturb the near-zero head init so every head carries real gradient.
    for name in params:
        params[name] = params[name] + 0.3 * rng.standard_normal(params[name].shape)
    n = 12
    obs = rng.uniform(0.0, 1.0, size=(n, len(OBS_FIELDS)))
    actions = np.stack([rng.integers(0, k, size=n) for k in HEAD_SIZES], axis=1)
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


def test_a_tensor_of_the_wrong_shape_is_a_value_error():
    init = ActorCriticParams.initialize(NetDims(hidden1=16, hidden2=12),
                                        np.random.default_rng(0))
    transposed = dict(init.tensors, a_w1=init.tensors["a_w1"].T.copy())
    # the same parameter count, but not the layout of tensor_shapes
    assert transposed["a_w1"].size == init.tensors["a_w1"].size
    with pytest.raises(ValueError, match="tensor shapes"):
        ActorCriticParams(init.dims, transposed)
    missing = {k: v for k, v in init.tensors.items() if k != "c_b3"}
    with pytest.raises(ValueError, match="tensor shapes"):
        ActorCriticParams(init.dims, missing)


# ---- in place against out of place: the same elementwise operations, the same bits ----

def reference_adam_step(opt: Adam, params: ActorCriticParams, grads: dict) -> None:
    """Adam.step as one out-of-place expression per quantity, in float32."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, g in grads.items():
        m = opt.m[name] = opt.beta1 * opt.m[name] + (1.0 - opt.beta1) * g
        v = opt.v[name] = opt.beta2 * opt.v[name] + (1.0 - opt.beta2) * g * g
        update = opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        params.tensors[name] = params.tensors[name] - update


def _order(a: np.ndarray) -> tuple[bool, bool]:
    return a.flags.c_contiguous, a.flags.f_contiguous


def test_in_place_adam_step_is_the_out_of_place_formula_bit_for_bit():
    dims = NetDims(hidden1=16, hidden2=12)
    params, ref_params = (ActorCriticParams.initialize(dims, np.random.default_rng(3))
                          for _ in range(2))
    opt, ref = Adam(params, lr=0.01), Adam(ref_params, lr=0.01)
    rng = np.random.default_rng(8)
    for _ in range(4):
        grads = {name: rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), shape).astype(np.float32)
                 for name, shape in tensor_shapes(dims).items()}
        opt.step(params, grads)
        reference_adam_step(ref, ref_params, grads)
        for name in grads:
            for got, want in ((opt.m[name], ref.m[name]), (opt.v[name], ref.v[name]),
                              (params.tensors[name], ref_params.tensors[name])):
                assert got.dtype == want.dtype == np.float32, name
                assert got.tobytes() == want.tobytes(), name
                assert _order(got) == _order(want), name


def reference_trunk(p, net, obs):
    h1 = np.tanh(obs @ p[f"{net}_w1"] + p[f"{net}_b1"])
    h2 = np.tanh(h1 @ p[f"{net}_w2"] + p[f"{net}_b2"])
    return obs, h1, h2


def reference_trunk_backward(p, net, cache, dh2, grads):
    x, h1, h2 = cache
    dz2 = dh2 * (1.0 - h2 ** 2)
    grads[f"{net}_w2"] = h1.T @ dz2
    grads[f"{net}_b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ p[f"{net}_w2"].T) * (1.0 - h1 ** 2)
    grads[f"{net}_w1"] = x.T @ dz1
    grads[f"{net}_b1"] = dz1.sum(axis=0)


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("net", ["a", "c"])
def test_in_place_trunk_is_the_out_of_place_trunk_bit_for_bit(batch, net):
    rng = np.random.default_rng(batch)
    params = ActorCriticParams.initialize(NetDims(hidden1=256, hidden2=250), rng)
    # the float32 weights of the init and of one Adam step after it, as in training
    for step in range(2):
        p = params.tensors
        obs = rng.uniform(-1.0, 3.0, (batch, p[f"{net}_w1"].shape[0])).astype(np.float32)
        cache, ref_cache = _trunk(p, net, obs), reference_trunk(p, net, obs)
        assert all(a.dtype == np.float32 for a in cache)
        assert [a.tobytes() for a in cache] == [a.tobytes() for a in ref_cache]
        dh2 = rng.normal(size=cache[2].shape).astype(np.float32)
        grads, ref_grads = {}, {}
        _trunk_backward(p, net, cache, dh2, grads)
        reference_trunk_backward(p, net, ref_cache, dh2, ref_grads)
        assert grads.keys() == ref_grads.keys()
        assert all(grads[k].tobytes() == ref_grads[k].tobytes() for k in grads)
        Adam(params, lr=0.01).step(params, {k: (rng.normal(size=v.shape) * 0.1).astype(np.float32)
                                            for k, v in params.tensors.items()})


# Imports kisim, then numpy, and prints the OPENBLAS_NUM_THREADS kisim left and
# the size of the pool numpy's OpenBLAS started (None for another BLAS).
BLAS_PROBE = """
import ctypes, json, os, pathlib
import kisim
import numpy as np
pool = None
for lib in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None and pool is None:
            fn.restype = ctypes.c_int
            pool = int(fn())
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), pool]))
"""


@pytest.mark.parametrize("chosen, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, None),
    ({"OMP_NUM_THREADS": "2"}, None),
])
def test_kisim_asks_for_one_blas_thread_unless_the_caller_chose_a_count(chosen, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(chosen, PYTHONPATH=str(Path(kisim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    variable, pool = json.loads(proc.stdout)
    assert variable == expected
    if not chosen and pool is not None:
        assert pool == 1
