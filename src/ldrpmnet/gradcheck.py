"""Central finite-difference gradient verification for ops and blocks."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import BsaBlock, MhsaBlock
from .mdsc import MdscBlock, MdscConfig
from .model import ModelConfig, StandardMultiScaleBlock, build
from .rng import stream
from .tensor import Tensor, no_grad

H = 1e-5               # central-difference step


def gradcheck(fn, tensors) -> float:
    """Max relative error between analytic and numeric gradients.

    ``fn(*tensors)`` must return a Tensor; a fixed random projection reduces
    it to a scalar so cancellation cannot hide errors.  Every entry of every
    tensor with requires_grad is perturbed by +-H (central differences).
    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    rng = stream(0, 0)
    for t in tensors:
        t.zero_grad()

    out = fn(*tensors)
    # small projection keeps f64 cancellation noise in the central differences
    # below tolerance even for parameters whose true gradient is exactly zero
    proj = 1e-3 * rng.standard_normal(out.shape)
    loss = T.tsum(T.mul(out, Tensor(proj)))
    if not np.isfinite(loss.item()):
        raise FloatingPointError("non-finite loss in gradcheck forward")
    loss.backward()

    def scalar():
        with no_grad():
            return float((fn(*tensors).data * proj).sum())

    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        flat = t.data.reshape(-1)
        # the perturbed forwards run under no_grad, so t.grad stays put
        aflat = np.zeros(t.size) if t.grad is None else t.grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + H
            fp = scalar()
            flat[j] = orig - H
            fm = scalar()
            flat[j] = orig
            num = (fp - fm) / (2.0 * H)
            if not np.isfinite(num):
                raise FloatingPointError(
                    f"non-finite finite-difference value at parameter entry {j}")
            err = abs(aflat[j] - num) / max(abs(aflat[j]), abs(num), 1e-8)
            worst = max(worst, err)
    for t in tensors:
        t.zero_grad()
    return worst


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _op(fn, *shapes):
    """Check of `fn` on fresh inputs of the given shapes."""
    return lambda seed, rng: (fn, [_rand(rng, s) for s in shapes])


def _block(make, x_shape, **forward_kwargs):
    """Check of block `make(seed)`: its forward on a fresh input, with the
    block's parameters among the checked tensors."""
    def builder(seed, rng):
        blk = make(seed)
        return (lambda x, *ps: blk.forward(x, **forward_kwargs),
                [_rand(rng, x_shape)] + [p for _, p in blk.parameters()])
    return builder


# {check name: builder(seed, rng) -> (fn, tensors)}, run in this order.  The
# builders draw from one shared stream, so a new check goes last: then every
# check above it draws the inputs it always drew.
_CHECKS = {
    "add": _op(T.add, (3, 4), (3, 4)),
    "mul": _op(T.mul, (3, 4), (1, 4)),
    "matmul": _op(T.matmul, (3, 4), (4, 2)),
    "concat": _op(lambda a, b: T.concat([a, b], axis=0), (2, 3), (4, 3)),
    "mean": _op(lambda a: T.mean(a, axis=1), (3, 5)),
    "softmax": _op(lambda a: T.softmax(a, axis=-1), (4, 6)),
    "gelu": _op(T.gelu, (4, 5)),
    "layer_norm": _op(T.layer_norm, (3, 8), (8,), (8,)),
    "linear": _op(T.linear, (5, 4), (3, 4), (3,)),
    "max_pool1d": _op(lambda a: T.max_pool1d(a, 3), (2, 3, 9)),
    "conv1d": _op(lambda x, w, b: T.conv1d(x, w, b, stride=2, padding=2),
                  (2, 3, 12), (4, 3, 5), (4,)),
    "conv1d_depthwise": _op(lambda x, w: T.conv1d(x, w, padding=2, groups=3),
                            (2, 3, 10), (3, 1, 5)),
    "batchnorm1d": _op(lambda x, g, b: T.batchnorm1d(x, g, b, T.BnState(3),
                                                     mode="train"),
                       (2, 3, 6), (3,), (3,)),
    "cross_entropy": _op(lambda z: T.cross_entropy(z, np.array([1, 3, 2])),
                         (3, 4)),
    "mdsc_block": _block(
        lambda s: MdscBlock(MdscConfig(3, 4, (3, 5, 7)), seed=s),
        (2, 3, 16), mode="train"),
    "standard_block": _block(
        lambda s: StandardMultiScaleBlock(MdscConfig(3, 4, (3, 5)), seed=s),
        (2, 3, 12), mode="train"),
    "bsa_block": _block(lambda s: BsaBlock(model_dim=8, seed=s), (2, 6, 8)),
    "mhsa_block": _block(lambda s: MhsaBlock(model_dim=8, heads=2, seed=s),
                         (2, 5, 8)),
    "full_network": _block(
        lambda s: build(ModelConfig(
            conv_kind="mdsc", attn_kind="bsa", input_length=64,
            stem=(4, 7, 2), stages=((8, (3, 5), 2),), encoder=(1, 8, 2, 2),
            num_classes=10), seed=s),
        (2, 1, 64), mode="train"),
    "conv1d_strided_depthwise": _op(
        lambda x, w: T.conv1d(x, w, stride=2, padding=1, groups=3),
        (2, 3, 11), (3, 1, 3)),
    "conv1d_grouped": _op(lambda x, w, b: T.conv1d(x, w, b, stride=2, groups=2),
                          (2, 4, 11), (6, 2, 3), (6,)),
    "max_pool1d_gelu": _op(lambda a: T.max_pool1d(a, 3, gelu=True), (2, 3, 9)),
}
SUITE_NAMES = tuple(_CHECKS)


def standard_suite(seed: int = 0, only: str | None = None) -> dict[str, float]:
    """Named finite-difference checks over every primitive and block.

    Returns {check name: max relative error}.  With `only`, every input is
    still drawn in the same order but only that check runs, so its value
    equals the full suite's.
    """
    if only is not None and only not in _CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {SUITE_NAMES}")

    rng = stream(seed, 0)
    results: dict[str, float] = {}
    for name, builder in _CHECKS.items():
        fn, tensors = builder(seed, rng)
        if only in (None, name):
            results[name] = gradcheck(fn, tensors)
    return results
