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
    analytic = [t.grad.copy() if t.grad is not None else np.zeros(t.shape)
                for t in tensors if t.requires_grad]

    def scalar():
        with no_grad():
            return float((fn(*tensors).data * proj).sum())

    worst = 0.0
    ai = 0
    for t in tensors:
        if not t.requires_grad:
            continue
        a = analytic[ai]
        ai += 1
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
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


def _rand(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


# Names of the `standard_suite` checks, in the order it runs them.
SUITE_NAMES = (
    "add", "mul", "matmul", "concat", "mean", "softmax", "gelu", "layer_norm",
    "linear", "max_pool1d", "conv1d", "conv1d_depthwise", "batchnorm1d",
    "cross_entropy", "mdsc_block", "standard_block", "bsa_block",
    "mhsa_block", "full_network", "conv1d_strided_depthwise",
    "conv1d_grouped",
)


def standard_suite(seed: int = 0, only: str | None = None) -> dict[str, float]:
    """Named finite-difference checks over every primitive and block.

    Returns {check name: max relative error}.  With `only`, every input is
    still drawn in the same order but only that check runs, so its value
    equals the full suite's.
    """
    if only is not None and only not in SUITE_NAMES:
        raise ValueError(f"unknown check {only!r}; choose from {SUITE_NAMES}")

    rng = stream(seed, 0)
    results: dict[str, float] = {}

    def check(name, fn, tensors):
        if only in (None, name):
            results[name] = gradcheck(fn, tensors)

    check("add", T.add, [_rand(rng, (3, 4)), _rand(rng, (3, 4))])
    check("mul", T.mul, [_rand(rng, (3, 4)), _rand(rng, (1, 4))])
    check("matmul", T.matmul, [_rand(rng, (3, 4)), _rand(rng, (4, 2))])
    check("concat", lambda a, b: T.concat([a, b], axis=0),
          [_rand(rng, (2, 3)), _rand(rng, (4, 3))])
    check("mean", lambda a: T.mean(a, axis=1), [_rand(rng, (3, 5))])
    check("softmax", lambda a: T.softmax(a, axis=-1), [_rand(rng, (4, 6))])
    check("gelu", T.gelu, [_rand(rng, (4, 5))])
    check("layer_norm", T.layer_norm,
          [_rand(rng, (3, 8)), _rand(rng, (8,)), _rand(rng, (8,))])
    check("linear", T.linear,
          [_rand(rng, (5, 4)), _rand(rng, (3, 4)), _rand(rng, (3,))])
    check("max_pool1d", lambda a: T.max_pool1d(a, 3), [_rand(rng, (2, 3, 9))])
    check("conv1d", lambda x, w, b: T.conv1d(x, w, b, stride=2, padding=2),
          [_rand(rng, (2, 3, 12)), _rand(rng, (4, 3, 5)), _rand(rng, (4,))])
    check("conv1d_depthwise",
          lambda x, w: T.conv1d(x, w, padding=2, groups=3),
          [_rand(rng, (2, 3, 10)), _rand(rng, (3, 1, 5))])

    def bn_train(x, g, b):
        return T.batchnorm1d(x, g, b, T.BnState(3), mode="train")

    check("batchnorm1d", bn_train,
          [_rand(rng, (2, 3, 6)), _rand(rng, (3,)), _rand(rng, (3,))])

    def ce(logits):
        return T.cross_entropy(logits, np.array([1, 3, 2]))

    check("cross_entropy", ce, [_rand(rng, (3, 4))])

    mdsc = MdscBlock(MdscConfig(in_channels=3, out_channels=4,
                                kernel_sizes=(3, 5, 7)), seed=seed)
    check("mdsc_block", lambda x, *ps: mdsc.forward(x, mode="train"),
          [_rand(rng, (2, 3, 16))] + [p for _, p in mdsc.parameters()])

    std = StandardMultiScaleBlock(MdscConfig(in_channels=3, out_channels=4,
                                             kernel_sizes=(3, 5)), seed=seed)
    check("standard_block", lambda x, *ps: std.forward(x, mode="train"),
          [_rand(rng, (2, 3, 12))] + [p for _, p in std.parameters()])

    bsa = BsaBlock(model_dim=8, seed=seed)
    check("bsa_block", lambda x, *ps: bsa.forward(x),
          [_rand(rng, (2, 6, 8))] + [p for _, p in bsa.parameters()])

    mhsa = MhsaBlock(model_dim=8, heads=2, seed=seed)
    check("mhsa_block", lambda x, *ps: mhsa.forward(x),
          [_rand(rng, (2, 5, 8))] + [p for _, p in mhsa.parameters()])

    cfg = ModelConfig(conv_kind="mdsc", attn_kind="bsa", input_length=64,
                      stem=(4, 7, 2), stages=((8, (3, 5), 2),),
                      encoder=(1, 8, 2, 2), num_classes=10)
    net = build(cfg, seed=seed)
    check("full_network", lambda x, *ps: net.forward(x, mode="train"),
          [_rand(rng, (2, 1, 64))] + [p for _, p in net.parameters()])

    # last, so every check above draws the inputs it always drew
    check("conv1d_strided_depthwise",
          lambda x, w: T.conv1d(x, w, stride=2, padding=1, groups=3),
          [_rand(rng, (2, 3, 11)), _rand(rng, (3, 1, 3))])
    check("conv1d_grouped",
          lambda x, w, b: T.conv1d(x, w, b, stride=2, groups=2),
          [_rand(rng, (2, 4, 11)), _rand(rng, (6, 2, 3)), _rand(rng, (6,))])

    return results
