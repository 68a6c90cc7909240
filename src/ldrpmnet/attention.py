"""Self-attention blocks: the standard multi-head baseline and the
broadcast variant that replaces it.

The broadcast block scores each token with a single learned vector, applies
a one-dimensional softmax over tokens, pools the projected keys into one
global context vector, and modulates every projected value by that context
elementwise.  No N x N attention matrix is ever materialized; cost is
linear in the token count.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import Linear, Module, ParamInitializer
from .tensor import ConfigurationError, Tensor

SOFTMAX_FLOPS_PER_ELEMENT = 5


class MhsaBlock(Module):
    """Standard scaled dot-product multi-head self-attention on [B, N, d]."""

    def __init__(self, model_dim: int, heads: int = 4, seed: int = 0,
                 init: ParamInitializer | None = None):
        if model_dim % heads != 0:
            raise ConfigurationError(
                f"model_dim {model_dim} not divisible by heads {heads}")
        self.model_dim = model_dim
        self.heads = heads
        init = init or ParamInitializer(seed)
        self.w_q = Linear(model_dim, model_dim, init=init)
        self.w_k = Linear(model_dim, model_dim, init=init)
        self.w_v = Linear(model_dim, model_dim, init=init)
        self.w_o = Linear(model_dim, model_dim, init=init)

    def forward(self, x: Tensor) -> Tensor:
        d, h = self.model_dim, self.heads
        if x.shape[-1] != d:
            raise T.DimensionError(
                f"input feature axis is {x.shape[-1]}, block expects {d}")
        b, n, _ = x.shape
        dh = d // h

        def split(t):  # [B, N, d] -> [B, h, N, dh]
            return T.transpose(T.reshape(t, (b, n, h, dh)), (0, 2, 1, 3))

        q = split(self.w_q.forward(x))
        k = split(self.w_k.forward(x))
        v = split(self.w_v.forward(x))
        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
        scores = T.mul(scores, Tensor(1.0 / np.sqrt(dh)))
        attn = T.softmax(scores, axis=-1)
        ctx = T.matmul(attn, v)                               # [B, h, N, dh]
        merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, d))
        return self.w_o.forward(merged)


class BsaBlock(Module):
    """Broadcast self-attention on [B, N, d]: scalar token scores, 1-D
    softmax, one global context vector, elementwise value modulation."""

    def __init__(self, model_dim: int, seed: int = 0,
                 init: ParamInitializer | None = None):
        self.model_dim = model_dim
        init = init or ParamInitializer(seed)
        bound = float(np.sqrt(1.0 / model_dim))
        self.score = init.uniform((model_dim,), bound)
        self.w_k = Linear(model_dim, model_dim, init=init)
        self.w_v = Linear(model_dim, model_dim, init=init)
        self.w_o = Linear(model_dim, model_dim, init=init)

    def forward(self, x: Tensor) -> Tensor:
        d = self.model_dim
        if x.shape[-1] != d:
            raise T.DimensionError(
                f"input feature axis is {x.shape[-1]}, block expects {d}")
        b, n, _ = x.shape
        s = T.matmul(x, T.reshape(self.score, (d, 1)))        # [B, N, 1]
        a = T.softmax(s, axis=1)
        k = self.w_k.forward(x)
        ctx = T.tsum(T.mul(a, k), axis=1, keepdims=True)      # [B, 1, d]
        v = self.w_v.forward(x)
        return self.w_o.forward(T.mul(v, ctx))

    def attention_weights(self, x: Tensor) -> np.ndarray:
        """Normalized per-token weights, shape [B, N] (diagnostic helper)."""
        with T.no_grad():
            s = T.matmul(x, T.reshape(self.score, (self.model_dim, 1)))
            return T.softmax(s, axis=1).data[..., 0]


def attention_flops(kind: str, n: int, d: int, h: int = 4) -> int:
    """Exact flop count of one attention block on an N-token sequence.

    Convention: 1 multiply-add = 2 flops; softmax costs
    SOFTMAX_FLOPS_PER_ELEMENT per element.
    """
    c = SOFTMAX_FLOPS_PER_ELEMENT
    if kind == "mhsa":
        if d % h != 0:
            raise ConfigurationError(f"d={d} not divisible by h={h}")
        proj = 2 * (4 * n * d * d)          # q, k, v, o projections
        scores = 2 * (2 * n * n * d)        # q k^T and attn @ v
        sm = h * n * n * c
        return proj + scores + sm
    if kind == "bsa":
        proj = 2 * (3 * n * d * d)          # k, v, o projections
        score = 2 * n * d
        sm = n * c
        context = 2 * n * d
        broadcast = n * d
        return proj + score + sm + context + broadcast
    raise ConfigurationError(f"unknown attention kind {kind!r}")
