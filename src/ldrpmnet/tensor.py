"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (conv blocks, attention, the full network) is built on
the primitives in this module.  Design points:

* float64 everywhere; desk scale makes the memory cost irrelevant and keeps
  gradient-check tolerances tight.
* A single module-level tape records operations in execution order; backward
  traverses it in strict reverse order and then clears it.
* Tensors are value-semantic; nothing here touches shared global state other
  than the tape, which is confined to one thread of execution, and the
  process's malloc thresholds, which importing the module fixes on glibc
  (see `_keep_freed_heap`).
* conv1d takes a depthwise path when groups == C_in == C_out (every MDSC
  branch): k shifted multiply-adds over batch blocks, forward and backward.
  Every other grouping correlates strided windows with one einsum.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

__all__ = [
    "Tensor", "DimensionError", "ConfigurationError", "TapeError",
    "no_grad", "backward", "tape_len", "tape_node_sizes", "clear_tape",
    "add", "sub", "mul", "matmul", "reshape", "transpose", "concat",
    "tsum", "mean", "max_pool1d", "softmax", "gelu", "layer_norm",
    "linear", "conv1d", "batchnorm1d", "cross_entropy", "BnState",
]

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds so a step's freed memory stays mapped.

    A train step allocates and frees tens of MB of intermediates.  glibc
    hands the free top of its heap back to the kernel once it exceeds a trim
    threshold that it raises only after freeing a larger mmap-ed block, so
    without such a block every step faults its pages in again (20 s of
    REDUCED_CONFIG ld-rpmnet training on a 2-core VM took 2.1M minor faults
    and 4.3 s of kernel time).  Fixed thresholds keep blocks up to 32 MiB
    on the heap and up to 256 MiB of free heap in the process.  Other C
    libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD, glibc's 64-bit maximum
    mallopt(-1, 256 << 20)     # M_TRIM_THRESHOLD


_keep_freed_heap()


class DimensionError(ValueError):
    """Shape mismatch between operands; the message names the offending axes."""


class ConfigurationError(ValueError):
    """Invalid structural argument (groups, heads, strides, ...)."""


class TapeError(RuntimeError):
    """Misuse of the autodiff tape (non-scalar loss, repeated backward, ...)."""


# --------------------------------------------------------------------------
# tape machinery
# --------------------------------------------------------------------------

_TAPE: list = []          # (out, parents, backward_fn) in execution order
_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables tape recording (eval / oracle paths)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def tape_len() -> int:
    return len(_TAPE)


def tape_node_sizes() -> list[int]:
    """Element counts of every intermediate recorded on the active tape."""
    return [node[0].data.size for node in _TAPE]


def clear_tape() -> None:
    _TAPE.clear()


def _record(out: "Tensor", parents, backward_fn) -> "Tensor":
    if _GRAD_ENABLED[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.append((out, tuple(parents), backward_fn))
    return out


def backward(loss: "Tensor") -> None:
    """Reverse-traverse the tape, accumulating dLoss/dLeaf into leaf .grad.

    The tape is cleared afterwards; calling backward again on the same loss
    raises (grad accumulation across backward calls is not supported).
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    on_tape = any(node[0] is loss for node in _TAPE)
    if not on_tape:
        raise TapeError(
            "loss is not on the active tape (tape already consumed by a "
            "previous backward, or loss was computed under no_grad)")
    loss.grad = np.ones_like(loss.data)
    try:
        for out, parents, fn in reversed(_TAPE):
            if out.grad is None:
                continue
            grads = fn(out.grad)
            for p, g in zip(parents, grads):
                if g is None or not p.requires_grad:
                    continue
                if not np.all(np.isfinite(g)):
                    raise TapeError("non-finite gradient encountered during backward")
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += g
    finally:
        for out, _, _ in _TAPE:
            if not out.is_leaf:
                out.grad = None
        _TAPE.clear()


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------

class Tensor:
    """Dense N-dimensional float64 array with an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.is_leaf = True

    # -- introspection ----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators --------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def backward(self):
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _out(data) -> Tensor:
    t = Tensor(data)
    t.is_leaf = False
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes introduced or stretched by broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# elementwise and shape ops
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _out(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _out(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _out(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner axes disagree: {a.shape}[-1] != {b.shape}[-2]")
    out = _out(np.matmul(a.data, b.data))

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = _out(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out = _out(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _record(out, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ConfigurationError("concat of zero tensors")
    ref = tensors[0].shape
    for i, t in enumerate(tensors[1:], 1):
        if len(t.shape) != len(ref):
            raise DimensionError(f"concat rank mismatch at operand {i}")
        for ax, (sa, sb) in enumerate(zip(ref, t.shape)):
            if ax != axis % len(ref) and sa != sb:
                raise DimensionError(
                    f"concat operand {i} differs on non-concatenated axis {ax}: "
                    f"{sb} vs {sa}")
    out = _out(np.concatenate([t.data for t in tensors], axis=axis))
    lead = (slice(None),) * (axis % len(ref))
    bounds = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        return tuple(g[lead + (slice(lo, hi),)]
                     for lo, hi in zip(bounds[:-1], bounds[1:]))

    return _record(out, tuple(tensors), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = _out(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _record(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = _out(a.data.mean(axis=axis, keepdims=keepdims))
    n = a.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / n, a.shape).copy(),)

    return _record(out, (a,), bwd)


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------

def gelu(a: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) using the Gaussian CDF (erf form, no tanh)."""
    a = _as_tensor(a)
    phi = 0.5 * (1.0 + _erf(a.data / _SQRT2))
    out = _out(a.data * phi)

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (phi + a.data * pdf),)

    return _record(out, (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _out(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine by gamma/beta."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"last axis of input {a.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = _out(gamma.data * xhat + beta.data)
    d = a.shape[-1]

    def bwd(g):
        dg = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        db = g.sum(axis=tuple(range(g.ndim - 1)))
        dxhat = g * gamma.data
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        # note: uses biased variance, hence plain means above
        return dx, dg, db

    return _record(out, (a, gamma, beta), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x[..., in] @ weight[out, in]^T (+ bias[out])."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear input feature axis {x.shape[-1]} != weight in-axis {weight.shape[-1]}")
    y = matmul(x, transpose(weight, (1, 0))) if x.ndim >= 2 else None
    if y is None:
        y = matmul(reshape(x, (1, -1)), transpose(weight, (1, 0)))
        y = reshape(y, (weight.shape[0],))
    if bias is not None:
        y = add(y, bias)
    return y


# --------------------------------------------------------------------------
# pooling
# --------------------------------------------------------------------------

def max_pool1d(a: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling over the last axis (stride == kernel).

    A trailing remainder shorter than the kernel is dropped.
    """
    a = _as_tensor(a)
    if kernel < 1:
        raise ConfigurationError(f"pool kernel must be >= 1, got {kernel}")
    n = a.shape[-1]
    n_out = n // kernel
    if n_out < 1:
        raise DimensionError(f"pool kernel {kernel} exceeds input length {n}")
    lead = a.shape[:-1]
    win = a.data[..., : n_out * kernel].reshape(lead + (n_out, kernel))
    idx = win.argmax(axis=-1)
    out = _out(np.take_along_axis(win, idx[..., None], axis=-1)[..., 0])

    def bwd(g):
        gw = np.zeros(lead + (n_out, kernel))
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros(a.shape)
        gx[..., : n_out * kernel] = gw.reshape(lead + (n_out * kernel,))
        return (gx,)

    return _record(out, (a,), bwd)


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------

def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    w = sliding_window_view(x, k, axis=2)
    return w[:, :, ::stride, :]


def _conv_raw(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
              groups: int) -> np.ndarray:
    """Grouped cross-correlation on [B, C_in, N] -> [B, C_out, N_out]."""
    b, cin, n = x.shape
    cout, cg, k = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = _windows(x, k, stride)        # [B, Cin, N_out, k]
    if groups == 1:
        return np.einsum("bcnk,ock->bon", win, w, optimize=True)
    og = cout // groups
    wing = win.reshape(b, groups, cg, win.shape[2], k)
    wg = w.reshape(groups, og, cg, k)
    y = np.einsum("bgcnk,gock->bgon", wing, wg, optimize=True)
    return y.reshape(b, cout, win.shape[2])


def _conv_weight_grad(x: np.ndarray, gy: np.ndarray, k: int, stride: int,
                      padding: int, groups: int) -> np.ndarray:
    b, cin, n = x.shape
    cout = gy.shape[1]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = _windows(x, k, stride)[:, :, : gy.shape[2], :]
    if groups == 1:
        return np.einsum("bcnk,bon->ock", win, gy, optimize=True)
    cg, og = cin // groups, cout // groups
    wing = win.reshape(b, groups, cg, win.shape[2], k)
    gyg = gy.reshape(b, groups, og, gy.shape[2])
    gw = np.einsum("bgcnk,bgon->gock", wing, gyg, optimize=True)
    return gw.reshape(cout, cg, k)


def _conv_input_grad(gy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                     groups: int, n_in: int) -> np.ndarray:
    b, cout, n_out = gy.shape
    _, cg, k = w.shape
    cin = cg * groups
    og = cout // groups
    # dilate by stride, pad by k-1, correlate with the flipped/transposed kernel
    gy_d = gy
    if stride > 1:
        gy_d = np.zeros((b, cout, (n_out - 1) * stride + 1))
        gy_d[:, :, ::stride] = gy
    wt = (w.reshape(groups, og, cg, k)
          .transpose(0, 2, 1, 3)[..., ::-1]
          .reshape(cin, og, k))
    gxp = _conv_raw(gy_d, np.ascontiguousarray(wt), 1, k - 1, groups)
    total = n_in + 2 * padding
    if gxp.shape[2] < total:           # tail positions the kernel never reached
        gxp = np.pad(gxp, ((0, 0), (0, 0), (0, total - gxp.shape[2])))
    return gxp[:, :, padding: padding + n_in]


# Elements of one batch block on the depthwise path (256 KiB per operand),
# so that the block's input, output and scratch stay in a per-core L2 cache
# through the k passes over them.  On a 2-core Xeon with 2 MiB of L2 per
# core, the default config's batch-64 depthwise forward ran about 1.5x
# faster than with one pass per tap over the whole batch.
_DEPTHWISE_BLOCK = 1 << 15


def _depthwise_taps(n: int, n_out: int, k: int, stride: int, padding: int):
    """(tap, output slice, input slice) of every tap that reaches the input.

    Output position t reads input position t*stride + j - padding; the
    slices keep the positions inside [0, n), so zero padding is never built.
    """
    for j in range(k):
        t0 = max(0, -((j - padding) // stride))
        t1 = min(n_out, (n - 1 + padding - j) // stride + 1)
        if t1 > t0:
            start = t0 * stride + j - padding
            yield j, slice(t0, t1), slice(start, start + (t1 - t0 - 1) * stride + 1, stride)


def _batch_blocks(b: int, sample_size: int) -> list:
    """Batch slices of about _DEPTHWISE_BLOCK elements; an empty batch gets one."""
    step = max(1, _DEPTHWISE_BLOCK // sample_size)
    return [slice(lo, lo + step) for lo in range(0, max(b, 1), step)]


def _depthwise_raw(x: np.ndarray, w: np.ndarray, stride: int,
                   padding: int) -> np.ndarray:
    """Depthwise cross-correlation [B, C, N] * [C, 1, k] as k shifted adds."""
    b, c, n = x.shape
    k = w.shape[2]
    n_out = (n + 2 * padding - k) // stride + 1
    taps = list(_depthwise_taps(n, n_out, k, stride, padding))
    blocks = _batch_blocks(b, c * n_out)
    y = np.zeros((b, c, n_out))
    tmp = np.empty_like(y[blocks[0]])
    for blk in blocks:
        xb, yb = x[blk], y[blk]
        tb = tmp[: yb.shape[0]]
        for j, yo, xi in taps:
            np.multiply(xb[:, :, xi], w[:, 0, j, None], out=tb[:, :, yo])
            yb[:, :, yo] += tb[:, :, yo]
    return y


def _depthwise_grads(x: np.ndarray, w: np.ndarray, gy: np.ndarray,
                     stride: int, padding: int):
    """Input and weight gradients of `_depthwise_raw`, tap by tap."""
    b, c, n = x.shape
    taps = list(_depthwise_taps(n, gy.shape[2], w.shape[2], stride, padding))
    blocks = _batch_blocks(b, c * gy.shape[2])
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    tmp = np.empty_like(gy[blocks[0]])
    for blk in blocks:
        xb, gb, gxb = x[blk], gy[blk], gx[blk]
        tb = tmp[: gb.shape[0]]
        for j, yo, xi in taps:
            np.multiply(gb[:, :, yo], w[:, 0, j, None], out=tb[:, :, yo])
            gxb[:, :, xi] += tb[:, :, yo]
            gw[:, 0, j] += np.einsum("bcn,bcn->c", gb[:, :, yo], xb[:, :, xi])
    return gx, gw


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 1-D cross-correlation (no kernel flip).

    Accepts [C_in, N] or [B, C_in, N] input; weight is [C_out, C_in/groups, k].
    groups == C_in gives the depthwise case.  When also C_out == C_in, the
    forward adds k shifted slices of the input, each scaled by its
    per-channel tap, and the backward scatters the same slices back; no
    window copy or zero padding is made.  Any other grouping (C_out a
    multiple of C_in included) goes through the grouped-window einsum.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    squeeze = x.ndim == 2
    x3 = reshape(x, (1,) + x.shape) if squeeze else x
    if x3.ndim != 3 or weight.ndim != 3:
        raise DimensionError(
            f"conv1d expects input rank 2/3 and weight rank 3, got "
            f"{x.shape} / {weight.shape}")
    b, cin, n = x3.shape
    cout, cg, k = weight.shape
    if stride < 1 or padding < 0 or groups < 1:
        raise ConfigurationError(
            f"bad conv hyperparameters stride={stride} padding={padding} groups={groups}")
    if cin % groups != 0 or cout % groups != 0:
        raise ConfigurationError(
            f"groups={groups} must divide C_in={cin} and C_out={cout}")
    if cg != cin // groups:
        raise DimensionError(
            f"weight axis 1 is {cg}, expected C_in/groups = {cin // groups}")
    if bias is not None and _as_tensor(bias).shape != (cout,):
        raise DimensionError(
            f"bias shape {bias.shape} != (C_out,) = ({cout},)")
    if n + 2 * padding < k:
        raise DimensionError(
            f"input length {n} + 2*padding {padding} shorter than kernel {k}")

    if groups == cin == cout:
        y = _out(_depthwise_raw(x3.data, weight.data, stride, padding))

        def bwd(g):
            return _depthwise_grads(x3.data, weight.data, g, stride, padding)
    else:
        y = _out(_conv_raw(x3.data, weight.data, stride, padding, groups))

        def bwd(g):
            gx = _conv_input_grad(g, weight.data, stride, padding, groups, n)
            gw = _conv_weight_grad(x3.data, g, k, stride, padding, groups)
            return gx, gw

    y = _record(y, (x3, weight), bwd)
    if bias is not None:
        y = add(y, reshape(_as_tensor(bias), (cout, 1)))
    return reshape(y, y.shape[1:]) if squeeze else y


# --------------------------------------------------------------------------
# batch normalization
# --------------------------------------------------------------------------

class BnState:
    """Running statistics for one BatchNorm layer (per-channel mean/var)."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def copy(self) -> "BnState":
        st = BnState(len(self.mean))
        st.mean = self.mean.copy()
        st.var = self.var.copy()
        return st


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor, state: BnState,
                mode: str = "train", momentum: float = 0.1,
                eps: float = 1e-5) -> Tensor:
    """BatchNorm over (batch, time) per channel on [B, C, N] input.

    Train mode normalizes by batch statistics and updates `state` in place;
    eval mode normalizes by the stored running statistics.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 3:
        raise DimensionError(f"batchnorm1d expects [B, C, N], got {x.shape}")
    b, c, n = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batchnorm affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"mode must be train or eval, got {mode!r}")

    if mode == "eval":
        mu = state.mean
        inv = 1.0 / np.sqrt(state.var + eps)
        # one per-channel affine map: two passes over x instead of four
        scale = gamma.data * inv
        y = x.data * scale[:, None]
        y += (beta.data - mu * scale)[:, None]

        def eval_bwd(g):
            xhat = (x.data - mu[:, None]) * inv[:, None]
            return g * scale[:, None], (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))

        return _record(_out(y), (x, gamma, beta), eval_bwd)

    m = b * n
    if m < 2:
        raise DimensionError(
            f"train-mode batchnorm needs B*N >= 2, got B={b} N={n}")
    mu = x.data.mean(axis=(0, 2))
    var = x.data.var(axis=(0, 2))
    state.mean = (1.0 - momentum) * state.mean + momentum * mu
    state.var = (1.0 - momentum) * state.var + momentum * var * m / max(m - 1, 1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[:, None]) * inv[:, None]
    out = _out(gamma.data[:, None] * xhat + beta.data[:, None])

    def bwd(g):
        dg = (g * xhat).sum(axis=(0, 2))
        db = g.sum(axis=(0, 2))
        dxhat = g * gamma.data[:, None]
        dx = (inv[:, None] / m) * (
            m * dxhat
            - dxhat.sum(axis=(0, 2), keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=(0, 2), keepdims=True))
        return dx, dg, db

    return _record(out, (x, gamma, beta), bwd)


# --------------------------------------------------------------------------
# classification loss
# --------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax at the true class.  Labels are 1-based ids."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects [B, num_classes], got {logits.shape}")
    labels = np.asarray(labels)
    b, nc = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} != ({b},)")
    if labels.min() < 1 or labels.max() > nc:
        raise ValueError(
            f"labels must lie in 1..{nc}, got range "
            f"[{labels.min()}, {labels.max()}]")
    idx = labels.astype(np.int64) - 1
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(b), idx]
    out = _out(np.mean(lse - picked))
    p = np.exp(z - zmax)
    p /= p.sum(axis=1, keepdims=True)

    def bwd(g):
        gz = p.copy()
        gz[np.arange(b), idx] -= 1.0
        return (g * gz / b,)

    return _record(out, (logits,), bwd)
