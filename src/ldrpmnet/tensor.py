"""Dense tensors with graph-based reverse-mode automatic differentiation.

Everything downstream (conv blocks, attention, the full network) is built on
the primitives in this module.  Design points:

* One dtype rule.  A tensor holds float32 or float64; `Tensor()` keeps
  either as given and converts anything else to float64.  An op computes
  in float32 if any operand is float32, and in float64 otherwise: float64
  parameters, BatchNorm running statistics and 0-d constants are cast
  inside the op, and its buffers take that dtype.  A gradient takes its
  tensor's dtype, so float64 parameters keep float64 gradients.  Float64
  inputs run exactly as they always have and keep gradient-check
  tolerances tight; the float32 corpus runs as it is, at half the bytes.
* An op output that needs a gradient points at its graph node (`_Node`).
  A node holds its backward function and, for each operand, the operand's
  node or a leaf tensor, never an op output; each backward function keeps
  only the arrays it reads (gelu its derivative, max_pool1d the tap of each
  window's first maximum, and with `gelu=True` GELU's derivative there too).
  An output's data is then freed once the caller lets it go, unless a
  backward function reads it.  Backward runs the nodes
  reachable from the loss newest first and detaches each as it runs, so the
  graph is freed as backward passes it and a train step's peak memory is
  the end of its forward.
* Tensors are value-semantic and grad mode is per thread.  Shared state: the
  node counter, a weak set of the nodes backward has not run, and the
  process's malloc thresholds and single malloc arena, which importing the
  module fixes on glibc (see `_keep_freed_heap`).
* The layer ops add their own bias: one graph node per conv or linear layer.
* GELU is x * Phi(x) in both dtypes: float64 takes Phi from `ndtr`, float32
  from a closed-form erfc approximation at a quarter to a third of the
  cost.  A conv stage's GELU and max pool are one op,
  `max_pool1d(..., gelu=True)`, which evaluates GELU at each window's two
  extremes only.
* conv1d has one forward kernel per conv kind, `_conv`, and computes its
  input gradient with it as a transposed conv.  When groups == C_in == C_out
  (every MDSC branch), each batch block is copied into zero-padded
  contiguous rows and the k taps are shifted multiply-adds over the
  flattened rows.  Every other grouping is a GEMM per group over im2col
  columns; a pointwise conv's columns are the input itself, without a copy.
"""

from __future__ import annotations

import ctypes
import itertools
import sys
import threading
import weakref

import numpy as np
from scipy.special import ndtr as _ndtr

__all__ = [
    "Tensor", "DimensionError", "ConfigurationError", "TapeError",
    "no_grad", "grad_enabled", "backward", "tape_len", "tape_node_sizes",
    "add", "mul", "matmul", "reshape", "transpose", "concat",
    "tsum", "mean", "max_pool1d", "softmax", "gelu", "layer_norm",
    "linear", "conv1d", "batchnorm1d", "cross_entropy", "BnState",
]

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_FLOAT32 = np.dtype(np.float32)


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds so a step's freed memory stays mapped.

    A train step allocates and frees tens of MB of intermediates.  glibc
    hands the free top of its heap back to the kernel once it exceeds a trim
    threshold that it raises only after freeing a larger mmap-ed block, so
    without such a block every step faults its pages in again (20 s of
    REDUCED_CONFIG ld-rpmnet training on a 2-core VM took 2.1M minor faults
    and 4.3 s of kernel time).  Fixed thresholds keep blocks up to 32 MiB
    on the heap and up to 256 MiB of free heap in the process.  One arena
    makes the threads of a pooled eval forward allocate from that heap too;
    with glibc's per-thread arenas each worker mapped its own, and the peak
    RSS of a default-config ld-rpmnet inference run on the same VM rose
    from 202 to 253 MB.  Other C libraries are left as they are.
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
    mallopt(-8, 1)             # M_ARENA_MAX


_keep_freed_heap()


class DimensionError(ValueError):
    """Shape mismatch between operands; the message names the offending axes."""


class ConfigurationError(ValueError):
    """Invalid structural argument (groups, heads, strides, ...)."""


class TapeError(RuntimeError):
    """Misuse of the autodiff tape (non-scalar loss, repeated backward, ...)."""


NORM_EPS = 1e-5        # variance floor of batchnorm1d and layer_norm
BN_MOMENTUM = 0.1      # weight of a batch in batchnorm1d's running statistics


# --------------------------------------------------------------------------
# autodiff graph
# --------------------------------------------------------------------------

class _GradMode(threading.local):
    enabled = True                 # every thread starts with recording on


_GRAD_MODE = _GradMode()
_SEQ = itertools.count()           # creation order of recorded nodes
_RECORDED = weakref.WeakSet()      # tensors that hold a node; keeps none alive


class no_grad:
    """Context manager that turns off recording in this thread (eval, oracles)."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


def grad_enabled() -> bool:
    """Whether ops in this thread record graph nodes (off under no_grad)."""
    return _GRAD_MODE.enabled


def tape_len() -> int:
    """Number of live graph nodes, in any thread, that backward has not run."""
    return len(_RECORDED)


def tape_node_sizes() -> list[int]:
    """Output element counts of the live graph nodes that backward has not run.

    A node keeps its output's element count, not its output: the output's
    data may already be freed.  Reads a copy of the set's weak references,
    taken in one C call, so other threads may record or free nodes meanwhile.
    """
    live = (ref() for ref in list(_RECORDED.data))
    return [node.size for node in live if node is not None]


class _Node:
    """One recorded op: its backward function and where its results go.

    `parents` holds, for each operand, the operand's node, the operand
    itself if it is a leaf that needs a gradient, or None.  No op output is
    held, so its data is freed once the caller and the backward functions
    that read it let it go.  The output's gradient accumulates in `grad`, in
    the output's `dtype`; `size` is the output's element count.
    """

    __slots__ = ("seq", "parents", "fn", "grad", "dtype", "size", "__weakref__")

    def __init__(self, data: np.ndarray, parents, fn):
        self.seq = next(_SEQ)
        self.parents = tuple(_edge(p) for p in parents)
        self.fn = fn               # None once backward has run the node
        self.grad = None
        self.dtype = data.dtype
        self.size = data.size


def _edge(p: "Tensor"):
    """Where a node sends an operand's gradient: the operand's node, or the
    operand itself if it is a leaf needing one (a tensor whose node backward
    has run is a leaf again), else None."""
    if p._node is not None and p._node.fn is not None:
        return p._node
    return p if p.requires_grad else None


def _recording(*operands: "Tensor") -> bool:
    """Whether an op on `operands` records a node in this thread."""
    return _GRAD_MODE.enabled and any(p.requires_grad for p in operands)


def _record(data, parents, backward_fn) -> "Tensor":
    """Op output `data` as a tensor, with a node if a parent needs a gradient."""
    out = Tensor(data)
    if _recording(*parents):
        out.requires_grad = True
        out._node = _Node(out.data, parents, backward_fn)
        _RECORDED.add(out._node)
    return out


def _detach(node: _Node) -> None:
    node.parents = node.fn = node.grad = None
    _RECORDED.discard(node)


def _pass_grads(parents, fn, grad: np.ndarray) -> None:
    """Run one backward function and add its results to the parents.

    A parent's first gradient is copied into the parent's dtype.  Only this
    frame holds the returned gradients, so they are freed when it returns."""
    for p, g in zip(parents, fn(grad)):
        if g is None or p is None:
            continue
        if p.grad is None:
            # a copy: g may be a view or shared
            p.grad = np.array(g, dtype=p.dtype)
        else:
            p.grad += g


def backward(loss: "Tensor") -> None:
    """Accumulate dLoss/dLeaf into leaf .grad over the graph behind `loss`.

    The nodes reachable from `loss` run newest first, so each runs after all
    its consumers.  Each is detached as it runs: its backward function, with
    the arrays it saved, and its gradient are freed before the next node
    runs, so a train step's peak memory is the end of its forward.  A
    backward function that raises leaves the nodes not yet run detached too.
    Calling backward again on the same loss raises (grad accumulation across
    backward calls is not supported).
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    root = loss._node
    if root is None or root.fn is None:
        raise TapeError(
            "loss holds no autodiff tape (consumed by a previous backward, "
            "or loss was computed under no_grad)")
    nodes, stack = {root}, [root]
    while stack:
        for p in stack.pop().parents:
            if type(p) is _Node and p.fn is not None and p not in nodes:
                nodes.add(p)
                stack.append(p)
    order = sorted(nodes, key=lambda node: node.seq, reverse=True)
    del nodes, stack
    root.grad = np.ones_like(loss.data)
    try:
        for i in range(len(order)):
            node, order[i] = order[i], None
            parents, fn, grad = node.parents, node.fn, node.grad
            _detach(node)
            if grad is not None:
                _pass_grads(parents, fn, grad)
    finally:
        for node in order:
            if node is not None:
                _detach(node)


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------

class Tensor:
    """Dense N-dimensional float32 or float64 array with an optional gradient.

    float32 and float64 data are kept as given; anything else becomes
    float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype != _FLOAT32:
            data = data.astype(np.float64, copy=False)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None    # set on an op output that records

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

    @property
    def dtype(self):
        return self.data.dtype

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

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def backward(self):
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _cast(*tensors) -> list:
    """The operands' data in the dtype the op computes in: float32 if any
    operand is float32, else float64.  A missing operand (None) stays None;
    an operand already in that dtype is not copied."""
    data = [None if t is None else t.data for t in tensors]
    for d in data:
        if d is not None and d.dtype == _FLOAT32:
            return [None if d is None else d.astype(_FLOAT32, copy=False)
                    for d in data]
    return data                  # every tensor holds float32 or float64


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
    ad, bd = _cast(a, b)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(ad + bd, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = _cast(a, b)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g * bd, a_shape), _unbroadcast(g * ad, b_shape)

    return _record(ad * bd, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner axes disagree: {a.shape}[-1] != {b.shape}[-2]")
    ad, bd = _cast(a, b)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)

    return _record(np.matmul(ad, bd), (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.shape

    def bwd(g):
        return (g.reshape(a_shape),)

    return _record(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _record(np.transpose(a.data, axes), (a,), bwd)


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
    y = np.concatenate(_cast(*tensors), axis=axis)
    lead = (slice(None),) * (axis % len(ref))
    bounds = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        return tuple(g[lead + (slice(lo, hi),)]
                     for lo, hi in zip(bounds[:-1], bounds[1:]))

    return _record(y, tuple(tensors), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.shape

    def bwd(g):
        g2 = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a_shape),)

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    y = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.shape[axis]
    a_shape = a.shape

    def bwd(g):
        g2 = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / n, a_shape),)

    return _record(y, (a,), bwd)


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------

# Abramowitz & Stegun 7.1.26: erfc(z) ~ t * (a1 + t*(a2 + ... + t*a5)) *
# exp(-z^2) for z >= 0, with t = 1 / (1 + p*z) and p = 0.3275911, within
# 1.5e-7 absolute; here z = |x| / sqrt(2)
_F32_P = np.float32(0.3275911 / np.sqrt(2.0))
_F32_A = tuple(np.float32(c) for c in (
    0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
_F32_INV_SQRT_2PI = np.float32(_INV_SQRT_2PI)


def _gelu_parts(x: np.ndarray, derivative: bool):
    """GELU x * Phi(x) of array `x` and, if `derivative`, its derivative
    Phi(x) + x * pdf(x) (else None), both in x's dtype.

    Float64 takes Phi from `ndtr`.  Float32 takes Phi(-|x|) from A&S 7.1.26
    in elementwise passes, and GELU is max(x, 0) - |x| * Phi(-|x|): on
    [-10, 10] both are within 3.4e-7 of float64 `x * ndtr(x)` and its
    derivative (float32 `ndtr`: 3.9e-7), and the GELU alone costs 3.4-5.2 ns
    per element on 64k-256k elements against 15-16 ns for float32 `ndtr`
    (2-core Xeon VM).
    """
    if x.ndim == 0:                # ufuncs return a 0-d result as a scalar
        y, dy = _gelu_parts(x.reshape(1), derivative)
        return y.reshape(()), None if dy is None else dy.reshape(())
    if x.dtype != _FLOAT32:
        phi = _ndtr(x)
        dy = None
        if derivative:
            # phi + x * pdf(x), built in one buffer
            dy = x * x
            dy *= -0.5
            np.exp(dy, out=dy)
            dy *= x
            dy *= _INV_SQRT_2PI
            dy += phi
        return x * phi, dy
    ax = np.abs(x)
    t = ax * _F32_P
    t += 1
    np.reciprocal(t, out=t)
    q = t * _F32_A[4]
    for c in _F32_A[3::-1]:
        q += c
        q *= t
    e = np.square(x)                       # e = exp(-x^2 / 2)
    e *= -0.5
    np.exp(e, out=e)
    q *= e
    q *= 0.5                               # q = Phi(-|x|)
    dy = None
    if derivative:
        dy = np.subtract(1, q)             # Phi(x) = 1 - q, or q where x < 0
        np.copyto(dy, q, where=x < 0)
        e *= x
        e *= _F32_INV_SQRT_2PI
        dy += e
    ax *= q
    y = np.maximum(x, 0)
    y -= ax
    return y, dy


def gelu(a: Tensor) -> Tensor:
    """Exact-form GELU x * Phi(x), with Phi the Gaussian CDF (no tanh).

    Float64 computes Phi with `ndtr`, float32 with a closed-form erfc
    approximation (see `_gelu_parts`).  When it records a node, the forward
    also builds the derivative Phi(x) + x * pdf(x), the one array its
    backward reads.
    """
    a = _as_tensor(a)
    y, dy = _gelu_parts(a.data, _recording(a))

    def bwd(g):
        return (np.multiply(dy, g, out=dy),)

    return _record(y, (a,), bwd)


_gelu = gelu                       # the op, where a `gelu` flag shadows it


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then affine by gamma/beta."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"last axis of input {a.shape}")
    x, gd, bd = _cast(a, gamma, beta)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x - mu) * inv

    def bwd(g):
        dg = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        db = g.sum(axis=tuple(range(g.ndim - 1)))
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        # note: uses biased variance, hence plain means above
        return dx, dg, db

    return _record(gd * xhat + bd, (a, gamma, beta), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x[..., in] @ weight[out, in]^T (+ bias[out], added in place): one node."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear input feature axis {x.shape[-1]} != weight in-axis {weight.shape[-1]}")
    bias = None if bias is None else _as_tensor(bias)
    xd, wd, bd = _cast(x, weight, bias)
    y = np.matmul(xd, wd.T)
    parents = (x, weight)
    if bd is not None:
        y += bd
        parents += (bias,)

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        gw = g2.T @ xd.reshape(-1, xd.shape[-1])
        return g @ wd, gw, None if bd is None else g2.sum(axis=0)

    return _record(y, parents, bwd)


# --------------------------------------------------------------------------
# pooling
# --------------------------------------------------------------------------

def max_pool1d(a: Tensor, kernel: int, gelu: bool = False) -> Tensor:
    """Non-overlapping max pooling over the last axis (stride == kernel).

    A trailing remainder shorter than the kernel is dropped.  When it
    records a node, the forward also keeps the tap of each window's first
    maximum, in the smallest unsigned dtype that holds kernel - 1, and the
    backward routes each window's gradient to that tap.

    With `gelu`, the result is max_pool1d(gelu(a), kernel), a conv stage's
    tail.  GELU falls up to x0 ~ -0.75 and rises after it, so a window's
    largest GELU value is at its smallest or its largest input: GELU runs on
    those two pooled arrays only, and the larger value wins (the earlier tap
    on an exact tie, as in the first-maximum rule).  The node keeps the
    winning tap and GELU's derivative there, 1/kernel of the input.  The
    result equals the composition except where two inputs of a window lie
    within a few ulps, where computed GELU need not follow its slope.
    Kernel 1 is `gelu(a)` itself.
    """
    a = _as_tensor(a)
    if kernel < 1:
        raise ConfigurationError(f"pool kernel must be >= 1, got {kernel}")
    n = a.shape[-1]
    n_out = n // kernel
    if n_out < 1:
        raise DimensionError(f"pool kernel {kernel} exceeds input length {n}")
    if gelu and kernel == 1:
        return _gelu(a)
    m = n_out * kernel
    x = a.data
    record = _recording(a)
    y = x[..., 0:m:kernel].copy()
    lo = y.copy() if gelu else None            # each window's minimum
    taps = lo_taps = None
    if record:
        taps = np.zeros(y.shape, np.min_scalar_type(kernel - 1))
        lo_taps = taps.copy() if gelu else None
    for j in range(1, kernel):
        xj = x[..., j:m:kernel]
        if record:
            # tap j beats the taps before it only where it is strictly
            # greater (less), so the largest j that did is the tap of the
            # first maximum (minimum)
            np.maximum(taps, np.multiply(xj > y, j, dtype=taps.dtype), out=taps)
            if gelu:
                np.maximum(lo_taps, np.multiply(xj < lo, j, dtype=taps.dtype),
                           out=lo_taps)
        np.maximum(y, xj, out=y)
        if gelu:
            np.minimum(lo, xj, out=lo)
    dy = None
    if gelu:
        y, dy = _gelu_parts(y, record)
        lo, dlo = _gelu_parts(lo, record)
        if record:
            # the minimum's GELU wins where larger, or equal at an earlier tap
            take = lo > y
            tie = lo == y
            tie &= lo_taps < taps
            take |= tie
            np.copyto(y, lo, where=take)
            np.copyto(taps, lo_taps, where=take)
            np.copyto(dy, dlo, where=take)
        else:
            np.maximum(y, lo, out=y)
    a_shape = a.shape

    def bwd(g):
        if dy is not None:
            g = np.multiply(dy, g, out=dy)
        gx = np.zeros(a_shape, dtype=g.dtype)
        windows = gx[..., :m].reshape(g.shape + (kernel,))     # a view
        np.put_along_axis(windows, taps[..., None], g[..., None], axis=-1)
        return (gx,)

    return _record(y, (a,), bwd)


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int, padding: int,
            groups: int) -> np.ndarray:
    """Columns [B, groups, C_in/groups*k, N_out] of a grouped conv's input.

    Row c*k + j of group g holds input channel g*C_in/groups + c seen through
    tap j (k strided copies), so the conv is the GEMM
    weight.reshape(groups, C_out/groups, C_in/groups*k) @ cols.  A pointwise
    input (k == 1, stride 1, padding 0) is reshaped without a copy.
    """
    b, cin, n = x.shape
    if k == 1 and stride == 1 and padding == 0:
        return x.reshape(b, groups, cin // groups, n)
    n_out = (n + 2 * padding - k) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    cols = np.empty((b, cin, k, n_out), dtype=x.dtype)
    for j in range(k):
        cols[:, :, j] = x[:, :, j:j + stride * (n_out - 1) + 1:stride]
    return cols.reshape(b, groups, cin // groups * k, n_out)


# Elements of one batch block of padded rows on the depthwise path
# (256 KiB per operand), so that the block's padded input, output and
# scratch stay in a per-core L2 cache through the k passes over them.  On a
# 2-core Xeon with 2 MiB of L2 per core, the default config's batch-64
# depthwise forward ran about 1.5x faster than with one pass per tap over
# the whole batch.
_DEPTHWISE_BLOCK = 1 << 15


def _depthwise_raw(x: np.ndarray, w: np.ndarray, stride: int,
                   padding: int) -> np.ndarray:
    """Depthwise cross-correlation [B, C, N] * [C, 1, k] as k shifted adds.

    Each batch block is copied into zero-padded rows of length
    m = N + 2*padding, and tap j adds the block scaled by w[:, 0, j] to the
    output shifted left by j along the flattened rows, so every pass runs
    over contiguous memory.  Output column t < m - k + 1 only reads columns
    t..t+k-1 of its own row; the last k - 1 columns of each row mix in the
    next row and are dropped.  A stride keeps every stride-th column.
    `conv1d` runs it for the depthwise forward and, with the taps reversed,
    for the depthwise input gradient.
    """
    b, c, n = x.shape
    k = w.shape[2]
    m = n + 2 * padding
    n_full = m - k + 1
    step = max(1, _DEPTHWISE_BLOCK // (c * m))
    y = np.empty((b, c, (n_full - 1) // stride + 1), dtype=x.dtype)
    xp = np.zeros((min(step, b), c, m), dtype=x.dtype)   # padding stays zero
    yp, tmp = np.empty_like(xp), np.empty_like(xp)
    for lo in range(0, b, step):
        nb = min(step, b - lo)
        xb, yb, tb = xp[:nb], yp[:nb], tmp[:nb]
        xb[:, :, padding:padding + n] = x[lo:lo + nb]
        yf, tf = yb.reshape(-1), tb.reshape(-1)
        np.multiply(xb, w[:, 0, 0, None], out=yb)
        for j in range(1, k):
            np.multiply(xb, w[:, 0, j, None], out=tb)
            yf[:yf.size - j] += tf[j:]
        y[lo:lo + nb] = yb[:, :, :n_full:stride]
    return y


def _depthwise_weight_grad(x: np.ndarray, gy: np.ndarray, k: int,
                           stride: int, padding: int) -> np.ndarray:
    """Weight gradient [C, 1, k] of `_depthwise_raw` for output gradient gy.

    Each batch block is copied into zero-padded rows, as in the forward, and
    tap j is one per-channel dot product of gy with the padded input shifted
    by j, read at every stride-th column.
    """
    b, c, n = x.shape
    m = n + 2 * padding
    n_full = m - k + 1
    step = max(1, _DEPTHWISE_BLOCK // (c * m))
    gw = np.zeros((c, 1, k), dtype=x.dtype)
    xp = np.zeros((min(step, b), c, m), dtype=x.dtype)   # padding stays zero
    for lo in range(0, b, step):
        nb = min(step, b - lo)
        xb, gb = xp[:nb], gy[lo:lo + nb]
        xb[:, :, padding:padding + n] = x[lo:lo + nb]
        for j in range(k):
            gw[:, 0, j] += np.einsum("bcn,bcn->c", gb,
                                     xb[:, :, j:j + n_full:stride])
    return gw


def _conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
          groups: int):
    """Forward kernel of a grouped conv: the output and the `_im2col` columns.

    Depthwise (groups == C_in == C_out) runs `_depthwise_raw` and has no
    columns (None); every other grouping multiplies the grouped weight with
    the columns.  `conv1d` runs it for its forward and its input gradient.
    """
    b, cin, n = x.shape
    cout, cg, k = w.shape
    if groups == cin == cout:
        return _depthwise_raw(x, w, stride, padding), None
    cols = _im2col(x, k, stride, padding, groups)
    y = w.reshape(groups, cout // groups, cg * k) @ cols
    return y.reshape(b, cout, cols.shape[-1]), cols


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 1-D cross-correlation (no kernel flip).

    Accepts [C_in, N] or [B, C_in, N] input; weight is [C_out, C_in/groups, k].
    The forward is `_conv`.  The input gradient, skipped when the input
    needs none, is `_conv` run as a transposed conv: on the output gradient
    spread back to stride 1 (zeros between the kept columns), with each
    group's weight transposed to [C_in/groups, C_out/groups, k] and its taps
    reversed, at padding k - 1, keeping columns [padding, padding + N).  The
    weight gradient multiplies the output gradient with the forward's
    `_im2col` columns, or on the depthwise path is `_depthwise_weight_grad`.
    The bias is added in place into the output, so a layer is one graph node.
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
    bias = None if bias is None else _as_tensor(bias)
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(
            f"bias shape {bias.shape} != (C_out,) = ({cout},)")
    if n + 2 * padding < k:
        raise DimensionError(
            f"input length {n} + 2*padding {padding} shorter than kernel {k}")
    xd, wd, bd = _cast(x3, weight, bias)
    y, cols = _conv(xd, wd, stride, padding, groups)
    parents = (x3, weight)
    if bd is not None:
        y += bd[:, None]
        parents += (bias,)
    og = cout // groups
    need_gx = x3.requires_grad   # the stem's waveform input needs none
    x_depthwise = xd if cols is None else None   # read by the depthwise gw only

    def bwd(g):
        gx = None
        if need_gx:
            gs = g               # the output gradient at stride 1
            if stride > 1:
                gs = np.zeros((b, cout, n + 2 * padding - k + 1), dtype=g.dtype)
                gs[:, :, ::stride] = g
            wt = wd.reshape(groups, og, cg, k).swapaxes(1, 2).reshape(cin, og, k)
            gx, _ = _conv(gs, wt[:, :, ::-1], 1, k - 1, groups)
            gx = gx[:, :, padding:padding + n]
        if cols is None:
            gw = _depthwise_weight_grad(x_depthwise, g, k, stride, padding)
        else:
            gg = g.reshape(b, groups, og, g.shape[-1])
            gw = (gg @ np.swapaxes(cols, -1, -2)).sum(axis=0)
        grads = (gx, gw.reshape(wd.shape))
        return grads + (None if bd is None else g.sum(axis=(0, 2)),)

    y = _record(y, parents, bwd)
    return reshape(y, y.shape[1:]) if squeeze else y


# --------------------------------------------------------------------------
# batch normalization
# --------------------------------------------------------------------------

class BnState:
    """Running statistics for one BatchNorm layer (per-channel mean/var)."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor, state: BnState,
                mode: str = "train") -> Tensor:
    """BatchNorm over (batch, time) per channel on [B, C, N] input.

    Train mode normalizes by batch statistics and blends them into `state`'s
    arrays in place (weight BN_MOMENTUM), so they stay the objects a module
    recorded as buffers; eval mode normalizes by the stored statistics, as
    one per-channel affine map computed in float64 and cast to the op's
    dtype.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 3:
        raise DimensionError(f"batchnorm1d expects [B, C, N], got {x.shape}")
    b, c, n = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batchnorm affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"mode must be train or eval, got {mode!r}")

    xd, gd, bd = _cast(x, gamma, beta)
    dt = xd.dtype

    if mode == "eval":
        mu = state.mean.copy()     # a later train forward updates it in place
        inv = 1.0 / np.sqrt(state.var + NORM_EPS)
        # one per-channel affine map: two passes over x instead of four
        scale = (gamma.data * inv).astype(dt, copy=False)
        y = xd * scale[:, None]
        y += (beta.data - mu * scale).astype(dt, copy=False)[:, None]

        def eval_bwd(g):
            xhat = xd - mu.astype(dt, copy=False)[:, None]
            xhat *= inv.astype(dt, copy=False)[:, None]
            return g * scale[:, None], (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))

        return _record(y, (x, gamma, beta), eval_bwd)

    m = b * n
    if m < 2:
        raise DimensionError(
            f"train-mode batchnorm needs B*N >= 2, got B={b} N={n}")
    mu = xd.mean(axis=(0, 2))
    xhat = xd - mu[:, None]                # centred here, scaled below
    var = np.einsum("bcn,bcn->c", xhat, xhat) / m
    state.mean *= 1.0 - BN_MOMENTUM
    state.mean += BN_MOMENTUM * mu
    state.var *= 1.0 - BN_MOMENTUM
    state.var += BN_MOMENTUM * var * m / max(m - 1, 1)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv[:, None]
    y = xhat * gd[:, None]
    y += bd[:, None]

    def bwd(g):
        # closed form of dL/dx: with dxhat = gamma * g, sum(dxhat) is
        # gamma * db and sum(dxhat * xhat) is gamma * dg
        dg = np.einsum("bcn,bcn->c", g, xhat)
        db = np.einsum("bcn->c", g)
        dx = xhat * (-dg / m)[:, None]
        dx += g
        dx -= (db / m)[:, None]
        dx *= (gd * inv)[:, None]
        return dx, dg, db

    return _record(y, (x, gamma, beta), bwd)


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
    p = np.exp(z - zmax)
    total = p.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    picked = z[np.arange(b), idx]
    p /= total

    def bwd(g):
        gz = p.copy()
        gz[np.arange(b), idx] -= 1.0
        return (g * gz / b,)

    return _record(np.mean(lse - picked), (logits,), bwd)
