"""A walk through the reverse-mode engine on paper-sized examples.

Every op output that needs a gradient keeps a node on itself: its parents
and a backward function.  ``backward`` runs the nodes reachable from the
loss, newest first, then detaches them.  This script builds a few tiny
graphs, prints analytic gradients next to hand-derived ones, and finishes
with a finite-difference check on a composite expression.
"""

import numpy as np

from ldrpmnet import tensor as T
from ldrpmnet.gradcheck import gradcheck
from ldrpmnet.tensor import Tensor

# ---------------------------------------------------------------------------
# 1. d/dx of a quadratic: y = sum(x * x), dy/dx = 2x
# ---------------------------------------------------------------------------
x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
y = T.tsum(x * x)
y.backward()
print("x          ", x.data)
print("grad of sum(x^2):", x.grad, " (expect 2x =", 2 * x.data, ")")

# ---------------------------------------------------------------------------
# 2. broadcasting is handled by summing gradients back to the leaf shape
# ---------------------------------------------------------------------------
w = Tensor(np.array([0.5]), requires_grad=True)
v = Tensor(np.arange(4.0), requires_grad=True)
out = T.tsum(w * v)                    # w broadcasts over the 4 entries
out.backward()
print("\nbroadcast scalar: grad(w) =", w.grad, " (expect sum(v) =",
      v.data.sum(), ")")

# ---------------------------------------------------------------------------
# 3. backward consumes the loss's graph; a second call is an error, and a
#    forward that is dropped frees its graph with it
# ---------------------------------------------------------------------------
z = Tensor(np.ones(2), requires_grad=True)
unused = T.mean(z * z)
print("\nnodes held while mean(z * z) is alive:", T.tape_len())
del unused
print("after it is dropped:", T.tape_len())
loss = T.mean(z * z)
loss.backward()
print("after backward:", T.tape_len())
try:
    loss.backward()
except T.TapeError as exc:
    print("\nsecond backward correctly refused:", exc)

# ---------------------------------------------------------------------------
# 4. finite differences agree with backward on a composite chain
# ---------------------------------------------------------------------------
rng = np.random.Generator(np.random.Philox(key=0))
a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)


def fn(a, b):
    return T.mean(T.gelu(a @ b))


err = gradcheck(fn, [a, b])
print(f"\ngradcheck on mean(gelu(a @ b)): max relative error {err:.3e}")
