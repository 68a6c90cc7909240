"""Parameter-holding layers built on the autodiff primitives, and the
Module base that names and collects the parameters of every block.

Initialization is fan-in uniform (bound = sqrt(1/fan_in)), each parameter
drawn from its own `rng.stream(seed, counter)`, so a given seed always
produces bit-identical parameters regardless of construction order
elsewhere.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .rng import stream
from .tensor import BnState, Tensor


class ParamInitializer:
    """Deterministic parameter source: (seed, counter) -> Philox stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = 0

    def uniform(self, shape, bound: float) -> Tensor:
        g = stream(self.seed, self.counter)
        self.counter += 1
        return Tensor(g.uniform(-bound, bound, size=shape), requires_grad=True)


class Module:
    """Base of every layer, block and network.

    Assigning a Tensor or a Module to an attribute records it under the
    attribute's name; `add` records anything else under a name of its own: a
    list element (a branch, a stage) or a buffer, a plain array that the
    module updates in place.  Constructors create parameters in Philox draw
    order, so that one order is also the order of `parameters()`,
    `buffers()` and a checkpoint's arrays.  Child names are joined with dots.
    """

    def __setattr__(self, name, value):
        if isinstance(value, (Tensor, Module)):
            self.add(name, value)
        object.__setattr__(self, name, value)

    def add(self, name: str, value):
        self.__dict__.setdefault("_members", {})[name] = value
        return value

    def _walk(self):
        for name, member in self.__dict__.get("_members", {}).items():
            if isinstance(member, Module):
                yield from ((f"{name}.{n}", v) for n, v in member._walk())
            else:
                yield name, member

    def parameters(self):
        return [(n, v) for n, v in self._walk() if isinstance(v, Tensor)]

    def buffers(self):
        return [(n, v) for n, v in self._walk() if not isinstance(v, Tensor)]

    def param_count(self) -> int:
        return sum(p.size for _, p in self.parameters())


class Conv1d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int, *,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True, init: ParamInitializer | None = None):
        init = init or ParamInitializer(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel
        bound = float(np.sqrt(1.0 / fan_in))
        self.weight = init.uniform((out_channels, in_channels // groups, kernel), bound)
        self.bias = init.uniform((out_channels,), bound) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, init: ParamInitializer | None = None):
        init = init or ParamInitializer(0)
        self.in_features = in_features
        self.out_features = out_features
        bound = float(np.sqrt(1.0 / in_features))
        self.weight = init.uniform((out_features, in_features), bound)
        self.bias = init.uniform((out_features,), bound) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class BatchNorm1d(Module):
    eps = T.NORM_EPS       # for code that recomputes the normalization

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = BnState(channels)
        self.add("running_mean", self.state.mean)
        self.add("running_var", self.state.var)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.batchnorm1d(x, self.gamma, self.beta, self.state, mode=mode)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)
