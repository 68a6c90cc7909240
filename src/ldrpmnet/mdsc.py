"""Multi-scale depthwise separable convolution block.

Parallel depthwise convolutions at several odd kernel sizes, channel
concatenation, 1x1 pointwise fusion, BatchNorm, GELU, max pool.  "Same"
padding keeps all branch outputs at the same time extent so the
concatenation is well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .layers import BatchNorm1d, Conv1d, Module, ParamInitializer
from .tensor import ConfigurationError, Tensor


@dataclass(frozen=True)
class MdscConfig:
    in_channels: int
    out_channels: int
    kernel_sizes: tuple = (3, 5, 7)

    def __post_init__(self):
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigurationError("channel counts must be >= 1")
        if len(self.kernel_sizes) < 1:
            raise ConfigurationError("at least one kernel size required")
        if len(set(self.kernel_sizes)) != len(self.kernel_sizes):
            raise ConfigurationError(f"kernel sizes must be distinct: {self.kernel_sizes}")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise ConfigurationError(f"kernel sizes must be odd and positive: {self.kernel_sizes}")


def mdsc_param_count(config: MdscConfig) -> int:
    """Closed-form learnable-scalar count of one block.

    depthwise (sum C1*k_l) + pointwise (L*C1*C2) + pointwise bias (C2)
    + BatchNorm affine (2*C2).
    """
    c1, c2 = config.in_channels, config.out_channels
    ks = config.kernel_sizes
    return sum(c1 * k for k in ks) + len(ks) * c1 * c2 + c2 + 2 * c2


class MdscBlock(Module):
    """Branches -> concat -> pointwise -> BatchNorm -> GELU -> max pool.

    GELU and the pool are one op, `max_pool1d(..., gelu=True)`, which
    evaluates GELU at each pool window's extremes only; at the default pool
    of 1 it is GELU itself.  The branch convs are depthwise (groups = C1);
    the cross-channel counterpart, model.StandardMultiScaleBlock, only
    clears `separable` and names its branches `branch_k{k}` instead of
    `depthwise_k{k}`.
    """

    separable = True
    branch_name = "depthwise_k"

    def __init__(self, config: MdscConfig, seed: int = 0,
                 init: ParamInitializer | None = None):
        self.config = config
        init = init or ParamInitializer(seed)
        c1, c2 = config.in_channels, config.out_channels
        # the branch convs under either grouping; no bias: it would be
        # absorbed by the BatchNorm shift
        self.depthwise = [
            self.add(f"{self.branch_name}{k}",
                     Conv1d(c1, c1, k, padding=(k - 1) // 2,
                            groups=c1 if self.separable else 1, bias=False,
                            init=init))
            for k in config.kernel_sizes
        ]
        self.pointwise = Conv1d(len(config.kernel_sizes) * c1, c2, 1,
                                bias=True, init=init)
        self.bn = BatchNorm1d(c2)

    def forward(self, x: Tensor, mode: str = "train", pool: int = 1) -> Tensor:
        if x.shape[-2] != self.config.in_channels:
            raise T.DimensionError(
                f"input channel axis is {x.shape[-2]}, block expects "
                f"{self.config.in_channels}")
        z = T.concat([br.forward(x) for br in self.depthwise], axis=-2)
        y = self.pointwise.forward(z)
        y = self.bn.forward(y, mode)
        return T.max_pool1d(y, pool, gelu=True)
