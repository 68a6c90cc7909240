"""Exact per-layer parameter and FLOP accounting.

Conventions (declared once, used everywhere reports are printed):

* 1 multiply-add = 2 flops
* GELU = 8 flops/element, BatchNorm and LayerNorm = 4 flops/element,
  softmax = 5 flops/element, pooling/mean/residual add = 1 flop/element
* conv and linear counts are the closed forms
  2 * N_out * C_out * (C_in/groups) * k   and   2 * m * n per position;
  bias additions are not counted.

All arithmetic is integer; nothing is rounded until display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import attention_flops
from .layers import Conv1d, Linear
from .model import ModelConfig, Network

MAC_FLOPS = 2
GELU_FLOPS_PER_ELEMENT = 8
NORM_FLOPS_PER_ELEMENT = 4
POOL_FLOPS_PER_ELEMENT = 1


@dataclass
class ComplexityReport:
    rows: list                      # (layer name, params, flops)

    @property
    def totals(self) -> tuple[int, int]:
        return (sum(r[1] for r in self.rows), sum(r[2] for r in self.rows))

    @property
    def totals_millions(self) -> tuple[float, float]:
        p, f = self.totals
        return p / 1e6, f / 1e6

    def to_text(self) -> str:
        width = max([len(r[0]) for r in self.rows] + [len("TOTAL")])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'flops':>14}"]
        for name, p, f in self.rows:
            lines.append(f"{name:<{width}}  {p:>12}  {f:>14}")
        p, f = self.totals
        pm, fm = self.totals_millions
        lines.append(f"{'TOTAL':<{width}}  {p:>12}  {f:>14}")
        lines.append(f"{'TOTAL (M)':<{width}}  {pm:>12.2f}  {fm:>14.2f}")
        return "\n".join(lines)


def conv1d_flops(n_out: int, c_out: int, c_in_per_group: int, k: int) -> int:
    return MAC_FLOPS * n_out * c_out * c_in_per_group * k


def linear_flops(m: int, n: int, positions: int = 1) -> int:
    return MAC_FLOPS * m * n * positions


def count_config(cfg: ModelConfig) -> ComplexityReport:
    """Per-layer closed-form counts for a single sample through a network
    built from `cfg`, without building one."""
    rows = []

    stem_c, stem_k, stem_s = cfg.stem
    n = (cfg.input_length + 2 * ((stem_k - 1) // 2) - stem_k) // stem_s + 1
    rows.append(("stem.conv", stem_c * stem_k + stem_c,
                 conv1d_flops(n, stem_c, 1, stem_k)))
    rows.append(("stem.bn", 2 * stem_c, NORM_FLOPS_PER_ELEMENT * stem_c * n))
    rows.append(("stem.gelu", 0, GELU_FLOPS_PER_ELEMENT * stem_c * n))

    c_in = stem_c
    for i, (c_out, kernel_set, pool) in enumerate(cfg.stages):
        L = len(kernel_set)
        # a depthwise branch sees one input channel per output, a full one all
        branch, per_group = (("depthwise_k", 1) if cfg.conv_kind == "mdsc"
                             else ("branch_k", c_in))
        for k in kernel_set:
            rows.append((f"stage{i}.{branch}{k}", c_in * per_group * k,
                         conv1d_flops(n, c_in, per_group, k)))
        rows.append((f"stage{i}.pointwise", L * c_in * c_out + c_out,
                     conv1d_flops(n, c_out, L * c_in, 1)))
        rows.append((f"stage{i}.bn", 2 * c_out,
                     NORM_FLOPS_PER_ELEMENT * c_out * n))
        rows.append((f"stage{i}.gelu", 0, GELU_FLOPS_PER_ELEMENT * c_out * n))
        rows.append((f"stage{i}.pool", 0, POOL_FLOPS_PER_ELEMENT * c_out * n))
        n //= pool
        c_in = c_out

    depth, d, ffn_e, heads = cfg.encoder
    tokens = cfg.token_count
    assert tokens == n, "shape propagation out of sync with the network"
    rows.append(("pos_emb", tokens * d, POOL_FLOPS_PER_ELEMENT * tokens * d))

    attn_params = (4 * d * d + 4 * d if cfg.attn_kind == "mhsa"
                   else 3 * d * d + 4 * d)
    for i in range(depth):
        rows.append((f"encoder{i}.attn", attn_params,
                     attention_flops(cfg.attn_kind, tokens, d, heads)))
        rows.append((f"encoder{i}.residual1", 0, tokens * d))
        rows.append((f"encoder{i}.norm1", 2 * d,
                     NORM_FLOPS_PER_ELEMENT * tokens * d))
        rows.append((f"encoder{i}.ffn1", d * ffn_e * d + ffn_e * d,
                     linear_flops(d, ffn_e * d, tokens)))
        rows.append((f"encoder{i}.ffn_gelu", 0,
                     GELU_FLOPS_PER_ELEMENT * tokens * ffn_e * d))
        rows.append((f"encoder{i}.ffn2", ffn_e * d * d + d,
                     linear_flops(ffn_e * d, d, tokens)))
        rows.append((f"encoder{i}.residual2", 0, tokens * d))
        rows.append((f"encoder{i}.norm2", 2 * d,
                     NORM_FLOPS_PER_ELEMENT * tokens * d))

    rows.append(("head.mean", 0, POOL_FLOPS_PER_ELEMENT * tokens * d))
    rows.append(("head.linear", d * cfg.num_classes + cfg.num_classes,
                 linear_flops(d, cfg.num_classes)))

    return ComplexityReport(rows)


def count(net: Network) -> ComplexityReport:
    """Per-layer closed-form counts for a single sample through `net`."""
    report = count_config(net.config)
    assert report.totals[0] == net.param_count(), (
        f"closed-form params {report.totals[0]} != allocated {net.param_count()}")
    return report


# --------------------------------------------------------------------------
# instrumented verification (independent of the fast numpy path)
# --------------------------------------------------------------------------

def verify_flops_empirically(layer, x: np.ndarray) -> int:
    """Run a naive counting forward pass; returns the multiply-add tally.

    Supports Conv1d and Linear layers only; anything else raises.  The tally
    times MAC_FLOPS must equal the closed-form flop count.
    """
    if isinstance(layer, Conv1d):
        return _instrumented_conv1d(layer, x)[1]
    if isinstance(layer, Linear):
        return _instrumented_linear(layer, x)[1]
    raise TypeError(
        f"instrumented counting not supported for {type(layer).__name__}")


def _instrumented_conv1d(layer: Conv1d, x: np.ndarray):
    cin, n = x.shape
    cout, cg, k = layer.weight.shape
    s, p, g = layer.stride, layer.padding, layer.groups
    xp = np.pad(x, ((0, 0), (p, p)))
    n_out = (n + 2 * p - k) // s + 1
    y = np.zeros((cout, n_out))
    macs = 0
    og = cout // g
    for o in range(cout):
        grp = o // og
        for t in range(n_out):
            acc = layer.bias.data[o] if layer.bias is not None else 0.0
            for c in range(cg):
                for j in range(k):
                    acc += layer.weight.data[o, c, j] * xp[grp * cg + c, t * s + j]
                    macs += 1
            y[o, t] = acc
    return y, macs


def _instrumented_linear(layer: Linear, x: np.ndarray):
    x2 = np.atleast_2d(x)
    b, m = x2.shape
    nf = layer.out_features
    y = np.zeros((b, nf))
    macs = 0
    for i in range(b):
        for o in range(nf):
            acc = layer.bias.data[o] if layer.bias is not None else 0.0
            for j in range(m):
                acc += layer.weight.data[o, j] * x2[i, j]
                macs += 1
            y[i, o] = acc
    return y, macs
