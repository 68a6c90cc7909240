"""Network assembly: one skeleton, two toggles (conv kind, attention kind).

The four variants used in the ablation are:

    cnt        standard multi-scale conv  + multi-head attention
    cnt-mdsc   depthwise separable conv   + multi-head attention
    cnt-bsa    standard multi-scale conv  + broadcast attention
    ld-rpmnet  depthwise separable conv   + broadcast attention

Layout: stem conv -> conv stages (block + max pool) -> channels become the
embedding axis, time steps become tokens -> learned positional embedding ->
transformer encoder blocks -> mean over tokens -> linear classifier head.

Both conv kinds use one multi-scale block: StandardMultiScaleBlock is
mdsc.MdscBlock with full (groups=1) instead of depthwise branch convs.
Parameter names follow the attribute names through layers.Module, e.g.
stage0.depthwise_k3.weight or encoder1.attn.w_k.bias.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .attention import BsaBlock, MhsaBlock
from .layers import BatchNorm1d, Conv1d, LayerNorm, Linear, Module, ParamInitializer
from .mdsc import MdscBlock, MdscConfig
from .tensor import ConfigurationError, Tensor

CHECKPOINT_MAGIC = b"LDRPM1"

# Input elements per eval-mode forward block: 4 samples at the default
# input length, whose widest activation (stage 0's branch concat) is then
# 6 MiB in float64 and 3 MiB in float32, the eval dtype of the corpus.
# Whole-batch activations above glibc's 32-MiB mmap threshold are mapped
# and faulted in afresh on every call (a default-config batch-64 float64
# forward took 258k minor faults); a block's are reused from the heap.  On
# a 2-core Xeon VM, float64 blocks of 2-4 default-config samples ran
# fastest and 32 or more faulted; REDUCED_CONFIG blocks of 8-64 ran alike.
# A no-grad forward runs its blocks on the usable CPUs and joins the logits
# in order.  A train-mode batch larger than one block runs as two shards: on
# the same VM a default-config batch-16 step ran 1.7-1.8x faster on two
# threads, a REDUCED_CONFIG one (exactly one block) 1.1-1.2x.
_EVAL_BLOCK = 1 << 15


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ModelConfig:
    conv_kind: str = "mdsc"                     # standard | mdsc
    attn_kind: str = "bsa"                      # mhsa | bsa
    input_length: int = 8192
    stem: tuple = (16, 7, 2)                    # (channels, kernel, stride)
    stages: tuple = ((32, (3, 5, 7), 4),
                     (64, (3, 5, 7), 4),
                     (64, (3, 5, 7), 4))        # (out_channels, kernel_set, pool)
    encoder: tuple = (2, 64, 2, 4)              # (depth, model_dim, ffn_expansion, heads)
    num_classes: int = 10

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(
            self, "stages",
            tuple((c, tuple(ks), p) for c, ks, p in self.stages))
        object.__setattr__(self, "encoder", tuple(self.encoder))
        if self.conv_kind not in ("standard", "mdsc"):
            raise ConfigurationError(f"conv_kind must be standard|mdsc, got {self.conv_kind!r}")
        if self.attn_kind not in ("mhsa", "bsa"):
            raise ConfigurationError(f"attn_kind must be mhsa|bsa, got {self.attn_kind!r}")
        if not self.stages:
            raise ConfigurationError("need at least one stage")
        if self.stages[-1][0] != self.encoder[1]:
            raise ConfigurationError(
                f"last stage width {self.stages[-1][0]} must equal encoder "
                f"model_dim {self.encoder[1]}")
        if self.num_classes < 2:
            raise ConfigurationError("need at least two classes")
        sizes = (("stem_channels", self.stem[0]), ("stem_kernel", self.stem[1]),
                 ("stem_stride", self.stem[2]), ("model_dim", self.encoder[1]),
                 ("ffn_expansion", self.encoder[2]), ("heads", self.encoder[3]))
        sizes += tuple(("pool_strides", p) for _, _, p in self.stages)
        for name, value in sizes:
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")

    @property
    def token_count(self) -> int:
        n = self.input_length
        _, k, s = self.stem
        n = (n + 2 * ((k - 1) // 2) - k) // s + 1
        for _, _, pool in self.stages:
            n //= pool
        if n < 1:
            raise ConfigurationError(
                f"input_length {self.input_length} too short for the stage strides")
        return n


# CI-scale variant: input and widths halved relative to the default config.
REDUCED_CONFIG = ModelConfig(
    input_length=2048,
    stem=(8, 7, 2),
    stages=((16, (3, 5, 7), 4), (32, (3, 5, 7), 4), (32, (3, 5, 7), 4)),
    encoder=(2, 32, 2, 4),
)

MODEL_PRESETS = {
    "cnt": ("standard", "mhsa"),
    "cnt-mdsc": ("mdsc", "mhsa"),
    "cnt-bsa": ("standard", "bsa"),
    "ld-rpmnet": ("mdsc", "bsa"),
}


def standard_multiscale_param_count(config: MdscConfig) -> int:
    """Learnable scalars of the full cross-channel counterpart block."""
    c1, c2 = config.in_channels, config.out_channels
    ks = config.kernel_sizes
    return sum(c1 * c1 * k for k in ks) + len(ks) * c1 * c2 + c2 + 2 * c2


class StandardMultiScaleBlock(MdscBlock):
    """Cross-channel counterpart of MdscBlock: full C1 -> C1 branch convs."""

    separable = False
    branch_name = "branch_k"


class EncoderBlock(Module):
    """Post-norm transformer encoder block: attention + residual + LayerNorm,
    feed-forward (d -> e*d -> d, GELU) + residual + LayerNorm."""

    def __init__(self, attn_kind: str, model_dim: int, ffn_expansion: int,
                 heads: int, init: ParamInitializer):
        if attn_kind == "mhsa":
            self.attn = MhsaBlock(model_dim, heads=heads, init=init)
        else:
            self.attn = BsaBlock(model_dim, init=init)
        self.norm1 = LayerNorm(model_dim)
        self.ffn1 = Linear(model_dim, ffn_expansion * model_dim, init=init)
        self.ffn2 = Linear(ffn_expansion * model_dim, model_dim, init=init)
        self.norm2 = LayerNorm(model_dim)

    def forward(self, x: Tensor) -> Tensor:
        y = self.norm1.forward(T.add(x, self.attn.forward(x)))
        f = self.ffn2.forward(T.gelu(self.ffn1.forward(y)))
        return self.norm2.forward(T.add(y, f))


class Network(Module):
    """Assembled classifier; construct via build()."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        init = ParamInitializer(seed)
        stem_c, stem_k, stem_s = config.stem
        self.stem = Conv1d(1, stem_c, stem_k, stride=stem_s,
                           padding=(stem_k - 1) // 2, bias=True, init=init)
        self.stem_bn = BatchNorm1d(stem_c)

        block_cls = MdscBlock if config.conv_kind == "mdsc" else StandardMultiScaleBlock
        self.stages = []
        c_in = stem_c
        for i, (c_out, kernel_set, pool) in enumerate(config.stages):
            blk = block_cls(MdscConfig(c_in, c_out, kernel_set), init=init)
            self.stages.append((self.add(f"stage{i}", blk), pool))
            c_in = c_out

        depth, d, ffn_e, heads = config.encoder
        tokens = config.token_count
        bound = float(np.sqrt(1.0 / d))
        self.pos_emb = init.uniform((tokens, d), bound)
        self.encoder = [
            self.add(f"encoder{i}", EncoderBlock(config.attn_kind, d, ffn_e, heads, init))
            for i in range(depth)]
        self.head = Linear(d, config.num_classes, init=init)

    # -- forward ----------------------------------------------------------
    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Logits [B, num_classes] of input [B, 1, input_length].

        An eval-mode forward under no_grad runs over blocks of
        max(1, _EVAL_BLOCK // input_length) samples and joins their logits
        in block order; eval mode treats every sample on its own, so the
        result is that of one pass.  The blocks run on a pool of one thread
        per usable CPU, made for the call, or in the calling thread if only
        one CPU is usable.  A train-mode forward of at least 2 samples and
        more input elements than one block runs as two shards on two
        threads, whatever the CPU count (`tensor.sharded`): BatchNorm
        normalizes by the statistics of both, so the result is that of one
        pass up to rounding.  Any other forward runs as one pass.

        Eval mode computes in the input's dtype (see `tensor`).  Train mode
        computes in float64: it casts any other input to a float64 copy,
        which needs no gradient (ROADMAP item 3 removes the cast).
        """
        if x.ndim != 3 or x.shape[1] != 1:
            raise T.DimensionError(f"expected input [B, 1, N], got {x.shape}")
        if x.shape[2] != self.config.input_length:
            raise T.DimensionError(
                f"input length {x.shape[2]} != configured "
                f"{self.config.input_length}")
        if mode == "train" and x.data.dtype != np.float64:
            x = Tensor(x.data.astype(np.float64))
        if mode == "train" and x.shape[0] >= 2 and x.size > _EVAL_BLOCK:
            return T.sharded(lambda part: self._logits(part, mode), x,
                             [p for _, p in self.parameters()])
        step = x.shape[0]
        if mode == "eval" and not T.grad_enabled():
            step = max(1, _EVAL_BLOCK // x.shape[2])
        if step >= x.shape[0]:
            return self._logits(x, mode)

        def block(lo):
            with T.no_grad():              # grad mode is per thread
                return self._logits(Tensor(x.data[lo:lo + step]), mode)

        starts = range(0, x.shape[0], step)
        workers = min(_usable_cpus(), len(starts))
        if workers < 2:
            outs = [block(lo) for lo in starts]
        else:
            with ThreadPoolExecutor(workers) as pool:
                outs = list(pool.map(block, starts))
        return T.concat(outs, axis=0)

    def _logits(self, x: Tensor, mode: str) -> Tensor:
        y = T.gelu(self.stem_bn.forward(self.stem.forward(x), mode))
        for blk, pool in self.stages:
            y = blk.forward(y, mode, pool)
        y = T.transpose(y, (0, 2, 1))                  # [B, tokens, d]
        y = T.add(y, self.pos_emb)
        for enc in self.encoder:
            y = enc.forward(y)
        pooled = T.mean(y, axis=1)                     # [B, d]
        return self.head.forward(pooled)

    # -- state -----------------------------------------------------------
    def state_arrays(self):
        """Named (name, ndarray) pairs: parameters then buffers, fixed order."""
        return ([(n, p.data) for n, p in self.parameters()]
                + [(f"buffer.{n}", b) for n, b in self.buffers()])

    def load_state_arrays(self, arrays: dict) -> None:
        """Copy named arrays into the network; the names must match exactly."""
        state = self.state_arrays()
        names = {name for name, _ in state}
        missing = [name for name, _ in state if name not in arrays]
        extra = sorted(set(arrays) - names)
        if missing or extra:
            raise ValueError(
                f"checkpoint tensors do not match the network: "
                f"missing {missing}, extra {extra}")
        for name, dst in state:
            src = arrays[name]
            if src.shape != dst.shape:
                raise T.DimensionError(
                    f"checkpoint tensor {name} has shape {src.shape}, "
                    f"expected {dst.shape}")
            dst[...] = src

    def snapshot(self) -> dict:
        return {n: a.copy() for n, a in self.state_arrays()}


def build(config: ModelConfig, seed: int = 0) -> Network:
    return Network(config, seed)


def build_preset(name: str, base: ModelConfig | None = None,
                 seed: int = 0) -> Network:
    """Build one of the four ablation variants on shared widths."""
    if name not in MODEL_PRESETS:
        raise ConfigurationError(
            f"unknown model {name!r}; choose from {sorted(MODEL_PRESETS)}")
    conv_kind, attn_kind = MODEL_PRESETS[name]
    cfg = replace(base or ModelConfig(), conv_kind=conv_kind,
                  attn_kind=attn_kind)
    return build(cfg, seed)


# --------------------------------------------------------------------------
# checkpoint container
# --------------------------------------------------------------------------

def save_checkpoint(net: Network, path) -> None:
    """Binary container: magic, canonical config text, named f64 tensors."""
    from .config import model_config_to_text

    cfg_text = model_config_to_text(net.config).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(cfg_text)))
        f.write(cfg_text)
        arrays = net.state_arrays()
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                f.write(struct.pack("<I", ext))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Network:
    """Network of a `save_checkpoint` file.  Every malformed file raises a
    ValueError; the parameter count its config declares is checked against
    the parameter elements present before the network is built."""
    from .complexity import count_config
    from .config import model_config_from_text

    with open(path, "rb") as f:
        blob = f.read()
    if blob[:6] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {blob[:6]!r}")
    off = 6

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ValueError("truncated checkpoint file")
        chunk = blob[off:off + n]
        off += n
        return chunk

    cfg_len, = struct.unpack("<I", take(4))
    cfg = model_config_from_text(take(cfg_len).decode())
    count, = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(count):
        nlen, = struct.unpack("<H", take(2))
        name = take(nlen).decode()
        rank, = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        size = math.prod(shape)
        arrays[name] = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).copy()
    if off != len(blob):
        raise ValueError(
            f"{len(blob) - off} trailing bytes after the last checkpoint tensor")
    declared = count_config(cfg).totals[0]
    present = sum(a.size for name, a in arrays.items()
                  if not name.startswith("buffer."))
    if present != declared:
        raise ValueError(
            f"checkpoint config declares {declared} parameters, "
            f"the file holds {present}")
    net = build(cfg, seed=0)
    net.load_state_arrays(arrays)
    return net
