"""Spans around ldrpmnet's public functions, installed from outside the package.

Every call site in ldrpmnet looks its callee up on the module or the class
when it runs (``T.conv1d(...)``, ``blk.forward(...)``, ``loss.backward()``
calling the module-level ``backward``), so replacing that attribute sees every
call without touching a program file.  Spans are kept in memory, each with its
parent, and turned into per-layer self times when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from ldrpmnet import attention, dataset, mdsc, model, train
from ldrpmnet import tensor as T


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "attrs")

    def __init__(self, name, parent, phase):
        self.name, self.parent, self.phase = name, parent, phase
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records one span per wrapped call; ``phase`` tags the spans it opens."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._open: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """`name` is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(*args, **kwargs),
                        self._open[-1] if self._open else -1, self.phase)
            if attrs is not None:
                span.attrs = attrs(*args, **kwargs)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def self_times(self, phase):
        """{span name: (calls, seconds of self time)} over one phase."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for i, s in enumerate(self.spans):
            if s.phase == phase:
                calls, secs = out.get(s.name, (0, 0.0))
                out[s.name] = (calls + 1, secs + (s.end - s.start) - child[i])
        return out

    def spans_named(self, name, phase):
        return [s for s in self.spans if s.name == name and s.phase == phase]


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


CONV_KINDS = ("stem", "depthwise", "full", "pointwise")


def conv_kind(x, weight, bias=None, *, stride=1, padding=0, groups=1):
    """Kind of one conv1d call, read from its kernel size and groups."""
    _, per_group, k = weight.shape
    if k == 1:
        return "pointwise"
    if per_group * groups == 1:
        return "stem"
    return "depthwise" if groups > 1 and per_group == 1 else "full"


def _tape_attrs(loss):
    # tape_node_sizes counts elements; the loss's item size gives the bytes
    return (T.tape_len(), sum(T.tape_node_sizes()) * loss.data.itemsize)


def _batch_attrs(self, x, mode="eval"):
    return x.shape[0]


def instrument(tracer: Tracer):
    """Context manager that routes the traced layers through `tracer`."""
    targets = [
        (T, "conv1d", lambda *a, **k: "tensor.conv1d." + conv_kind(*a, **k), None),
        (T, "gelu", "tensor.gelu", None),
        (T, "batchnorm1d", "tensor.batchnorm1d", None),
        (T, "max_pool1d", "tensor.max_pool1d", None),
        (T, "backward", "tensor.backward", _tape_attrs),
        (mdsc.MdscBlock, "forward", "mdsc.MdscBlock.forward", None),
        (model.StandardMultiScaleBlock, "forward",
         "model.StandardMultiScaleBlock.forward", None),
        (attention.BsaBlock, "forward", "attention.BsaBlock.forward", None),
        (attention.MhsaBlock, "forward", "attention.MhsaBlock.forward", None),
        (model.EncoderBlock, "forward", "model.EncoderBlock.forward", None),
        (model.Network, "forward", "model.Network.forward", _batch_attrs),
        (train, "adamw_step", "train.adamw_step", None),
        (train, "accuracy_on", "train.accuracy_on", None),
        (dataset, "generate", "dataset.generate", None),
        (model, "build_preset", "model.build_preset", None),
    ]
    return patched([(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))
                    for owner, attr, name, attrs in targets])


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

# per unit of the workload's main phase: a train step, or an inference sample
FORWARD_LAYERS = {
    "tensor.gelu.ms": "tensor.gelu",
    "tensor.batchnorm1d.ms": "tensor.batchnorm1d",
    "tensor.max_pool1d.ms": "tensor.max_pool1d",
    "mdsc.MdscBlock.forward.ms": "mdsc.MdscBlock.forward",
    "model.StandardMultiScaleBlock.forward.ms": "model.StandardMultiScaleBlock.forward",
    "attention.BsaBlock.forward.ms": "attention.BsaBlock.forward",
    "attention.MhsaBlock.forward.ms": "attention.MhsaBlock.forward",
    "model.EncoderBlock.forward.ms": "model.EncoderBlock.forward",
    "model.Network.forward.ms": "model.Network.forward",
}
FORWARD_LAYERS.update({f"tensor.conv1d.{k}.fwd_ms": f"tensor.conv1d.{k}"
                       for k in CONV_KINDS})

def row_kind(row_name):
    """Conv kind of a complexity.count row, or None; joins FLOPs to spans."""
    if row_name == "stem.conv":
        return "stem"
    for marker, kind in ((".depthwise_k", "depthwise"), (".branch_k", "full"),
                         (".pointwise", "pointwise")):
        if marker in row_name:
            return kind
    return None


def forward_metrics(tracer, phase, units, flops_per_sample):
    """Self time per unit of every forward layer the phase called, and the
    achieved GFLOP/s of each conv kind.  Layers never called are left out."""
    selfs = tracer.self_times(phase)
    out = {}
    for metric, span in FORWARD_LAYERS.items():
        if span in selfs:
            out[metric] = 1e3 * selfs[span][1] / units
    samples = sum(s.attrs for s in tracer.spans_named("model.Network.forward", phase))
    for kind in CONV_KINDS:
        span = f"tensor.conv1d.{kind}"
        if span in selfs:
            out[f"tensor.conv1d.{kind}.gflops"] = (
                flops_per_sample[kind] * samples / selfs[span][1] / 1e9)
    return out


def training_metrics(tracer, phase):
    """Backward, tape and optimizer cost per train step, and the whole
    validation pass (not its self time) per epoch, over one training phase."""
    selfs = tracer.self_times(phase)
    steps, backward_s = selfs["tensor.backward"]
    tapes = [s.attrs for s in tracer.spans_named("tensor.backward", phase)]
    validations = [s.end - s.start
                   for s in tracer.spans_named("train.accuracy_on", phase)]
    return {
        "tensor.backward.ms": 1e3 * backward_s / steps,
        "tensor.tape_len.nodes": max(n for n, _ in tapes),
        "tensor.tape_bytes.mb": max(b for _, b in tapes) / 2**20,
        "train.adamw_step.ms": 1e3 * selfs["train.adamw_step"][1] / steps,
        "train.accuracy_on.s": sum(validations) / len(validations),
    }


def setup_metrics(tracer):
    selfs = tracer.self_times("setup")
    return {f"{name}.s": secs / calls for name, (calls, secs) in selfs.items()
            if name in ("dataset.generate", "model.build_preset")}
