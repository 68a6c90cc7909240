"""The benchmark's tracer (bench/tracing.py) patches `forward` on both
multi-scale block classes from outside the package and reports one row per
class.  StandardMultiScaleBlock inherits MdscBlock's forward, so these tests
hold the classes to what the tracer relies on: one span per block, under its
own class, and the plain forward back in place after the trace."""

import importlib.util
import pathlib

import numpy as np
import pytest

from ldrpmnet import mdsc, model
from ldrpmnet import tensor as T
from ldrpmnet.model import REDUCED_CONFIG
from ldrpmnet.tensor import Tensor, no_grad

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

BLOCK_SPANS = ("mdsc.MdscBlock.forward", "model.StandardMultiScaleBlock.forward")


@pytest.mark.parametrize("preset, span", [
    ("cnt", "model.StandardMultiScaleBlock.forward"),
    ("ld-rpmnet", "mdsc.MdscBlock.forward")])
def test_one_span_per_block_under_its_class(preset, span):
    net = model.build_preset(preset, base=REDUCED_CONFIG, seed=0)
    x = Tensor(np.zeros((1, 1, REDUCED_CONFIG.input_length)))
    untraced = mdsc.MdscBlock.forward
    inherited = "forward" not in vars(model.StandardMultiScaleBlock)
    tracer = tracing.Tracer()
    tracer.phase = "infer"
    try:
        with tracing.instrument(tracer), no_grad():
            net.forward(x)
        calls = {name: n for name, (n, _) in tracer.self_times("infer").items()
                 if name in BLOCK_SPANS}
        assert calls == {span: len(REDUCED_CONFIG.stages)}

        assert mdsc.MdscBlock.forward is untraced
        assert model.StandardMultiScaleBlock.forward is untraced
        recorded = len(tracer.spans)
        with no_grad():
            net.forward(x)
        assert len(tracer.spans) == recorded
    finally:
        # the tracer restores by assignment, which leaves the subclass its own
        # copy of the inherited forward; drop it so the class is as defined
        if inherited and "forward" in vars(model.StandardMultiScaleBlock):
            del model.StandardMultiScaleBlock.forward


def test_tape_metrics_read_the_live_graph():
    # tensor.tape_len.nodes and tensor.tape_bytes.mb of train-ld, and
    # check_tape_empty after inference
    net = model.build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
    x = Tensor(np.ones((16, 1, REDUCED_CONFIG.input_length)))
    loss = T.cross_entropy(net.forward(x, mode="train"), np.arange(16) % 10 + 1)
    assert tracing._tape_attrs(loss) == (61, 2_976_481 * 8)
    del loss
    with no_grad():
        net.forward(x, mode="eval")
    assert T.tape_len() == 0
