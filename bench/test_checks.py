"""Each output check of the benchmark passes on a correct output and fails on
a corrupted one; the tracer sees every layer call and restores the program."""

import copy

import numpy as np
import pytest

from ldrpmnet import model
from ldrpmnet import tensor as T
from ldrpmnet.model import ModelConfig
from ldrpmnet.tensor import Tensor, no_grad

import checks
import tracing
import workloads

SMALL = ModelConfig(input_length=1024, stem=(4, 7, 2),
                    stages=((8, (3, 5), 4), (8, (3, 5), 4)), encoder=(1, 8, 2, 2))


@pytest.fixture(scope="module")
def small_net():
    net = model.build_preset("ld-rpmnet", base=SMALL, seed=3)
    workloads.perturb_norms(net, seed=3)
    return net


@pytest.fixture(scope="module")
def waves():
    rng = np.random.Generator(np.random.Philox(key=5))
    return rng.uniform(-1.0, 1.0, (3, SMALL.input_length))


def program_logits(net, waves):
    with no_grad():
        return net.forward(Tensor(waves[:, None, :]), mode="eval").data


@pytest.mark.parametrize("losses", [[2.0, float("nan")], [1.5, 2.0], [2.0, 2.0]])
def test_epoch_losses(losses):
    checks.check_epoch_losses([2.0, 1.5])
    with pytest.raises(checks.CheckFailed):
        checks.check_epoch_losses(losses)


def test_epoch_losses_need_not_fall_when_told():
    checks.check_epoch_losses([1.5, 2.0], must_fall=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_epoch_losses([1.5, float("inf")], must_fall=False)


def test_floor():
    rms_levels = np.repeat([0.1, 0.5, 0.9], 4)
    waveforms = rms_levels[:, None] * np.ones((12, 8))
    labels = np.repeat([1, 2, 3], 4)
    fit, score = np.arange(0, 12, 2), np.arange(1, 12, 2)
    floor = checks.rms_centroid_floor(waveforms, labels, fit, score)
    assert floor == 1.0
    with pytest.raises(checks.CheckFailed):
        checks.check_beats_floor(floor, floor)
    checks.check_beats_floor(0.5, 0.35)


def test_central_difference_steps_past_a_kink():
    kinked = lambda d: abs(d - 5e-7) + 2.0 * d          # slope 1 left of 5e-7
    assert checks.central_difference(kinked) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.central_difference(abs)                   # kink at the point


def test_gradient():
    analytic = {"w[0]": 0.4365, "b[2]": -1e-9}
    checks.check_gradient(analytic, {"w[0]": 0.4365001, "b[2]": 0.0})
    for corrupt in ({"w[0]": 0.44, "b[2]": 0.0}, {"w[0]": -0.4365, "b[2]": 0.0},
                    {"w[0]": 0.4365, "b[2]": 1e-4}):
        with pytest.raises(checks.CheckFailed):
            checks.check_gradient(analytic, corrupt)


def test_reference_matches_program(small_net, waves):
    got = program_logits(small_net, waves)
    expected = [checks.reference_logits(small_net, w) for w in waves]
    np.testing.assert_allclose(got, expected, atol=1e-10)
    checks.check_logits(got, expected, "program")


class _Float32View:
    """The same network with float32 parameters and buffers."""

    def __init__(self, net):
        self.config = net.config
        self._params = [(n, Tensor(0.0)) for n, _ in net.parameters()]
        for (_, view), (_, p) in zip(self._params, net.parameters()):
            view.data = p.data.astype(np.float32)
        self._buffers = [(n, b.astype(np.float32)) for n, b in net.buffers()]

    def parameters(self):
        return self._params

    def buffers(self):
        return self._buffers


def test_tolerance_admits_float32(small_net, waves):
    got = program_logits(small_net, waves)
    low = [checks.reference_logits(_Float32View(small_net), w.astype(np.float32))
           for w in waves]
    checks.check_logits(got, low, "float32 reference")


def _drop_tap(net):
    net.stages[0][0].depthwise[1].weight.data[2, 0, 1] = 0.0


def _drop_channel(net):
    net.stages[1][0].pointwise.weight.data[:, 5, :] = 0.0


def _unfolded_norm(net):
    net.stem_bn.state.var[...] = 1.0


@pytest.mark.parametrize("corrupt", [_drop_tap, _drop_channel, _unfolded_norm])
def test_logits_catch_corruption(small_net, waves, corrupt):
    expected = [checks.reference_logits(small_net, w) for w in waves]
    broken = copy.deepcopy(small_net)
    corrupt(broken)
    with pytest.raises(checks.CheckFailed):
        checks.check_logits(program_logits(broken, waves), expected, "corrupted")


def test_logits_shape():
    with pytest.raises(checks.CheckFailed):
        checks.check_logits(np.zeros((2, 10)), np.zeros((3, 10)), "shape")


def test_batch_agreement():
    labels = np.array([1, 2, 3, 4])
    checks.check_batch_agreement([1, 2, 3, 1], labels, 0.75)
    with pytest.raises(checks.CheckFailed):
        checks.check_batch_agreement([1, 2, 3, 1], labels, 1.0)


def test_tape_empty():
    checks.check_tape_empty(0)
    with pytest.raises(checks.CheckFailed):
        checks.check_tape_empty(93)


def test_tracer_sees_layers_and_restores(small_net, waves):
    original = T.conv1d
    tracer = tracing.Tracer()
    tracer.phase = "infer"
    with tracing.instrument(tracer):
        program_logits(small_net, waves)
    assert T.conv1d is original
    calls = tracer.self_times("infer")
    stages = len(SMALL.stages)
    assert calls["tensor.conv1d.stem"][0] == 1
    assert calls["tensor.conv1d.depthwise"][0] == 2 * stages
    assert calls["tensor.conv1d.pointwise"][0] == stages
    assert "tensor.conv1d.full" not in calls
    root = tracer.spans_named("model.Network.forward", "infer")
    assert len(root) == 1 and root[0].parent == -1 and root[0].attrs == 3
    total = root[0].end - root[0].start
    assert sum(s for _, s in calls.values()) == pytest.approx(total, rel=1e-9)


def test_conv_kinds():
    x = Tensor(np.zeros((1, 4, 16)))
    assert tracing.conv_kind(x, Tensor(np.zeros((4, 1, 3))), groups=4) == "depthwise"
    assert tracing.conv_kind(x, Tensor(np.zeros((4, 4, 3)))) == "full"
    assert tracing.conv_kind(x, Tensor(np.zeros((8, 4, 1)))) == "pointwise"
    assert tracing.conv_kind(x, Tensor(np.zeros((4, 1, 7)))) == "stem"
