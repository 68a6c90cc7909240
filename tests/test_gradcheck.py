import numpy as np
import pytest

from ldrpmnet import tensor as T
from ldrpmnet.gradcheck import SUITE_NAMES, gradcheck, standard_suite
from ldrpmnet.tensor import Tensor


def _rand(shape, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_linear_layer_tight():
    err = gradcheck(T.linear, [_rand((4,), 1), _rand((3, 4), 2), _rand((3,), 3)])
    assert err <= 1e-6


def test_depthwise_conv():
    err = gradcheck(
        lambda x, w: T.conv1d(x, w, stride=1, padding=2, groups=3),
        [_rand((2, 3, 12), 4), _rand((3, 1, 5), 5)])
    assert err <= 1e-5


def test_depthwise_conv_strided_unpadded():
    err = gradcheck(
        lambda x, w: T.conv1d(x, w, stride=2, padding=0, groups=3),
        [_rand((2, 3, 13), 10), _rand((3, 1, 4), 11)])
    assert err <= 1e-5


@pytest.mark.parametrize("x_shape, w_shape, kwargs", [
    ((2, 3, 7), (4, 3, 1), {}),
    ((2, 1, 15), (4, 1, 7), dict(stride=2, padding=3)),
    ((2, 3, 9), (4, 3, 5), {}),
    ((2, 4, 11), (6, 2, 3), dict(stride=2, padding=1, groups=2)),
    ((2, 3, 8), (6, 1, 3), dict(padding=1, groups=3)),
], ids=["pointwise", "stem", "full", "grouped", "multiplier"])
def test_gemm_conv(x_shape, w_shape, kwargs):
    err = gradcheck(
        lambda x, w, b: T.conv1d(x, w, b, **kwargs),
        [_rand(x_shape, 15), _rand(w_shape, 16), _rand(w_shape[:1], 17)])
    assert err <= 1e-5


def test_eval_batchnorm():
    state = T.BnState(3)
    state.mean[:] = [0.5, -1.0, 2.0]
    state.var[:] = [0.25, 2.0, 1.5]
    err = gradcheck(
        lambda x, g, b: T.batchnorm1d(x, g, b, state, mode="eval"),
        [_rand((2, 3, 5), 12), _rand((3,), 13), _rand((3,), 14)])
    assert err <= 1e-5


def test_composite_chain_vs_finite_differences():
    def chain(x, w, g, b):
        y = T.conv1d(x, w, stride=1, padding=1)
        y = T.gelu(T.layer_norm(y, g, b))
        return T.softmax(y, axis=-1)

    err = gradcheck(chain, [_rand((1, 2, 6), 6), _rand((3, 2, 3), 7),
                            _rand((6,), 8), _rand((6,), 9)])
    assert err <= 1e-5


def test_full_suite_within_tolerance(monkeypatch):
    dtypes = set()
    record = T._record

    def spy(data, parents, backward_fn):
        dtypes.add(np.asarray(data).dtype)
        return record(data, parents, backward_fn)

    monkeypatch.setattr(T, "_record", spy)
    results = standard_suite(seed=0)
    assert dtypes == {np.dtype(np.float64)}     # the tolerances are float64's
    assert tuple(results) == SUITE_NAMES
    worst = max(results.values())
    assert worst <= 1e-4, {k: v for k, v in results.items() if v > 1e-4}


@pytest.fixture(scope="module")
def suite_at_seed_0():
    return standard_suite(seed=0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_single_check_equals_its_suite_value(suite_at_seed_0, name):
    assert standard_suite(seed=0, only=name) == {name: suite_at_seed_0[name]}


def test_unknown_suite_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        standard_suite(seed=0, only="quux")
