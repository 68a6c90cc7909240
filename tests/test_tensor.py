import collections
import hashlib
import platform
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from ldrpmnet import tensor as T
from ldrpmnet.layers import BatchNorm1d
from ldrpmnet.model import REDUCED_CONFIG, build_preset
from ldrpmnet.tensor import BnState, Tensor


def naive_conv1d(x, w, bias=None, stride=1, padding=1, groups=1):
    """Independent quadruple-loop oracle; no shared code with the fast path."""
    cin, n = x.shape
    cout, cg, k = w.shape
    xp = np.zeros((cin, n + 2 * padding))
    xp[:, padding:padding + n] = x
    n_out = (n + 2 * padding - k) // stride + 1
    y = np.zeros((cout, n_out))
    og = cout // groups
    for o in range(cout):
        g = o // og
        for t in range(n_out):
            acc = 0.0
            for c in range(cg):
                for j in range(k):
                    acc += w[o, c, j] * xp[g * cg + c, t * stride + j]
            y[o, t] = acc + (bias[o] if bias is not None else 0.0)
    return y


def naive_conv1d_grads(x, w, gy, stride=1, padding=1, groups=1):
    """Loop adjoint of `naive_conv1d`: input and weight gradients of
    sum(gy * conv(x, w)) for one sample, each output tap added where it read."""
    cin, n = x.shape
    cout, cg, k = w.shape
    xp = np.zeros((cin, n + 2 * padding))
    xp[:, padding:padding + n] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    og = cout // groups
    for o in range(cout):
        g = o // og
        for t in range(gy.shape[1]):
            for c in range(cg):
                for j in range(k):
                    gxp[g * cg + c, t * stride + j] += w[o, c, j] * gy[o, t]
                    gw[o, c, j] += gy[o, t] * xp[g * cg + c, t * stride + j]
    return gxp[:, padding:padding + n], gw


class TestConv1dGradientOracle:
    # (C_in, C_out, groups): dense, grouped, depthwise, channel multiplier
    @pytest.mark.parametrize("cin, cout, groups", [
        (3, 4, 1), (4, 6, 2), (3, 3, 3), (3, 6, 3),
    ], ids=["dense", "grouped", "depthwise", "multiplier"])
    @pytest.mark.parametrize("block_samples", [None, 1])
    def test_grads_match_loop_adjoint(self, monkeypatch, cin, cout, groups,
                                      block_samples):
        if block_samples is not None:
            monkeypatch.setattr(T, "_DEPTHWISE_BLOCK", block_samples)
        rng = np.random.Generator(np.random.Philox(key=16))
        for k in (1, 2, 3, 5):
            for stride in (1, 2, 3):
                for pad in range(k + 1):
                    n = int(rng.integers(max(1, k - 2 * pad), 13))
                    n_out = (n + 2 * pad - k) // stride + 1
                    x = rng.standard_normal((2, cin, n))
                    w = rng.standard_normal((cout, cin // groups, k))
                    gy = rng.standard_normal((2, cout, n_out))
                    xt = Tensor(x, requires_grad=True)
                    wt = Tensor(w, requires_grad=True)
                    y = T.conv1d(xt, wt, stride=stride, padding=pad,
                                 groups=groups)
                    T.backward(T.tsum(T.mul(y, Tensor(gy))))
                    pairs = [naive_conv1d_grads(x[i], w, gy[i], stride, pad,
                                                groups) for i in range(2)]
                    case = f"k={k} stride={stride} padding={pad} n={n}"
                    npt.assert_allclose(xt.grad, [gx for gx, _ in pairs],
                                        rtol=0, atol=1e-12, err_msg=case)
                    npt.assert_allclose(wt.grad, sum(gw for _, gw in pairs),
                                        rtol=0, atol=1e-12, err_msg=case)


class TestConv1d:
    def test_identity_kernel(self):
        out = T.conv1d(Tensor([[1.0, 2, 3, 4]]), Tensor([[[0.0, 1, 0]]]),
                       stride=1, padding=1)
        npt.assert_array_equal(out.data, [[1, 2, 3, 4]])

    def test_box_sum(self):
        out = T.conv1d(Tensor([[1.0, 1, 1]]), Tensor([[[1.0, 1, 1]]]),
                       stride=1, padding=0)
        npt.assert_array_equal(out.data, [[3.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        x = rng.standard_normal((3, 16))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        out = T.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=2)
        npt.assert_allclose(out.data, naive_conv1d(x, w, b, 1, 2), atol=1e-12)

    def test_exhaustive_small_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for cin in (1, 2, 4):
            for cout in (1, 3, 4):
                for k in (1, 3, 7):
                    for stride in (1, 2):
                        n = int(rng.integers(k, 32))
                        pad = int(rng.integers(0, 3))
                        x = rng.standard_normal((cin, n))
                        w = rng.standard_normal((cout, cin, k))
                        out = T.conv1d(Tensor(x), Tensor(w), stride=stride,
                                       padding=pad)
                        npt.assert_allclose(
                            out.data, naive_conv1d(x, w, None, stride, pad),
                            atol=1e-12)

    def test_depthwise_equals_per_channel_convs(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        c, n, k = 3, 20, 5
        x = rng.standard_normal((c, n))
        w = rng.standard_normal((c, 1, k))
        out = T.conv1d(Tensor(x), Tensor(w), stride=1, padding=2, groups=c)
        per_channel = np.concatenate([
            T.conv1d(Tensor(x[j:j + 1]), Tensor(w[j:j + 1]),
                     stride=1, padding=2).data
            for j in range(c)])
        npt.assert_allclose(out.data, per_channel, atol=1e-12)

    @pytest.mark.parametrize("block_samples", [None, 1, 2])
    def test_depthwise_path_matches_oracle(self, monkeypatch, block_samples):
        rng = np.random.Generator(np.random.Philox(key=11))
        c = 3
        for k in (1, 3, 4, 7):
            for stride in (1, 2, 3):
                for pad in range(k + 1):
                    n = int(rng.integers(max(1, k - 2 * pad), 20))
                    n_out = (n + 2 * pad - k) // stride + 1
                    if block_samples is not None:
                        monkeypatch.setattr(T, "_DEPTHWISE_BLOCK",
                                            block_samples * c * n_out)
                    w = rng.standard_normal((c, 1, k))
                    x = rng.standard_normal((c, n))
                    out = T.conv1d(Tensor(x), Tensor(w), stride=stride,
                                   padding=pad, groups=c)
                    npt.assert_allclose(
                        out.data, naive_conv1d(x, w, None, stride, pad, c),
                        atol=1e-12)
                    xb = rng.standard_normal((3, c, n))
                    out = T.conv1d(Tensor(xb), Tensor(w), stride=stride,
                                   padding=pad, groups=c)
                    for i in range(3):
                        npt.assert_allclose(
                            out.data[i],
                            naive_conv1d(xb[i], w, None, stride, pad, c),
                            atol=1e-12)

    def test_depthwise_grads_same_for_any_batch_block(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=12))
        x = Tensor(rng.standard_normal((5, 4, 17)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 1, 5)), requires_grad=True)
        gy = rng.standard_normal((5, 4, 8))

        def grads():
            y = T.conv1d(x, w, stride=2, padding=1, groups=4)
            T.backward(T.tsum(T.mul(y, Tensor(gy))))
            out = x.grad, w.grad
            x.grad = w.grad = None
            return out

        gx, gw = grads()
        monkeypatch.setattr(T, "_DEPTHWISE_BLOCK", 2 * 4 * 8)
        gx2, gw2 = grads()
        npt.assert_allclose(gx2, gx, atol=1e-12)
        npt.assert_allclose(gw2, gw, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_blocks_leave_no_stale_columns(self, monkeypatch, stride):
        # one sample per block: a large first sample must leave nothing in
        # the reused padded rows that reaches the all-zero second sample
        monkeypatch.setattr(T, "_DEPTHWISE_BLOCK", 1)
        rng = np.random.Generator(np.random.Philox(key=14))
        c, n, k, pad = 3, 13, 5, 2
        x = np.zeros((2, c, n))
        x[0] = 1e3 * rng.standard_normal((c, n))
        w = rng.standard_normal((c, 1, k))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = T.conv1d(xt, wt, stride=stride, padding=pad, groups=c)
        npt.assert_allclose(y.data[0], naive_conv1d(x[0], w, None, stride, pad, c),
                            atol=1e-12)
        assert not y.data[1].any()
        gy = np.zeros(y.shape)
        gy[0] = 1e3 * rng.standard_normal(y.shape[1:])
        T.backward(T.tsum(T.mul(y, Tensor(gy))))
        assert not xt.grad[1].any()
        x0, w0 = Tensor(x[:1], requires_grad=True), Tensor(w, requires_grad=True)
        y0 = T.conv1d(x0, w0, stride=stride, padding=pad, groups=c)
        T.backward(T.tsum(T.mul(y0, Tensor(gy[:1]))))
        npt.assert_array_equal(xt.grad[:1], x0.grad)
        npt.assert_array_equal(wt.grad, w0.grad)

    def test_depthwise_empty_batch(self):
        x = Tensor(np.zeros((0, 3, 10)), requires_grad=True)
        w = Tensor(np.ones((3, 1, 3)), requires_grad=True)
        y = T.conv1d(x, w, padding=1, groups=3)
        assert y.shape == (0, 3, 10)
        T.backward(T.tsum(y))
        assert x.grad.shape == (0, 3, 10) and not w.grad.any()

    def test_channel_multiplier_depthwise_matches_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        x = rng.standard_normal((3, 14))
        w = rng.standard_normal((6, 1, 3))
        out = T.conv1d(Tensor(x), Tensor(w), stride=2, padding=1, groups=3)
        npt.assert_allclose(out.data, naive_conv1d(x, w, None, 2, 1, 3),
                            atol=1e-12)

    def test_pointwise_path_matches_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for cin, cout in ((1, 1), (3, 4), (6, 2)):
            x = rng.standard_normal((3, cin, 11))
            w = rng.standard_normal((cout, cin, 1))
            b = rng.standard_normal(cout)
            out = T.conv1d(Tensor(x), Tensor(w), Tensor(b))
            for i in range(3):
                npt.assert_allclose(out.data[i], naive_conv1d(x[i], w, b, 1, 0),
                                    atol=1e-12)
            npt.assert_allclose(T.conv1d(Tensor(x[0]), Tensor(w)).data,
                                naive_conv1d(x[0], w, None, 1, 0), atol=1e-12)

    def test_grouped_matches_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        x = rng.standard_normal((4, 15))
        w = rng.standard_normal((6, 2, 3))
        out = T.conv1d(Tensor(x), Tensor(w), stride=1, padding=1, groups=2)
        npt.assert_allclose(out.data, naive_conv1d(x, w, None, 1, 1, 2),
                            atol=1e-12)

    def test_input_without_grad_skips_its_gradient(self, monkeypatch):
        # the input gradient is the forward kernel `_conv` run on the output
        # gradient, so a spy on `_conv` set between forward and backward
        # catches it; one GEMM case (the stem's shape) and one depthwise case
        rng = np.random.Generator(np.random.Philox(key=15))

        def fail(*args):
            raise AssertionError("input gradient computed for a constant input")

        for x_shape, w_shape, y_shape, kw in (
                ((3, 1, 40), (4, 1, 7), (3, 4, 20), dict(stride=2, padding=3)),
                ((3, 4, 40), (4, 1, 5), (3, 4, 40), dict(padding=2, groups=4))):
            x = rng.standard_normal(x_shape)
            w = rng.standard_normal(w_shape)
            gy = rng.standard_normal(y_shape)

            def grads(x_needs_grad):
                xt = Tensor(x, requires_grad=x_needs_grad)
                wt = Tensor(w, requires_grad=True)
                y = T.conv1d(xt, wt, **kw)
                if not x_needs_grad:
                    monkeypatch.setattr(T, "_conv", fail)
                T.backward(T.tsum(T.mul(y, Tensor(gy))))
                monkeypatch.undo()
                return xt.grad, wt.grad

            gx, gw = grads(True)
            gx_none, gw_alone = grads(False)
            assert gx is not None and gx_none is None
            npt.assert_array_equal(gw_alone, gw)

    def test_bad_groups(self):
        with pytest.raises(T.ConfigurationError, match="groups"):
            T.conv1d(Tensor(np.zeros((3, 8))), Tensor(np.zeros((4, 1, 3))),
                     groups=2)

    def test_kernel_longer_than_input(self):
        with pytest.raises(T.DimensionError, match="kernel"):
            T.conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_weight_axis_mismatch(self):
        with pytest.raises(T.DimensionError, match="axis 1"):
            T.conv1d(Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 3, 3))))


def composed_linear(x, w, b=None):
    """linear as the ops it recorded before taking its bias into one node."""
    if x.ndim >= 2:
        y = T.matmul(x, T.transpose(w, (1, 0)))
    else:
        y = T.reshape(T.matmul(T.reshape(x, (1, -1)), T.transpose(w, (1, 0))),
                      (w.shape[0],))
    return y if b is None else T.add(y, b)


def composed_conv1d(x, w, b, **kw):
    """A biased conv1d as the conv, reshape(bias) and add it recorded before."""
    return T.add(T.conv1d(x, w, **kw), T.reshape(b, (w.shape[0], 1)))


def forward_and_grads(op, arrays):
    """Output of op on fresh leaves and the leaves' gradients of a random
    projection of it."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    y = op(*leaves)
    proj = np.random.Generator(np.random.Philox(key=18)).standard_normal(y.shape)
    T.backward(T.tsum(T.mul(y, Tensor(proj))))
    return y.data, [t.grad for t in leaves]


def assert_matches_composition(op, composed, arrays):
    y, grads = forward_and_grads(op, arrays)
    y_ref, grads_ref = forward_and_grads(composed, arrays)
    npt.assert_array_equal(y, y_ref)
    for g, g_ref in zip(grads, grads_ref, strict=True):
        npt.assert_allclose(g, g_ref, rtol=0, atol=1e-12)


class TestBiasInsideTheOp:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["rank1", "rank2", "rank3"])
    def test_linear_matches_the_composition(self, lead, bias):
        rng = np.random.Generator(np.random.Philox(key=17))
        arrays = [rng.standard_normal(lead + (6,)), rng.standard_normal((4, 6))]
        if bias:
            arrays.append(rng.standard_normal(4))
        assert_matches_composition(T.linear, composed_linear, arrays)

    @pytest.mark.parametrize("cout, groups", [(3, 3), (4, 1)], ids=["depthwise", "gemm"])
    def test_biased_conv1d_matches_the_composition(self, cout, groups):
        rng = np.random.Generator(np.random.Philox(key=19))
        arrays = [rng.standard_normal((2, 3, 21)),
                  rng.standard_normal((cout, 3 // groups, 5)),
                  rng.standard_normal(cout)]
        kw = dict(stride=2, padding=2, groups=groups)
        assert_matches_composition(lambda x, w, b: T.conv1d(x, w, b, **kw),
                                   lambda x, w, b: composed_conv1d(x, w, b, **kw),
                                   arrays)

    @pytest.mark.parametrize("op, w_shape", [
        (lambda x, w, b: T.conv1d(x, w, b, padding=1), (4, 3, 3)),
        (lambda x, w, b: T.linear(x, w, b), (4, 8))], ids=["conv1d", "linear"])
    def test_a_biased_layer_is_one_node(self, op, w_shape):
        x = Tensor(np.ones((2, 3, 8)), requires_grad=True)
        y = op(x, Tensor(np.ones(w_shape), requires_grad=True),
               Tensor(np.ones(4), requires_grad=True))
        assert T.tape_len() == 1
        del y
        assert T.tape_len() == 0


class TestBatchNorm:
    def test_constant_input_zeroed(self):
        x = Tensor(np.full((2, 3, 4), 7.0))
        out = T.batchnorm1d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                            BnState(3), mode="train")
        npt.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_gamma_zero_gives_beta(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        out = T.batchnorm1d(x, Tensor(np.zeros(3)), Tensor(np.full(3, 2.5)),
                            BnState(3), mode="train")
        npt.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_train_statistics(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 2, 8)))
        out = T.batchnorm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                            BnState(2), mode="train")
        mu = out.data.mean(axis=(0, 2))
        var = out.data.var(axis=(0, 2))
        assert np.abs(mu).max() <= 1e-10
        # eps=1e-5 inside the denominator pulls the variance slightly below 1
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_train_backward_matches_dxhat_form(self):
        rng = np.random.Generator(np.random.Philox(key=15))
        x = rng.normal(1.0, 2.0, size=(4, 3, 10))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        g = rng.normal(size=x.shape)
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = T.batchnorm1d(xt, gt, bt, BnState(3), mode="train")
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        # reference: the backward through dL/dxhat = gamma * g
        m = 4 * 10
        inv = 1.0 / np.sqrt(x.var(axis=(0, 2), keepdims=True) + 1e-5)
        xhat = (x - x.mean(axis=(0, 2), keepdims=True)) * inv
        dxhat = g * gamma[:, None]
        dx = (inv / m) * (m * dxhat
                          - dxhat.sum(axis=(0, 2), keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=(0, 2), keepdims=True))
        npt.assert_allclose(xt.grad, dx, atol=1e-12)
        npt.assert_allclose(gt.grad, (g * xhat).sum(axis=(0, 2)), atol=1e-12)
        npt.assert_allclose(bt.grad, g.sum(axis=(0, 2)), atol=1e-12)

    def test_degenerate_batch(self):
        with pytest.raises(T.DimensionError, match="B\\*N"):
            T.batchnorm1d(Tensor(np.zeros((1, 2, 1))), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), BnState(2), mode="train")

    def test_eval_uses_running_stats(self):
        state = BnState(1)
        state.mean[:] = 2.0
        state.var[:] = 4.0
        x = Tensor(np.array([[[4.0]]]))
        out = T.batchnorm1d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                            state, mode="eval")
        npt.assert_allclose(out.data, (4.0 - 2.0) / np.sqrt(4.0 + 1e-5),
                            atol=1e-12)

    def test_train_updates_the_buffers_in_place(self):
        rng = np.random.Generator(np.random.Philox(key=16))
        x = rng.normal(1.0, 2.0, size=(3, 2, 5))
        bn = BatchNorm1d(2)
        (_, mean), (_, var) = bn.buffers()
        bn.forward(Tensor(x), mode="train")
        assert bn.state.mean is mean and bn.state.var is var
        # momentum 0.1 from mean 0 / var 1, unbiased batch variance
        npt.assert_allclose(mean, 0.1 * x.mean(axis=(0, 2)), rtol=1e-12)
        npt.assert_allclose(var, 0.9 + 0.1 * x.var(axis=(0, 2), ddof=1),
                            rtol=1e-12)

    def test_eval_gradient_ignores_a_later_train_forward(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        x, g = rng.normal(size=(2, 3, 6)), rng.normal(size=(2, 3, 6))
        gamma = rng.normal(size=3)

        def eval_grads(train_between):
            state = BnState(3)
            state.mean[:] = [0.5, -1.0, 2.0]
            xt, gt, bt = (Tensor(a, requires_grad=True)
                          for a in (x, gamma, np.zeros(3)))
            out = T.batchnorm1d(xt, gt, bt, state, mode="eval")
            if train_between:
                T.batchnorm1d(Tensor(x + 5.0), Tensor(np.ones(3)),
                              Tensor(np.zeros(3)), state, mode="train")
            T.backward(T.tsum(T.mul(out, Tensor(g))))
            return xt.grad, gt.grad, bt.grad

        for plain, interleaved in zip(eval_grads(False), eval_grads(True)):
            npt.assert_array_equal(plain, interleaved)


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_saturation(self):
        assert abs(T.gelu(Tensor([10.0])).data[0] - 10.0) <= 1e-9

    def test_unit_value(self):
        # 1 * Phi(1) from a high-precision erf evaluation (mpmath)
        assert abs(T.gelu(Tensor([1.0])).data[0] - 0.8413447460685429) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_input_records(self, dtype):
        # Phi(1) + pdf(1) = 0.8413... + 0.2419...
        x = Tensor(np.array(1.0, dtype), requires_grad=True)
        y = T.gelu(x)
        y.backward()
        assert y.shape == x.grad.shape == ()
        assert abs(y.item() - 0.8413447460685429) <= 1e-6
        assert abs(float(x.grad) - 1.0833154705876864) <= 1e-6


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5],
                            atol=1e-15)

    def test_stability(self):
        out = T.softmax(Tensor([1000.0, 0.0])).data
        npt.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_extended_precision_oracle(self):
        import mpmath
        rng = np.random.Generator(np.random.Philox(key=12))
        x = rng.uniform(-5, 5, 7)
        with mpmath.workdps(50):
            es = [mpmath.e ** v for v in x]
            total = sum(es)
            expected = np.array([float(e / total) for e in es])
        npt.assert_allclose(T.softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_rows_sum_to_one_over_wide_range(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        x = rng.uniform(-1e3, 1e3, size=(20, 9))
        sums = T.softmax(Tensor(x), axis=-1).data.sum(axis=-1)
        npt.assert_allclose(sums, 1.0, atol=1e-12)


class TestBackward:
    def test_linear_map_gradient(self):
        w = np.array([3.0, -1.0, 2.0])
        x = Tensor([1.0, 4.0, 2.0], requires_grad=True)
        T.tsum(T.mul(Tensor(w), x)).backward()
        npt.assert_array_equal(x.grad, w)

    def test_square_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_shared_gradient_not_aliased(self):
        # add hands one array to both parents, and a's first gradient comes
        # from it; the use of a recorded before the add is added to a.grad
        # later and must leave b.grad alone
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        w = np.array([0.5, -1.0, 2.0])
        before = T.mul(a, a)
        s = T.add(a, b)
        T.tsum(T.add(before, T.mul(s, Tensor(w)))).backward()   # a^2 + (a + b) w
        npt.assert_array_equal(a.grad, 2 * a.data + w)
        npt.assert_array_equal(b.grad, w)
        assert not np.shares_memory(a.grad, b.grad)

    def test_same_operand_twice(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        T.tsum(x + x).backward()
        npt.assert_array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(T.TapeError, match="scalar"):
            y.backward()

    def test_repeated_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        with pytest.raises(T.TapeError, match="tape"):
            loss.backward()

    def test_each_node_is_freed_before_the_next_runs(self):
        # newest first: tsum, mul, emit, then probe.  When probe runs, a, h
        # and emit's returned gradient, which only the graph held, must all
        # be gone; h too, although probe is h's own backward function
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        refs, alive = {}, []

        def emit(g):
            out = 2.0 * g
            refs["emitted"] = weakref.ref(out)
            return (out,)

        def probe(g):
            alive.extend(name for name, ref in refs.items() if ref() is not None)
            return (g,)

        h = T._record(x.data.copy(), (x,), probe)
        a = T._record(h.data.copy(), (h,), emit)
        refs.update(h=weakref.ref(h), a=weakref.ref(a))
        loss = T.tsum(T.mul(a, a))
        del h, a
        loss.backward()
        assert alive == [] and len(refs) == 3
        assert T.tape_len() == 0
        npt.assert_array_equal(x.grad, 4 * x.data)

    def test_raising_backward_leaves_no_graph_and_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def fail(g):
            raise FloatingPointError("midway")

        h = T.mul(x, x)
        boom = T._record(h.data * 2, (h,), fail)
        y = T.mul(boom, boom)
        loss = T.tsum(y)
        with pytest.raises(FloatingPointError, match="midway"):
            loss.backward()
        assert T.tape_len() == 0
        assert all(t.grad is None for t in (loss, y, boom, h, x))

    def test_backward_peak_stays_at_the_end_of_the_forward(self):
        # a REDUCED batch-16 ld-rpmnet loss holds about 18 MiB of graph (36
        # MiB while nodes held their parent tensors); freeing each node as it
        # runs keeps the peak within 2 MiB of what the forward left (27 MiB
        # above it while the graph lived to the end)
        net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
        x = _reduced_batch()
        tracemalloc.start()
        try:
            loss = _reduced_loss(net, x)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert T.tape_len() == 0
        assert held <= 20 << 20, held
        assert peak - held <= 2 << 20, (held, peak)


class TestMiscOps:
    def test_concat_shape(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        assert T.concat([a, b], axis=0).shape == (4, 3)

    def test_concat_mismatch(self):
        with pytest.raises(T.DimensionError, match="axis"):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_mean(self):
        assert T.mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_layer_norm_statistics(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        x = Tensor(rng.normal(2.0, 3.0, size=16))
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert abs(out.mean()) <= 1e-10
        assert abs(out.var() - 1.0) <= 1e-4

    def test_max_pool(self):
        x = Tensor(np.array([[[1.0, 3, 2, 5, 4, 0]]]))
        npt.assert_array_equal(T.max_pool1d(x, 2).data, [[[3, 5, 4]]])

    def test_max_pool_ties_route_to_first_maximum(self):
        x = Tensor(np.array([[[2.0, 2, 1, 1, 0, 3, 3, 3, 5]]]), requires_grad=True)
        y = T.max_pool1d(x, 2)
        npt.assert_array_equal(y.data, [[[2, 1, 3, 3]]])
        T.backward(T.tsum(T.mul(y, Tensor(np.array([[[1.0, 2, 3, 4]]])))))
        npt.assert_array_equal(x.grad, [[[1, 0, 2, 0, 0, 3, 4, 0, 0]]])

    def test_determinism(self):
        rng = np.random.Generator(np.random.Philox(key=15))
        x = rng.standard_normal((2, 3, 32))
        w = rng.standard_normal((4, 3, 5))

        def run():
            out = T.conv1d(Tensor(x), Tensor(w), stride=2, padding=2)
            return T.softmax(T.gelu(out), axis=-1).data

        assert np.array_equal(run(), run())

    def test_finite_outputs(self):
        rng = np.random.Generator(np.random.Philox(key=16))
        x = Tensor(rng.uniform(-100, 100, size=(3, 8)))
        for out in (T.gelu(x), T.softmax(x, axis=-1),
                    T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))):
            assert np.isfinite(out.data).all()


def _eval_state(channels):
    state = BnState(channels)
    state.mean[:] = np.linspace(-1.0, 1.0, channels)
    state.var[:] = np.linspace(0.5, 2.0, channels)
    return state


# One call per op, or per path of an op: `act` makes an activation in the
# dtype under test and `par` a float64 parameter, both needing a gradient.
_DTYPE_CASES = {
    "add": lambda act, par: T.add(act(2, 3), par(3)),
    "mul": lambda act, par: T.mul(act(2, 3), par(3)),
    "matmul": lambda act, par: T.matmul(act(2, 3), par(3, 4)),
    "reshape": lambda act, par: T.reshape(act(2, 3), (3, 2)),
    "transpose": lambda act, par: T.transpose(act(2, 3), (1, 0)),
    "concat": lambda act, par: T.concat([act(2, 3), par(2, 2)], axis=1),
    "tsum": lambda act, par: T.tsum(act(2, 3), axis=1),
    "mean": lambda act, par: T.mean(act(2, 3), axis=0),
    "max_pool1d": lambda act, par: T.max_pool1d(act(2, 3, 8), 2),
    "max_pool1d-gelu": lambda act, par: T.max_pool1d(act(2, 3, 8), 2, gelu=True),
    "softmax": lambda act, par: T.softmax(act(2, 3)),
    "gelu": lambda act, par: T.gelu(act(2, 3)),
    "layer_norm": lambda act, par: T.layer_norm(act(2, 5), par(5), par(5)),
    "linear": lambda act, par: T.linear(act(2, 5), par(3, 5), par(3)),
    "conv1d-gemm": lambda act, par: T.conv1d(act(2, 3, 9), par(4, 3, 3), par(4),
                                             stride=2, padding=1),
    "conv1d-pointwise": lambda act, par: T.conv1d(act(2, 3, 9), par(4, 3, 1), par(4)),
    "conv1d-depthwise": lambda act, par: T.conv1d(act(2, 3, 9), par(3, 1, 3),
                                                  padding=1, groups=3),
    "batchnorm1d-train": lambda act, par: T.batchnorm1d(
        act(2, 3, 5), par(3), par(3), BnState(3), mode="train"),
    "batchnorm1d-eval": lambda act, par: T.batchnorm1d(
        act(2, 3, 5), par(3), par(3), _eval_state(3), mode="eval"),
    "cross_entropy": lambda act, par: T.cross_entropy(act(3, 4), [1, 4, 2]),
}

_NOT_OPS = {"Tensor", "DimensionError", "ConfigurationError", "TapeError",
            "no_grad", "grad_enabled", "backward", "tape_len",
            "tape_node_sizes", "BnState"}


class TestDtypeRule:
    """An op computes in float32 if any operand is float32, else in float64;
    a gradient takes its tensor's dtype."""

    def test_every_op_has_a_case(self):
        ops = {name.split("-")[0] for name in _DTYPE_CASES}
        assert ops == set(T.__all__) - _NOT_OPS

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(_DTYPE_CASES))
    def test_output_and_gradients(self, case, dtype):
        rng = np.random.Generator(np.random.Philox(key=17))
        acts, params = [], []

        def make(out, shape, dt):
            out.append(Tensor(rng.standard_normal(shape).astype(dt),
                              requires_grad=True))
            return out[-1]

        y = _DTYPE_CASES[case](lambda *s: make(acts, s, dtype),
                               lambda *s: make(params, s, np.float64))
        assert y.data.dtype == dtype
        # what the op's backward returns, before `backward` copies a first
        # gradient into its tensor's dtype
        fn = y._node.fn
        returned = []

        def spy(g):
            grads = fn(g)
            returned.extend(gr.dtype for gr in grads if gr is not None)
            return grads

        y._node.fn = spy
        T.backward(T.tsum(T.mul(y, Tensor(rng.standard_normal(y.shape)))))
        assert returned and set(returned) == {np.dtype(dtype)}
        assert [a.grad.dtype for a in acts] == [dtype] * len(acts)
        assert [p.grad.dtype for p in params] == [np.float64] * len(params)

    def test_float32_depthwise_backward_peaks_at_half_the_float64_bytes(self):
        # its scratch rows return no array, so only their size shows a dtype
        peaks = []
        for dtype in (np.float64, np.float32):
            rng = np.random.Generator(np.random.Philox(key=18))
            x = Tensor(rng.standard_normal((4, 8, 4096)).astype(dtype),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((8, 1, 7)), requires_grad=True)
            loss = T.tsum(T.conv1d(x, w, padding=3, groups=8))
            tracemalloc.start()
            try:
                loss.backward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.55 * peaks[0], peaks

    def test_tensor_keeps_floats_and_converts_the_rest_to_float64(self):
        x32, x64 = np.ones(3, np.float32), np.ones(3)
        assert Tensor(x32).data is x32 and Tensor(x64).data is x64
        for data in (np.arange(3), [1, 2], 2, np.ones(2, np.float16),
                     np.ones(2, bool)):
            assert Tensor(data).data.dtype == np.float64
        assert T.mul(Tensor(x32), 2).data.dtype == np.float32
        assert T.add(Tensor(np.arange(3)), 1).data.dtype == np.float64


def _reduced_batch():
    rng = np.random.Generator(np.random.Philox(key=17))
    return rng.uniform(-1.0, 1.0, size=(16, 1, REDUCED_CONFIG.input_length))


def _reduced_loss(net, x):
    return T.cross_entropy(net.forward(Tensor(x), mode="train"),
                           np.arange(16) % 10 + 1)


class TestGraphMemory:
    """A graph keeps only the arrays its backward functions read."""

    # SHA-256 of the parameter gradients of `_reduced_loss`, in parameter
    # order, as computed while graph nodes held their parent tensors
    GRADIENTS = {
        "ld-rpmnet": "3ee202ac886ea4e4a8c5e82de04765eaaa4dea8333e8fa7101b64a652360a0ae",
        "cnt": "e05f5c545f17c886424dafd9cdaaf4f4d9778ca1ec86fa08931e80196f86e4f1",
    }

    @pytest.mark.parametrize("preset", sorted(GRADIENTS))
    def test_gradients_unchanged(self, preset):
        net = build_preset(preset, base=REDUCED_CONFIG, seed=0)
        _reduced_loss(net, _reduced_batch()).backward()
        digest = hashlib.sha256()
        for _, p in net.parameters():
            digest.update(p.grad.tobytes())
        assert digest.hexdigest() == self.GRADIENTS[preset]

    def test_live_loss_holds_no_array_that_no_backward_reads(self, monkeypatch):
        # conv outputs feed concat or BatchNorm, which save none of them;
        # gelu keeps its derivative and max_pool1d its taps instead of the input
        refs = []

        def spy(op, array):
            def traced(*args, **kwargs):
                out = op(*args, **kwargs)
                data = array(args, out)
                refs.append((op.__name__, weakref.ref(
                    data if data.base is None else data.base)))
                return out
            return traced

        monkeypatch.setattr(T, "conv1d", spy(T.conv1d, lambda args, out: out.data))
        monkeypatch.setattr(T, "gelu", spy(T.gelu, lambda args, out: args[0].data))
        monkeypatch.setattr(T, "max_pool1d",
                            spy(T.max_pool1d, lambda args, out: args[0].data))
        net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
        loss = _reduced_loss(net, _reduced_batch())
        # the stem, and 3 depthwise branches and a pointwise conv per stage;
        # a gelu after the stem and each encoder's feed-forward, and a
        # gelu-and-pool tail per stage
        assert collections.Counter(name for name, _ in refs) == {
            "conv1d": 13, "gelu": 3, "max_pool1d": 3}
        assert [name for name, ref in refs if ref() is not None] == []
        assert T.tape_len() == 61
        loss.backward()
        assert T.tape_len() == 0

    @pytest.mark.parametrize("case", sorted(_DTYPE_CASES))
    def test_backward_functions_hold_no_tensor(self, case):
        # a tensor would keep its data alive whether backward reads it or not
        rng = np.random.Generator(np.random.Philox(key=19))

        def make(*shape):
            return Tensor(rng.standard_normal(shape), requires_grad=True)

        fn = _DTYPE_CASES[case](make, make)._node.fn
        held = [cell.cell_contents for cell in fn.__closure__ or ()]
        assert not [c for c in held if isinstance(c, Tensor)]

    @pytest.mark.parametrize("op, base, saved", [
        # no-record peak: the output and ndtr's Phi(x)
        # saved: Phi(x) + x * pdf(x), as large as the output
        ("gelu", 2.0, 1.0),
        # no-record peak: the output; saved: uint8 taps, an eighth of it
        ("max_pool1d", 1.0, 0.125),
        # no-record peak: both pooled extremes, and Phi(x) and GELU of one;
        # saved: the taps, and the derivative at the winners, 1/4 of the input
        ("max_pool1d-gelu", 4.0, 1.125)],
        ids=["gelu-1.0", "max_pool1d-0.125", "max_pool1d-gelu-1.125"])
    def test_only_a_recorded_forward_builds_what_backward_reads(self, op, base,
                                                                saved):
        run = {"gelu": T.gelu, "max_pool1d": lambda t: T.max_pool1d(t, 4),
               "max_pool1d-gelu": lambda t: T.max_pool1d(t, 4, gelu=True)}[op]
        data = np.random.default_rng(0).standard_normal((4, 8, 4096))

        def extra(x):
            """Peak beyond `base` and bytes held beyond the output, both in
            output sizes."""
            tracemalloc.start()
            try:
                out = run(x)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak / out.data.nbytes - base, held / out.data.nbytes - 1.0

        with T.no_grad():
            assert max(extra(Tensor(data, requires_grad=True))) < 0.05
        assert max(extra(Tensor(data))) < 0.05
        peak, held = extra(Tensor(data, requires_grad=True))
        assert peak >= saved - 0.05 and abs(held - saved) < 0.05
        assert T.tape_len() == 0

    @settings(max_examples=200, deadline=None)
    @given(kernel=st.integers(1, 5), windows=st.integers(1, 5),
           lead=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_max_pool_gradient_matches_first_argmax(self, kernel, windows,
                                                    lead, dtype, data):
        # integer values from a small range, so windows often hold ties
        n = windows * kernel + data.draw(st.integers(0, kernel - 1))
        ints = st.lists(st.integers(-2, 2), min_size=n * lead[0] * lead[1],
                        max_size=n * lead[0] * lead[1])
        x = np.array(data.draw(ints), dtype=dtype).reshape(lead + (n,))
        # distinct and nonzero, so every window's route shows
        g = np.arange(1, 1 + windows * lead[0] * lead[1], dtype=dtype)
        g = g.reshape(lead + (windows,))
        xt = Tensor(x, requires_grad=True)
        y = T.max_pool1d(xt, kernel)
        T.backward(T.tsum(T.mul(y, Tensor(g))))

        m = windows * kernel
        first = x[..., :m].reshape(lead + (windows, kernel)).argmax(axis=-1)
        expected = np.zeros(lead + (windows, kernel), dtype=dtype)
        np.put_along_axis(expected, first[..., None], g[..., None], axis=-1)
        expected = np.concatenate(
            [expected.reshape(lead + (m,)), np.zeros(lead + (n - m,), dtype)], axis=-1)
        assert y.data.dtype == dtype and xt.grad.dtype == dtype
        assert np.array_equal(y.data, x[..., :m].reshape(lead + (windows, kernel)).max(-1))
        assert xt.grad.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.integers(1, 5), windows=st.integers(1, 5),
           lead=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           dtype=st.sampled_from([np.float32, np.float64]),
           ints=st.booleans(), data=st.data())
    def test_gelu_pool_equals_pool_of_gelu(self, kernel, windows, lead, dtype,
                                           ints, data):
        n = windows * kernel + data.draw(st.integers(0, kernel - 1))
        shape = lead + (n,)
        size = n * lead[0] * lead[1]
        if ints:                 # many ties, on both sides of GELU's minimum
            values = data.draw(st.lists(st.integers(-2, 2), min_size=size,
                                        max_size=size))
            x = np.array(values, dtype=dtype).reshape(shape)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = rng.standard_normal(shape).astype(dtype)
        g = np.arange(1, 1 + windows * lead[0] * lead[1], dtype=dtype)
        g = g.reshape(lead + (windows,))

        def run(fused):
            xt = Tensor(x, requires_grad=True)
            y = (T.max_pool1d(xt, kernel, gelu=True) if fused
                 else T.max_pool1d(T.gelu(xt), kernel))
            T.backward(T.tsum(T.mul(y, Tensor(g))))
            # the composition multiplies GELU's derivative into the pool's
            # zero fill, which leaves -0.0 where the derivative is negative
            return y.data.tobytes(), (xt.grad + 0.0).tobytes()

        assert run(True) == run(False)

    @pytest.mark.parametrize("dtype, width", [(np.float32, 1e-4), (np.float64, 1e-9)])
    def test_gelu_pool_tie_goes_to_the_earlier_tap(self, dtype, width):
        # GELU is flat at its minimum, so computed values there tie exactly;
        # where a window's extremes tie, the earlier one wins
        x = np.unique(np.linspace(-0.7518 - width, -0.7518 + width, 201).astype(dtype))
        y = T.gelu(Tensor(x)).data
        values, counts = np.unique(y, return_counts=True)
        a, b = x[y == values[counts > 1][0]][[0, -1]]
        xt = Tensor(np.array([[a, b, b, a]], dtype=dtype), requires_grad=True)
        out = T.max_pool1d(xt, 2, gelu=True)
        T.backward(T.tsum(T.mul(out, Tensor(np.array([[1.0, 2.0]], dtype)))))
        assert a < b and out.data[0, 0] == out.data[0, 1] == T.gelu(Tensor(a)).data
        assert xt.grad[0, 1] == xt.grad[0, 3] == 0 and xt.grad[0, 0] != 0

    def test_float64_gelu_is_x_times_ndtr(self):
        x = np.linspace(-10.0, 10.0, 2_000_001)
        assert T.gelu(Tensor(x)).data.tobytes() == (x * ndtr(x)).tobytes()

    def test_float32_gelu_and_derivative_on_a_dense_grid(self):
        x = np.linspace(-10.0, 10.0, 2_000_001).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        y = T.gelu(xt)
        T.backward(T.tsum(y))          # x.grad is the derivative itself
        x64 = x.astype(np.float64)
        deriv = ndtr(x64) + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
        assert y.data.dtype == xt.grad.dtype == np.float32
        assert np.abs(y.data - x64 * ndtr(x64)).max() <= 4e-7
        assert np.abs(xt.grad - deriv).max() <= 4e-7


def test_tape_node_sizes_while_another_thread_records():
    x = Tensor(np.ones(3), requires_grad=True)
    stop = threading.Event()

    def record():
        while not stop.is_set():
            nodes = [T.mul(x, x) for _ in range(50)]
            del nodes

    worker = threading.Thread(target=record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker.start()
    try:
        for _ in range(20_000):
            assert set(T.tape_node_sizes()) <= {3}
    finally:
        stop.set()
        worker.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert T.tape_len() == 0


def _minor_faults():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _churn():
    """Allocate and free 80 MB of 4-MB blocks, more than twice glibc's
    dynamic mmap threshold can reach."""
    blocks = [np.ones(1 << 19) for _ in range(20)]
    del blocks


_CHURN_PAGES = 20 * (1 << 19) * 8 // 4096


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc malloc thresholds only")
def test_freed_step_memory_is_reused_without_faults():
    # without fixed thresholds the freed heap is trimmed
    rounds = []
    for _ in range(4):
        before = _minor_faults()
        _churn()
        rounds.append(_minor_faults() - before)
    assert max(rounds[1:]) < _CHURN_PAGES // 10, rounds


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's arena count only")
def test_new_thread_reuses_the_freed_heap():
    # with an arena per thread, the new thread maps and faults in its own
    _churn()
    before = _minor_faults()
    worker = threading.Thread(target=_churn)
    worker.start()
    worker.join(timeout=30)
    faults = _minor_faults() - before
    assert not worker.is_alive()
    assert faults < _CHURN_PAGES // 10, faults
