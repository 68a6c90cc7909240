import platform

import numpy as np
import numpy.testing as npt
import pytest

from ldrpmnet import tensor as T
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

    def test_grouped_matches_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        x = rng.standard_normal((4, 15))
        w = rng.standard_normal((6, 2, 3))
        out = T.conv1d(Tensor(x), Tensor(w), stride=1, padding=1, groups=2)
        npt.assert_allclose(out.data, naive_conv1d(x, w, None, 1, 1, 2),
                            atol=1e-12)

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


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_saturation(self):
        assert abs(T.gelu(Tensor([10.0])).data[0] - 10.0) <= 1e-9

    def test_unit_value(self):
        # 1 * Phi(1) from a high-precision erf evaluation (mpmath)
        assert abs(T.gelu(Tensor([1.0])).data[0] - 0.8413447460685429) <= 1e-12


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

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(T.TapeError, match="scalar"):
            y.backward()
        T.clear_tape()

    def test_repeated_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        with pytest.raises(T.TapeError, match="tape"):
            loss.backward()


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc malloc thresholds only")
def test_freed_step_memory_is_reused_without_faults():
    # 80 MB of 4-MB blocks, more than twice glibc's dynamic mmap threshold
    # can reach, so without fixed thresholds the freed heap is trimmed
    import resource

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    rounds = []
    for _ in range(4):
        before = minor_faults()
        blocks = [np.ones(1 << 19) for _ in range(20)]
        del blocks
        rounds.append(minor_faults() - before)
    pages = 20 * (1 << 19) * 8 // 4096
    assert max(rounds[1:]) < pages // 10, rounds
