import itertools

import numpy as np
import numpy.testing as npt
import pytest

from ldrpmnet import tensor as T
from ldrpmnet.mdsc import MdscBlock, MdscConfig, mdsc_param_count
from ldrpmnet.model import standard_multiscale_param_count
from ldrpmnet.tensor import Tensor

from test_tensor import naive_conv1d


def naive_mdsc_forward(block, x):
    """Composition oracle: independent loops over branches, concat, pointwise,
    batch statistics, exact-GELU.  No shared code with the block forward."""
    from scipy.special import erf

    b, c1, n1 = x.shape
    branches = []
    for dw in block.depthwise:
        k = dw.kernel
        outs = [naive_conv1d(x[i], dw.weight.data, None, dw.stride,
                             (k - 1) // 2, groups=c1) for i in range(b)]
        branches.append(np.stack(outs))
    z = np.concatenate(branches, axis=1)
    pw = block.pointwise
    y = np.stack([naive_conv1d(z[i], pw.weight.data, pw.bias.data, 1, 0)
                  for i in range(b)])
    mu = y.mean(axis=(0, 2), keepdims=True)
    var = y.var(axis=(0, 2), keepdims=True)
    xhat = (y - mu) / np.sqrt(var + block.bn.eps)
    y = block.bn.gamma.data[:, None] * xhat + block.bn.beta.data[:, None]
    return y * 0.5 * (1.0 + erf(y / np.sqrt(2.0)))


class TestParamCount:
    def test_closed_form_example(self):
        cfg = MdscConfig(4, 8, (3, 5))
        assert mdsc_param_count(cfg) == 120

    def test_minimal_config(self):
        assert mdsc_param_count(MdscConfig(1, 1, (1,))) == 5

    def test_allocation_audit(self):
        for c1, c2, ks in [(2, 4, (3,)), (3, 8, (3, 5)), (4, 4, (1, 3, 5))]:
            cfg = MdscConfig(c1, c2, ks)
            block = MdscBlock(cfg, seed=3)
            assert block.param_count() == mdsc_param_count(cfg)


class TestNames:
    def test_parameters_and_buffers_in_construction_order(self):
        block = MdscBlock(MdscConfig(2, 3, (5, 3)), seed=0)
        assert [n for n, _ in block.parameters()] == [
            "depthwise_k5.weight", "depthwise_k3.weight", "pointwise.weight",
            "pointwise.bias", "bn.gamma", "bn.beta"]
        assert block.parameters()[0][1] is block.depthwise[0].weight

    def test_buffers_follow_the_running_statistics(self):
        # a train-mode forward updates the BatchNorm state's arrays in place
        block = MdscBlock(MdscConfig(2, 3, (3,)), seed=0)
        block.forward(Tensor(np.ones((2, 2, 8))), mode="train")
        (n_mean, mean), (n_var, var) = block.buffers()
        assert (n_mean, n_var) == ("bn.running_mean", "bn.running_var")
        assert mean is block.bn.state.mean and var is block.bn.state.var


class TestForward:
    def test_identity_path_reduces_to_gelu(self):
        block = MdscBlock(MdscConfig(1, 1, (1,)), seed=0)
        block.depthwise[0].weight.data[:] = 1.0
        block.pointwise.weight.data[:] = 1.0
        block.pointwise.bias.data[:] = 0.0
        x = Tensor(np.array([[[2.0, -2.0]]]))
        out = block.forward(x, mode="eval")       # running mean 0 / var 1
        expected = T.gelu(Tensor([2.0, -2.0])).data
        # eps inside the eval-mode BN denominator bounds the residual error
        npt.assert_allclose(out.data[0, 0], expected, atol=1e-4)

    def test_matches_composition_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=20))
        block = MdscBlock(MdscConfig(2, 3, (1, 3)), seed=4)
        x = rng.standard_normal((2, 2, 10))
        out = block.forward(Tensor(x), mode="train")
        npt.assert_allclose(out.data, naive_mdsc_forward(block, x), atol=1e-10)

    def test_oracle_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(25):
            c1 = int(rng.integers(1, 4))
            c2 = int(rng.integers(1, 5))
            ks = tuple(sorted(rng.choice([1, 3, 5, 7], size=rng.integers(1, 4),
                                         replace=False).tolist()))
            block = MdscBlock(MdscConfig(c1, c2, ks), seed=int(rng.integers(100)))
            x = rng.standard_normal((2, c1, int(rng.integers(8, 24))))
            out = block.forward(Tensor(x), mode="train")
            npt.assert_allclose(out.data, naive_mdsc_forward(block, x),
                                atol=1e-10)

    def test_channel_mismatch(self):
        block = MdscBlock(MdscConfig(2, 3, (3,)), seed=0)
        with pytest.raises(T.DimensionError, match="channel"):
            block.forward(Tensor(np.zeros((1, 3, 8))))


class TestInvariants:
    def test_separability_saving_sweep(self):
        kernel_sets = [(3,), (3, 5), (3, 5, 7)]
        for c1, c2, ks in itertools.product((2, 4, 8, 16), (2, 4, 8, 16),
                                            kernel_sets):
            cfg = MdscConfig(c1, c2, ks)
            assert mdsc_param_count(cfg) < standard_multiscale_param_count(cfg)

    def test_branch_independence(self):
        rng = np.random.Generator(np.random.Philox(key=22))
        c1 = 3
        block = MdscBlock(MdscConfig(c1, 4, (3, 5, 7)), seed=5)
        x = Tensor(rng.standard_normal((1, c1, 12)))

        def pre_pointwise():
            with T.no_grad():
                return T.concat([dw.forward(x) for dw in block.depthwise],
                                axis=-2).data

        base = pre_pointwise()
        block.depthwise[1].weight.data[:] = 0.0
        changed = pre_pointwise()
        diff = np.abs(base - changed).sum(axis=2)[0]
        assert np.all(diff[c1:2 * c1] > 0)
        assert np.all(diff[:c1] == 0) and np.all(diff[2 * c1:] == 0)

    def test_equal_branch_lengths(self):
        block = MdscBlock(MdscConfig(2, 4, (3, 5, 7)), seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 19)))
        lengths = {dw.forward(x).shape[-1] for dw in block.depthwise}
        assert len(lengths) == 1

    def test_kernel_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        c1, c2 = 2, 3
        a = MdscBlock(MdscConfig(c1, c2, (3, 5, 7)), seed=6)
        b = MdscBlock(MdscConfig(c1, c2, (7, 3, 5)), seed=7)
        perm = [2, 0, 1]                         # branch order in a -> order in b
        for bi, ai in enumerate(perm):
            b.depthwise[bi].weight.data[:] = a.depthwise[ai].weight.data
        for bi, ai in enumerate(perm):
            b.pointwise.weight.data[:, bi * c1:(bi + 1) * c1, :] = \
                a.pointwise.weight.data[:, ai * c1:(ai + 1) * c1, :]
        b.pointwise.bias.data[:] = a.pointwise.bias.data
        b.bn.gamma.data[:] = a.bn.gamma.data
        b.bn.beta.data[:] = a.bn.beta.data
        x = Tensor(rng.standard_normal((2, c1, 16)))
        ya = a.forward(x, mode="train").data
        yb = b.forward(x, mode="train").data
        npt.assert_allclose(ya, yb, atol=1e-12)


class TestConfigValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(T.ConfigurationError, match="odd"):
            MdscConfig(2, 2, (4,))

    def test_duplicate_kernels_rejected(self):
        with pytest.raises(T.ConfigurationError, match="distinct"):
            MdscConfig(2, 2, (3, 3))
