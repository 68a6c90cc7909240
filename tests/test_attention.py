import numpy as np
import numpy.testing as npt
import pytest

from ldrpmnet import tensor as T
from ldrpmnet.attention import (BsaBlock, MhsaBlock, attention_flops,
                                SOFTMAX_FLOPS_PER_ELEMENT)
from ldrpmnet.tensor import Tensor


def naive_mhsa(block, x):
    """Per-head loop oracle, straight numpy."""
    d, h = block.model_dim, block.heads
    dh = d // h
    b, n, _ = x.shape
    q = x @ block.w_q.weight.data.T + block.w_q.bias.data
    k = x @ block.w_k.weight.data.T + block.w_k.bias.data
    v = x @ block.w_v.weight.data.T + block.w_v.bias.data
    out = np.zeros_like(x)
    for bi in range(b):
        for hi in range(h):
            sl = slice(hi * dh, (hi + 1) * dh)
            qs, ks, vs = q[bi, :, sl], k[bi, :, sl], v[bi, :, sl]
            scores = qs @ ks.T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            out[bi, :, sl] = a @ vs
    return out @ block.w_o.weight.data.T + block.w_o.bias.data


def naive_bsa(block, x):
    """Independent straight-line oracle for the broadcast formula."""
    b, n, d = x.shape
    out = np.zeros_like(x)
    for bi in range(b):
        s = x[bi] @ block.score.data
        e = np.exp(s - s.max())
        a = e / e.sum()
        k = x[bi] @ block.w_k.weight.data.T + block.w_k.bias.data
        ctx = (a[:, None] * k).sum(axis=0)
        v = x[bi] @ block.w_v.weight.data.T + block.w_v.bias.data
        out[bi] = (v * ctx) @ block.w_o.weight.data.T + block.w_o.bias.data
    return out


class TestMhsa:
    def test_single_token(self):
        rng = np.random.Generator(np.random.Philox(key=30))
        block = MhsaBlock(8, heads=2, seed=1)
        x = rng.standard_normal((1, 1, 8))
        out = block.forward(Tensor(x)).data
        v = x[0] @ block.w_v.weight.data.T + block.w_v.bias.data
        expected = v @ block.w_o.weight.data.T + block.w_o.bias.data
        npt.assert_allclose(out[0], expected, atol=1e-12)

    def test_identical_tokens_identical_rows(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        block = MhsaBlock(8, heads=4, seed=2)
        token = rng.standard_normal(8)
        x = np.tile(token, (1, 5, 1))
        out = block.forward(Tensor(x)).data[0]
        npt.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=32))
        block = MhsaBlock(8, heads=2, seed=3)
        x = rng.standard_normal((2, 5, 8))
        npt.assert_allclose(block.forward(Tensor(x)).data, naive_mhsa(block, x),
                            atol=1e-10)

    def test_oracle_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=33))
        for _ in range(20):
            h = int(rng.choice([1, 2, 4]))
            d = h * int(rng.integers(1, 5))
            block = MhsaBlock(d, heads=h, seed=int(rng.integers(1000)))
            x = rng.standard_normal((int(rng.integers(1, 3)),
                                     int(rng.integers(1, 8)), d))
            npt.assert_allclose(block.forward(Tensor(x)).data,
                                naive_mhsa(block, x), atol=1e-10)

    def test_bad_heads(self):
        with pytest.raises(T.ConfigurationError, match="divisible"):
            MhsaBlock(10, heads=4)

    def test_param_count(self):
        d = 16
        assert MhsaBlock(d, heads=4).param_count() == 4 * d * d + 4 * d


class TestBsa:
    def test_single_token(self):
        rng = np.random.Generator(np.random.Philox(key=34))
        block = BsaBlock(8, seed=4)
        x = rng.standard_normal((1, 1, 8))
        out = block.forward(Tensor(x)).data[0, 0]
        k = x[0, 0] @ block.w_k.weight.data.T + block.w_k.bias.data
        v = x[0, 0] @ block.w_v.weight.data.T + block.w_v.bias.data
        expected = (v * k) @ block.w_o.weight.data.T + block.w_o.bias.data
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_identical_tokens(self):
        rng = np.random.Generator(np.random.Philox(key=35))
        block = BsaBlock(8, seed=5)
        token = rng.standard_normal(8)
        x = np.tile(token, (1, 2, 1))
        weights = block.attention_weights(Tensor(x))
        npt.assert_allclose(weights, [[0.5, 0.5]], atol=1e-12)
        out = block.forward(Tensor(x)).data[0]
        npt.assert_allclose(out[0], out[1], atol=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=36))
        block = BsaBlock(8, seed=6)
        x = rng.standard_normal((2, 6, 8))
        npt.assert_allclose(block.forward(Tensor(x)).data, naive_bsa(block, x),
                            atol=1e-10)

    def test_oracle_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        for _ in range(20):
            d = int(rng.integers(1, 12))
            block = BsaBlock(d, seed=int(rng.integers(1000)))
            x = rng.standard_normal((int(rng.integers(1, 4)),
                                     int(rng.integers(1, 9)), d))
            npt.assert_allclose(block.forward(Tensor(x)).data,
                                naive_bsa(block, x), atol=1e-10)

    def test_attention_weights_normalized(self):
        rng = np.random.Generator(np.random.Philox(key=38))
        block = BsaBlock(6, seed=7)
        x = Tensor(rng.standard_normal((3, 11, 6)))
        w = block.attention_weights(x)
        assert (w >= 0).all()
        npt.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_param_count_below_mhsa(self):
        for d in (1, 2, 8, 64):
            bsa = BsaBlock(d).param_count()
            assert bsa == d + 3 * d * d + 3 * d
            assert bsa < MhsaBlock(d, heads=1).param_count()

    def test_no_quadratic_intermediate(self):
        # structural check on the op graph: every recorded intermediate is
        # O(N * d), never N x N
        block = BsaBlock(4, seed=8)
        n, d = 50, 4
        x = Tensor(np.random.default_rng(0).normal(size=(1, n, d)),
                   requires_grad=True)
        y = block.forward(x)    # holds the graph while its nodes are read
        sizes = T.tape_node_sizes()
        assert max(sizes) <= 4 * n * d
        assert max(sizes) < n * n


class TestEquivariance:
    def test_bsa_token_permutation(self):
        rng = np.random.Generator(np.random.Philox(key=39))
        block = BsaBlock(8, seed=9)
        x = rng.standard_normal((2, 7, 8))
        perm = rng.permutation(7)
        out = block.forward(Tensor(x)).data
        out_p = block.forward(Tensor(x[:, perm, :])).data
        npt.assert_allclose(out_p, out[:, perm, :], atol=1e-12)

    def test_mhsa_token_permutation(self):
        rng = np.random.Generator(np.random.Philox(key=40))
        block = MhsaBlock(8, heads=2, seed=10)
        x = rng.standard_normal((2, 7, 8))
        perm = rng.permutation(7)
        out = block.forward(Tensor(x)).data
        out_p = block.forward(Tensor(x[:, perm, :])).data
        npt.assert_allclose(out_p, out[:, perm, :], atol=1e-12)


class TestFlops:
    def test_bsa_linear_in_tokens(self):
        ratio = attention_flops("bsa", 128, 32) / attention_flops("bsa", 64, 32)
        assert 1.9 <= ratio <= 2.1

    def test_mhsa_superlinear_in_tokens(self):
        ratio = attention_flops("mhsa", 128, 32, 4) / attention_flops("mhsa", 64, 32, 4)
        assert ratio > 2.5

    def test_mhsa_hand_computed(self):
        # N=1, d=2, h=1: projections 2*4*1*4, scores 2*2*1*1*2, softmax 1*1*c
        expected = 2 * (4 * 1 * 4) + 2 * (2 * 1 * 1 * 2) + 1 * 1 * SOFTMAX_FLOPS_PER_ELEMENT
        assert attention_flops("mhsa", 1, 2, 1) == expected

    def test_unknown_kind(self):
        with pytest.raises(T.ConfigurationError, match="unknown"):
            attention_flops("other", 4, 4, 1)
