import numpy as np
import pytest

from ldrpmnet.complexity import (ComplexityReport, conv1d_flops, count,
                                 linear_flops, verify_flops_empirically)
from ldrpmnet.layers import BatchNorm1d, Conv1d, Linear, ParamInitializer
from ldrpmnet.mdsc import MdscConfig, mdsc_param_count
from ldrpmnet.model import ModelConfig, build, build_preset

SMALL = ModelConfig(input_length=256, stem=(4, 7, 2),
                    stages=((8, (3, 5), 2), (8, (3, 5), 2)),
                    encoder=(1, 8, 2, 2))


class TestClosedForms:
    def test_single_conv(self):
        assert conv1d_flops(4, 1, 1, 3) == 24
        # params for C_in=1, C_out=1, k=3, no bias
        layer = Conv1d(1, 1, 3, bias=False)
        assert layer.param_count() == 3

    def test_mdsc_block_params(self):
        assert mdsc_param_count(MdscConfig(4, 8, (3, 5))) == 120

    def test_linear(self):
        assert linear_flops(8, 4) == 64

    def test_depthwise_conv_flops(self):
        assert conv1d_flops(6, 4, 1, 3) == 144


class TestInstrumented:
    def test_conv_example(self):
        rng = np.random.Generator(np.random.Philox(key=60))
        layer = Conv1d(2, 3, 3, padding=0, init=ParamInitializer(1))
        x = rng.standard_normal((2, 7))
        macs = verify_flops_empirically(layer, x)
        n_out = 7 - 3 + 1
        assert 2 * macs == conv1d_flops(n_out, 3, 2, 3)

    def test_linear_example(self):
        layer = Linear(8, 4, init=ParamInitializer(2))
        macs = verify_flops_empirically(layer, np.zeros(8))
        assert 2 * macs == linear_flops(8, 4)

    def test_randomized_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=61))
        for _ in range(50):
            g = int(rng.choice([1, 2]))
            cin = g * int(rng.integers(1, 4))
            cout = g * int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 3))
            n = int(rng.integers(k, 16))
            layer = Conv1d(cin, cout, k, stride=s, padding=p, groups=g,
                           init=ParamInitializer(int(rng.integers(100))))
            x = rng.standard_normal((cin, n))
            macs = verify_flops_empirically(layer, x)
            n_out = (n + 2 * p - k) // s + 1
            assert 2 * macs == conv1d_flops(n_out, cout, cin // g, k)
        for _ in range(50):
            m, o = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            b = int(rng.integers(1, 4))
            layer = Linear(m, o, init=ParamInitializer(int(rng.integers(100))))
            macs = verify_flops_empirically(layer, rng.standard_normal((b, m)))
            assert 2 * macs == linear_flops(m, o, b)

    def test_instrumented_forward_matches_fast_path(self):
        from ldrpmnet import tensor as T
        from ldrpmnet.complexity import _instrumented_conv1d
        from ldrpmnet.tensor import Tensor

        rng = np.random.Generator(np.random.Philox(key=62))
        layer = Conv1d(3, 4, 5, stride=2, padding=2, init=ParamInitializer(3))
        x = rng.standard_normal((3, 13))
        y, _ = _instrumented_conv1d(layer, x)
        with T.no_grad():
            fast = layer.forward(Tensor(x)).data
        np.testing.assert_allclose(y, fast, atol=1e-12)

    def test_unsupported_layer(self):
        with pytest.raises(TypeError, match="not supported"):
            verify_flops_empirically(BatchNorm1d(4), np.zeros((4, 8)))


class TestMonotonicity:
    def test_conv_flops_strictly_increase(self):
        base = conv1d_flops(8, 4, 3, 5)
        assert conv1d_flops(9, 4, 3, 5) > base
        assert conv1d_flops(8, 5, 3, 5) > base
        assert conv1d_flops(8, 4, 4, 5) > base
        assert conv1d_flops(8, 4, 3, 7) > base


class TestNetworkReport:
    def test_totals_equal_row_sums_and_allocation(self):
        net = build(SMALL, seed=0)
        report = count(net)
        assert report.totals[0] == sum(r[1] for r in report.rows)
        assert report.totals[1] == sum(r[2] for r in report.rows)
        assert report.totals[0] == net.param_count()

    def test_totals_invariant_to_row_order(self):
        net = build(SMALL, seed=0)
        report = count(net)
        shuffled = ComplexityReport(report.rows[::-1])
        assert shuffled.totals == report.totals

    def test_all_variants_countable(self):
        for method in ("cnt", "cnt-mdsc", "cnt-bsa", "ld-rpmnet"):
            net = build_preset(method, base=SMALL)
            report = count(net)
            assert report.totals[0] == net.param_count()

    def test_default_config_paper_ratios(self):
        reports = {m: count(build_preset(m)).totals
                   for m in ("cnt", "cnt-mdsc", "cnt-bsa", "ld-rpmnet")}
        p_ld, f_ld = reports["ld-rpmnet"]
        p_cnt, f_cnt = reports["cnt"]
        assert p_ld / p_cnt <= 0.50
        assert f_ld / f_cnt <= 0.60
        assert f_ld < reports["cnt-mdsc"][1] < f_cnt
        assert f_ld < reports["cnt-bsa"][1] < f_cnt

    def test_text_render(self):
        text = count(build(SMALL, seed=0)).to_text()
        assert "TOTAL" in text and "stem.conv" in text
