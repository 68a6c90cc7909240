"""End-to-end acceptance gate, one test per criterion.

These pin the contract of the package: gradient correctness, oracle
equivalence, exact complexity accounting, the published efficiency ratios,
attention scaling, the full training protocol, capacity sanity, determinism,
and structural invariances.  Criterion 6 trains a reduced-width network for
50 epochs and dominates the runtime (a few minutes); everything else is
fast.
"""

import os

import numpy as np
import numpy.testing as npt
import pytest

from ldrpmnet import dataset, tensor as T
from ldrpmnet.attention import BsaBlock, MhsaBlock, attention_flops
from ldrpmnet.cli import cli_dispatch
from ldrpmnet.complexity import (conv1d_flops, count, linear_flops,
                                 verify_flops_empirically)
from ldrpmnet.gradcheck import standard_suite
from ldrpmnet.layers import Conv1d, Linear, ParamInitializer
from ldrpmnet.mdsc import MdscBlock, MdscConfig, mdsc_param_count
from ldrpmnet.model import (REDUCED_CONFIG, ModelConfig, build_preset,
                            load_checkpoint, save_checkpoint)
from ldrpmnet.tensor import BnState, Tensor
from ldrpmnet.train import TrainConfig, accuracy_on, train

from test_attention import naive_bsa, naive_mhsa
from test_mdsc import naive_mdsc_forward
from test_tensor import naive_conv1d


def test_criterion_1_gradient_suite():
    results = standard_suite(seed=0)
    for required in ("conv1d", "mdsc_block", "bsa_block", "mhsa_block",
                     "full_network"):
        assert required in results
    worst = max(results.values())
    assert worst <= 1e-4, f"worst gradcheck error {worst:.3e}"


def test_criterion_2_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=90))
    # conv1d, grouped and ungrouped
    for _ in range(100):
        g = int(rng.choice([1, 1, 2, 4]))
        cin = g * int(rng.integers(1, 4))
        cout = g * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 3))
        n = int(rng.integers(k, 14))
        b = int(rng.integers(1, 3))
        x = rng.standard_normal((b, cin, n))
        w = rng.standard_normal((cout, cin // g, k))
        got = T.conv1d(Tensor(x), Tensor(w), stride=s, padding=p,
                       groups=g).data
        expected = np.stack([naive_conv1d(xi, w, stride=s, padding=p,
                                          groups=g) for xi in x])
        npt.assert_allclose(got, expected, atol=1e-10)
    # attention blocks
    for _ in range(100):
        h = int(rng.choice([1, 2, 4]))
        d = h * int(rng.integers(1, 4))
        x = rng.standard_normal((int(rng.integers(1, 3)),
                                 int(rng.integers(1, 7)), d))
        mhsa = MhsaBlock(d, heads=h, seed=int(rng.integers(10000)))
        npt.assert_allclose(mhsa.forward(Tensor(x)).data, naive_mhsa(mhsa, x),
                            atol=1e-10)
        bsa = BsaBlock(d, seed=int(rng.integers(10000)))
        npt.assert_allclose(bsa.forward(Tensor(x)).data, naive_bsa(bsa, x),
                            atol=1e-10)
    # mdsc block
    for _ in range(100):
        c1 = int(rng.integers(1, 5))
        c2 = int(rng.integers(1, 6))
        ks = tuple(sorted(rng.choice([1, 3, 5, 7], size=int(rng.integers(1, 4)),
                                     replace=False).tolist()))
        cfg = MdscConfig(c1, c2, ks)
        block = MdscBlock(cfg, seed=int(rng.integers(10000)))
        x = rng.standard_normal((int(rng.integers(2, 4)), c1,
                                 int(rng.integers(max(ks), 12))))
        got = block.forward(Tensor(x), mode="train").data
        npt.assert_allclose(got, naive_mdsc_forward(block, x), atol=1e-10)


def test_criterion_3_counter_exactness():
    rng = np.random.Generator(np.random.Philox(key=91))
    for _ in range(60):
        g = int(rng.choice([1, 2]))
        cin, cout = g * int(rng.integers(1, 4)), g * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        s, p = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        n = int(rng.integers(k, 15))
        layer = Conv1d(cin, cout, k, stride=s, padding=p, groups=g,
                       init=ParamInitializer(int(rng.integers(1000))))
        macs = verify_flops_empirically(layer, rng.standard_normal((cin, n)))
        n_out = (n + 2 * p - k) // s + 1
        assert 2 * macs == conv1d_flops(n_out, cout, cin // g, k)
    for _ in range(60):
        m, o, b = (int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                   int(rng.integers(1, 4)))
        layer = Linear(m, o, init=ParamInitializer(int(rng.integers(1000))))
        macs = verify_flops_empirically(layer, rng.standard_normal((b, m)))
        assert 2 * macs == linear_flops(m, o, b)
    assert mdsc_param_count(MdscConfig(4, 8, (3, 5))) == 120


def test_criterion_4_efficiency_ratios():
    totals = {m: count(build_preset(m)).totals
              for m in ("cnt", "cnt-mdsc", "cnt-bsa", "ld-rpmnet")}
    p_ld, f_ld = totals["ld-rpmnet"]
    p_cnt, f_cnt = totals["cnt"]
    assert p_ld / p_cnt <= 0.50, f"param ratio {p_ld / p_cnt:.4f}"
    assert f_ld / f_cnt <= 0.60, f"flop ratio {f_ld / f_cnt:.4f}"
    assert f_ld < totals["cnt-mdsc"][1] < f_cnt
    assert f_ld < totals["cnt-bsa"][1] < f_cnt


def test_criterion_5_attention_scaling():
    d, n = 64, 64
    bsa_ratio = attention_flops("bsa", 2 * n, d) / attention_flops("bsa", n, d)
    mhsa_ratio = (attention_flops("mhsa", 2 * n, d, 4)
                  / attention_flops("mhsa", n, d, 4))
    assert 1.9 <= bsa_ratio <= 2.1, f"bsa ratio {bsa_ratio:.3f}"
    assert mhsa_ratio >= 2.5, f"mhsa ratio {mhsa_ratio:.3f}"


@pytest.fixture(scope="module")
def reduced_corpus():
    return dataset.split(dataset.generate(0, REDUCED_CONFIG.input_length), 0)


@pytest.mark.slow
def test_criterion_6_protocol_reproduction(reduced_corpus):
    counts = [reduced_corpus.class_counts()[c] for c in range(1, 11)]
    assert counts == [121, 180, 158, 120, 124, 84, 80, 113, 112, 120]
    assert len(reduced_corpus) == 1212
    sizes = tuple(len(reduced_corpus.indices(p))
                  for p in ("train", "val", "test"))
    assert sizes == (845, 245, 122)

    floor = dataset.rms_centroid_accuracy(reduced_corpus)
    assert floor < 0.70, f"RMS centroid floor {floor:.3f}"

    net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
    net, _ = train(net, reduced_corpus, TrainConfig(epochs=50, seed=0))
    acc = accuracy_on(net, reduced_corpus, "test")
    assert acc >= 0.95, f"test accuracy {acc:.4f}"


def test_criterion_7_capacity_sanity(reduced_corpus):
    from ldrpmnet.train import AdamWState, adamw_step

    net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
    idx = reduced_corpus.indices("train")[:16]
    x = reduced_corpus.waveforms[idx][:, None, :]
    labels = reduced_corpus.labels[idx]

    # the loss of the very first training forward, before any update
    initial = T.cross_entropy(net.forward(Tensor(x), mode="train"),
                              labels).item()
    assert abs(initial - np.log(10.0)) <= 0.3, f"initial loss {initial:.4f}"

    params = net.parameters()
    state = AdamWState(params)
    cfg = TrainConfig(learning_rate=0.001)
    acc = 0.0
    for _ in range(200):
        loss = T.cross_entropy(net.forward(Tensor(x), mode="train"), labels)
        for _, p in params:
            p.zero_grad()
        loss.backward()
        adamw_step(params, state, cfg)
        with T.no_grad():
            pred = net.forward(Tensor(x), mode="eval").data.argmax(1) + 1
        acc = (pred == labels).mean()
        if acc >= 0.99:
            break
    assert acc >= 0.99, f"single-batch accuracy {acc:.3f} after 200 steps"


_SMALL_CFG = """\
input_length = 1024
stem_channels = 4
stage_channels = 8,8
kernel_sizes = 3,5
pool_strides = 4,4
model_dim = 8
depth = 1
ffn_expansion = 2
heads = 2
epochs = 2
"""


def test_criterion_8_determinism(tmp_path):
    data = os.path.join(tmp_path, "data")
    data2 = os.path.join(tmp_path, "data2")
    for out in (data, data2):
        assert cli_dispatch(["gen-data", "--seed", "0", "--out", out,
                             "--input-length", "1024"]) == 0
    for name in sorted(os.listdir(data)):
        if name == "run_manifest.json":
            continue
        with open(os.path.join(data, name), "rb") as fa, \
             open(os.path.join(data2, name), "rb") as fb:
            assert fa.read() == fb.read(), name

    cfg = os.path.join(tmp_path, "small.cfg")
    with open(cfg, "w") as f:
        f.write(_SMALL_CFG)
    traces = []
    for name in ("run_a", "run_b"):
        out = os.path.join(tmp_path, name)
        assert cli_dispatch(["train", "--data", data, "--model", "ld-rpmnet",
                             "--config", cfg, "--seed", "7",
                             "--out", out]) == 0
        with open(os.path.join(out, "trace.csv"), "rb") as f:
            traces.append(f.read())
    assert traces[0] == traces[1]

    # checkpoint round trip is bit-exact
    src = os.path.join(tmp_path, "run_a", "weights.bin")
    net = load_checkpoint(src)
    copy = os.path.join(tmp_path, "weights_copy.bin")
    save_checkpoint(net, copy)
    with open(src, "rb") as fa, open(copy, "rb") as fb:
        assert fa.read() == fb.read()


def test_criterion_9_invariance_properties():
    rng = np.random.Generator(np.random.Philox(key=92))
    x = rng.standard_normal((2, 9, 8))
    perm = rng.permutation(9)
    for block in (BsaBlock(8, seed=0), MhsaBlock(8, heads=2, seed=0)):
        out = block.forward(Tensor(x)).data
        out_p = block.forward(Tensor(x[:, perm, :])).data
        npt.assert_allclose(out_p, out[:, perm, :], atol=1e-12)

    probs = T.softmax(Tensor(rng.uniform(-30, 30, size=(5, 13)))).data
    npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs >= 0).all()

    xb = Tensor(rng.normal(-1.0, 5.0, size=(4, 3, 10)))
    out = T.batchnorm1d(xb, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                        BnState(3), mode="train")
    mu = out.data.mean(axis=(0, 2))
    var = out.data.var(axis=(0, 2))
    assert np.abs(mu).max() <= 1e-10
    assert np.abs(var - 1.0).max() <= 1e-4
