import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ldrpmnet import dataset, tensor as T, train as train_module
from ldrpmnet.model import (MODEL_PRESETS, REDUCED_CONFIG, ModelConfig, build,
                            build_preset)
from ldrpmnet.tensor import Tensor
from ldrpmnet.train import (AdamWState, MetricsReport, TrainConfig,
                            ablate, accuracy_on, adamw_step, evaluate,
                            metrics_from_confusion, trace_csv, train)

SMALL = ModelConfig(input_length=1024, stem=(4, 7, 2),
                    stages=((8, (3, 5), 4), (8, (3, 5), 4)),
                    encoder=(1, 8, 2, 2))

LN10 = float(np.log(10.0))


def _param(value):
    return Tensor(np.asarray(value, dtype=float), requires_grad=True)


class TestAdamW:
    def test_zero_gradient_fixed_point(self):
        p = _param([1.5, -2.0])
        p.grad = np.zeros(2)
        params = [("p", p)]
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(params, AdamWState(params), cfg)
        npt.assert_array_equal(p.data, [1.5, -2.0])

    def test_first_step_magnitude(self):
        p = _param([1.0])
        p.grad = np.ones(1)
        params = [("p", p)]
        cfg = TrainConfig(learning_rate=0.001, weight_decay=0.0)
        adamw_step(params, AdamWState(params), cfg)
        # bias-corrected first step ratio is ~1, so w drops by ~lr
        assert abs((1.0 - p.data[0]) - 0.001) < 1e-6

    def test_decoupled_decay_with_zero_gradient(self):
        p = _param([2.0])
        p.grad = np.zeros(1)
        params = [("p", p)]
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        adamw_step(params, AdamWState(params), cfg)
        npt.assert_allclose(p.data, [2.0 * (1.0 - 0.01 * 0.1)], atol=1e-15)

    def test_three_steps_match_reference(self):
        # independent step-by-step reference on a 2-parameter problem
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.0,
                          beta1=0.9, beta2=0.999, eps=1e-8)
        p = _param([1.0, -3.0])
        params = [("p", p)]
        state = AdamWState(params)
        grads = [np.array([0.5, -1.0]), np.array([-0.2, 0.7]),
                 np.array([1.1, 0.3])]

        ref = np.array([1.0, -3.0])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, 1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.05 * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)

        for g in grads:
            p.grad = g.copy()
            adamw_step(params, state, cfg)
        npt.assert_allclose(p.data, ref, atol=1e-12)

    def test_non_finite_gradient_aborts(self):
        from ldrpmnet.train import TrainingDiverged

        p = _param([1.0])
        p.grad = np.array([np.nan])
        params = [("bad_param", p)]
        with pytest.raises(TrainingDiverged, match="bad_param"):
            adamw_step(params, AdamWState(params), TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", 1.5), ("beta2", 1.0),
        ("beta2", float("nan")), ("weight_decay", -1.0), ("eps", 0.0),
        ("eps", -1e-8), ("learning_rate", float("nan"))])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(beta1=0.0, beta2=0.0, weight_decay=0.0, eps=1e-300)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((4, 10))), np.ones(4, dtype=int))
        assert abs(loss.item() - LN10) < 1e-12

    def test_saturated_logits(self):
        logits = np.zeros((2, 10))
        logits[0, 2] = 1000.0
        logits[1, 6] = 1000.0
        loss = T.cross_entropy(Tensor(logits), np.array([3, 7]))
        assert loss.item() <= 1e-9

    def test_matches_extended_precision_oracle(self):
        import mpmath

        rng = np.random.Generator(np.random.Philox(key=70))
        logits = rng.uniform(-4, 4, size=(3, 10))
        labels = np.array([2, 10, 5])
        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for row, lab in zip(logits, labels):
                lse = mpmath.log(sum(mpmath.e ** v for v in row))
                total += lse - mpmath.mpf(row[lab - 1])
            expected = float(total / 3)
        loss = T.cross_entropy(Tensor(logits), labels)
        assert abs(loss.item() - expected) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="1..10"):
            T.cross_entropy(Tensor(np.zeros((1, 10))), np.array([0]))


class TestMetrics:
    def test_perfect_predictor(self):
        confusion = np.diag([5] * 10)
        rep = metrics_from_confusion(confusion)
        assert rep.accuracy == 1.0 and rep.precision == 1.0
        assert rep.recall == 1.0 and rep.f1 == 1.0

    def test_independent_confusion_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        true = rng.integers(0, 10, 200)
        pred = rng.integers(0, 10, 200)
        confusion = np.zeros((10, 10), dtype=int)
        for t_cls, p_cls in zip(true, pred):
            confusion[t_cls, p_cls] += 1
        rep = metrics_from_confusion(confusion)
        # independent recomputation, scalar loops
        acc = sum(confusion[i, i] for i in range(10)) / confusion.sum()
        assert rep.accuracy == acc
        precs, recs, f1s = [], [], []
        for c in range(10):
            col = confusion[:, c].sum()
            row = confusion[c, :].sum()
            prec = confusion[c, c] / col if col else 0.0
            rec = confusion[c, c] / row if row else 0.0
            precs.append(prec)
            recs.append(rec)
            f1s.append(0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec))
        assert rep.precision == np.mean(precs)
        assert rep.recall == np.mean(recs)
        assert rep.f1 == np.mean(f1s)


@pytest.fixture(scope="module")
def corpus():
    return dataset.split(dataset.generate(0, 1024), 0)


class TestTrainLoop:
    def test_initial_loss_near_uniform(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=0)
        idx = corpus.indices("train")[:16]
        # loss of the first training forward, before any optimizer update
        logits = net.forward(Tensor(corpus.waveforms[idx][:, None, :]),
                             mode="train")
        loss = T.cross_entropy(logits, corpus.labels[idx])
        value = loss.item()
        assert abs(value - LN10) <= 0.3

    def test_overfit_single_batch(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=0)
        idx = corpus.indices("train")[:16]
        x = corpus.waveforms[idx][:, None, :]
        labels = corpus.labels[idx]
        params = net.parameters()
        state = AdamWState(params)
        cfg = TrainConfig(learning_rate=0.001)
        acc = 0.0
        for step in range(200):
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
        assert acc >= 0.99, f"only reached {acc} after 200 steps"

    def test_deterministic_trace(self, corpus):
        def run():
            net = build_preset("ld-rpmnet", base=SMALL, seed=1)
            _, trace = train(net, corpus, TrainConfig(epochs=2, seed=1))
            return trace_csv(trace)

        assert run() == run()

    def test_evaluation_never_mutates_state(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=2)
        before = {n: a.copy() for n, a in net.state_arrays()}
        evaluate(net, corpus)
        for n, a in net.state_arrays():
            assert np.array_equal(before[n], a), n

    def test_evaluate_report_consistency(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=3)
        rep = evaluate(net, corpus)
        assert rep.confusion.sum() == 122
        assert rep.accuracy == np.trace(rep.confusion) / rep.confusion.sum()
        test_labels = corpus.labels[corpus.indices("test")]
        for c in range(1, 11):
            assert rep.confusion[c - 1].sum() == (test_labels == c).sum()
        assert rep.inference_seconds > 0

    def test_empty_split_rejected(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=0)
        bare = dataset.SampleSet(corpus.waveforms[:4], corpus.labels[:4])
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, bare)

    def test_labels_beyond_the_head_rejected(self, corpus):
        net = build_preset("ld-rpmnet", base=replace(SMALL, num_classes=5), seed=0)
        with pytest.raises(ValueError, match=r"labels 1\.\.10.*classes 1\.\.5"):
            evaluate(net, corpus)

    def test_constant_predictor_accuracy(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=0)
        net.head.weight.data[:] = 0.0
        net.head.bias.data[:] = 0.0
        net.head.bias.data[1] = 100.0          # always predict class 2
        test_labels = corpus.labels[corpus.indices("test")]
        expected = (test_labels == 2).mean()
        assert accuracy_on(net, corpus, "test") == expected

    def test_ablate_draws_every_variant_from_the_config_seed(self, corpus,
                                                             monkeypatch):
        seeds = []

        def spy_build(name, base, seed):
            seeds.append(seed)
            return build_preset(name, base=base, seed=seed)

        def spy_train(net, sample_set, config):
            seeds.append(config.seed)
            return net, []

        monkeypatch.setattr(train_module, "build_preset", spy_build)
        monkeypatch.setattr(train_module, "train", spy_train)
        results = ablate(corpus, TrainConfig(seed=4), base=SMALL)
        assert [method for method, _, _ in results] == list(MODEL_PRESETS)
        assert seeds == [4] * 8


class TestGraphOwnership:
    """Each autodiff graph belongs to the tensors that reach it and grad mode
    to the thread that set it, so nothing outlives its caller."""

    def test_threads_train_as_if_one_after_the_other(self, corpus):
        def run(seed):
            net = build_preset("ld-rpmnet", base=SMALL, seed=seed)
            net, trace = train(net, corpus, TrainConfig(epochs=2, seed=seed))
            return [p.data.copy() for _, p in net.parameters()], trace

        seeds = (0, 1, 2)                   # more threads than a 2-core host
        expected = [run(s) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(run, s) for s in seeds]
                got = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (want_params, want_trace), (params, trace) in zip(expected, got):
            assert trace == want_trace
            for want, p in zip(want_params, params):
                npt.assert_array_equal(p, want)

    def test_dropped_forward_frees_its_graph(self):
        net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
        x = Tensor(np.ones((2, 1, REDUCED_CONFIG.input_length)))
        y = net.forward(x, mode="train")
        assert T.tape_len() > 0
        del y
        assert T.tape_len() == 0

    def test_dropped_loss_is_freed_after_a_train_step(self, corpus):
        net = build_preset("ld-rpmnet", base=SMALL, seed=0)
        idx = corpus.indices("train")[:16]
        params = net.parameters()
        loss = T.cross_entropy(
            net.forward(Tensor(corpus.waveforms[idx][:, None, :]), mode="train"),
            corpus.labels[idx])
        loss.backward()
        adamw_step(params, AdamWState(params), TrainConfig())
        ref = weakref.ref(loss)
        del loss
        assert ref() is None
