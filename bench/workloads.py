"""The workloads: set-up, timed phases, output checks and metrics.

A workload's main phase is what it exists to measure: whole training epochs
for train-ld, eval-mode inference for infer-ld.  Each also runs a short
secondary phase of the other kind, so that every end-to-end metric is
measured on every workload.  peak_rss_mb is read before the secondary phase.
"""

from __future__ import annotations

import copy
import math
import resource
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from ldrpmnet import complexity, dataset, model, train
from ldrpmnet import tensor as T
from ldrpmnet.model import REDUCED_CONFIG, ModelConfig
from ldrpmnet.tensor import Tensor, no_grad

import checks
import tracing

SETUPS = 3                  # set-ups per run; setup_s is their median
BATCH = 16                  # the training batch of TrainConfig
# warm-up train steps on a copy, part of each set-up: (batch, steps).  The
# train-ld steps are full batches, as their epoch count is read from them.
WARMUP = {"train": (BATCH, 2), "infer": (2, 1)}
# train / val samples of infer-ld's training: one step an epoch, so that its
# median epoch is taken over several epochs
INFER_TRAIN_SUBSET = (16, 16)
INFER_TRAIN_EPOCHS = 6
# infer-ld's inference takes this share of --seconds; its six training
# epochs (about 12 s on a 2-vCPU Xeon guest) take most of the rest
INFER_SHARE = 0.75
B64 = 64                    # the batch of train.accuracy_on
PROBE_B1_PER_ROUND = 16     # infer-ld: batch-1 forwards per batch-64 call
PROBE_B64_EVERY = 8         # train-ld: train steps per batch-64 probe
REFERENCE_SAMPLES = 3       # logits checked against the loop reference
AGREEMENT_SAMPLES = 16      # batch-1 logits checked against one batched forward
SIBLING_UNITS = {"train": 3, "infer": 8}
OVERHEAD_PAIRS = {"train": 8, "infer": 32}
BWD_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    preset: str
    base: ModelConfig
    main: str               # "train" or "infer"


WORKLOADS = {
    "train-ld": Workload("ld-rpmnet", REDUCED_CONFIG, "train"),
    "infer-ld": Workload("ld-rpmnet", ModelConfig(), "infer"),
}
# the preset with the other conv and attention kinds: the traced run takes
# the layers ld-rpmnet lacks (full convs, StandardMultiScaleBlock, MHSA) from it
SIBLING = "cnt"


def _seeded(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream],
                                                              dtype=np.uint64)))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def perturb_norms(net, seed):
    """Non-default BatchNorm running statistics and affine parameters, so a
    wrong BN fold changes the logits."""
    rng = _seeded(seed, 7001)
    for name, buf in net.buffers():
        if name.endswith("running_mean"):
            buf[...] = rng.normal(0.0, 0.1, buf.shape)
        else:
            buf[...] = rng.uniform(0.5, 2.0, buf.shape)
    for name, p in net.parameters():
        if name.endswith("bn.gamma"):
            p.data[...] = rng.uniform(0.5, 1.5, p.shape)
        elif name.endswith("bn.beta"):
            p.data[...] = rng.normal(0.0, 0.1, p.shape)


def _train_steps(net, corpus, batch, steps):
    """Seconds of each of `steps` train steps on the first train samples."""
    params = net.parameters()
    state = train.AdamWState(params)
    idx = corpus.indices("train")[:batch]
    times = []
    for _ in range(steps):
        start = time.perf_counter()
        loss = T.cross_entropy(net.forward(Tensor(corpus.waveforms[idx][:, None, :]),
                                           mode="train"), corpus.labels[idx])
        for _, p in params:
            p.zero_grad()
        loss.backward()
        train.adamw_step(params, state, train.TrainConfig())
        times.append(time.perf_counter() - start)
    return times


def set_up(w, seed):
    """Corpus, network and warm-up; returns (corpus, net, warm-up step seconds)."""
    corpus = dataset.split(dataset.generate(seed, input_length=w.base.input_length),
                           seed)
    net = model.build_preset(w.preset, base=w.base, seed=seed)
    if w.main == "infer":
        perturb_norms(net, seed)
    step_s = _train_steps(copy.deepcopy(net), corpus, *WARMUP[w.main])
    with no_grad():
        net.forward(Tensor(corpus.waveforms[:1, None, :]), mode="eval")
    return corpus, net, step_s


# --------------------------------------------------------------------------
# phases
# --------------------------------------------------------------------------

class InferenceProbe:
    """Batch-1 forwards over one split, cycling through it, and batch-64
    accuracy_on calls over its first 64 samples.  Run a few at a time
    between other work, so that their samples spread over the run: this
    host's speed drifts by up to 2x over tens of seconds."""

    def __init__(self, corpus, part, num_classes):
        self.idx = corpus.indices(part)
        self.waves = corpus.waveforms[self.idx]
        self.labels = corpus.labels[self.idx]
        block = np.full(len(corpus), "", dtype="U5")
        block[self.idx[:B64]] = "block"
        self.block = dataset.SampleSet(corpus.waveforms, corpus.labels, block)
        self.logits = np.full((len(self.idx), num_classes), np.nan)
        self.streamed = 0
        self.latencies, self.b64_rates, self.b64_accuracies = [], [], []

    def batch1(self, net, count):
        with no_grad():
            for _ in range(count):
                i = self.streamed % len(self.idx)
                start = time.perf_counter()
                out = net.forward(Tensor(self.waves[i][None, None, :]), mode="eval")
                self.latencies.append(time.perf_counter() - start)
                self.logits[i] = out.data[0]
                self.streamed += 1

    def batch64(self, net):
        start = time.perf_counter()
        self.b64_accuracies.append(train.accuracy_on(net, self.block, "block"))
        self.b64_rates.append(B64 / (time.perf_counter() - start))

    @property
    def samples(self):
        return len(self.latencies) + B64 * len(self.b64_rates)


def _grad_params(net):
    names = [n for n, _ in net.parameters()]
    stage0 = next(n for n in names if n.startswith("stage0.") and n.endswith(".weight"))
    return ("stem.weight", stage0, "encoder0.attn.w_v.weight", "head.weight")


def train_phase(net, corpus, epochs, seed, probe=None):
    """train.train() for whole epochs.  Hooks on the program's own calls time
    each epoch (it ends with the validation accuracy_on) and keep the first
    step's batch and gradients for the checks.  With a probe, one batch-1
    forward follows every train step and one accuracy_on call every
    PROBE_B64_EVERY steps, outside the epoch's time."""
    starts, ends, paused, first = [], [], [0.0], {}
    wanted = _grad_params(net)
    forward, cross_entropy = model.Network.forward, T.cross_entropy
    adamw_step, accuracy_on = train.adamw_step, train.accuracy_on

    def forward_hook(self, x, mode="eval"):
        if mode == "train" and "x" not in first:
            first["x"] = x.data.copy()
        return forward(self, x, mode)

    def loss_hook(logits, labels):
        first.setdefault("labels", np.array(labels))
        return cross_entropy(logits, labels)

    def step_hook(params, state, config):
        if "grads" not in first:
            first["grads"] = {n: p.grad.copy() for n, p in params if n in wanted}
        adamw_step(params, state, config)
        if probe is not None:
            start = time.perf_counter()
            probe.batch1(net, 1)
            if state.t % PROBE_B64_EVERY == 0:
                probe.batch64(net)
            paused[0] += time.perf_counter() - start

    def epoch_hook(trainee, sample_set, part):
        acc = accuracy_on(trainee, sample_set, part)
        if sample_set is corpus:            # not a probe's call
            ends.append(time.perf_counter() - paused[0])
            starts.append(time.perf_counter() - paused[0])
        return acc

    starts.append(time.perf_counter())
    with tracing.patched([(model.Network, "forward", forward_hook),
                          (T, "cross_entropy", loss_hook),
                          (train, "adamw_step", step_hook),
                          (train, "accuracy_on", epoch_hook)]):
        net, history = train.train(net, corpus, train.TrainConfig(epochs=epochs,
                                                                  seed=seed))
    steps_per_epoch = math.ceil(len(corpus.indices("train")) / BATCH)
    epoch_s = [end - begin for begin, end in zip(starts, ends)]
    return {
        "net": net, "history": history, "first": first, "epoch_s": epoch_s,
        "steps": epochs * steps_per_epoch,
        "samples_per_s": len(corpus.indices("train")) / median(epoch_s),
    }


def infer_phase(net, probe, seconds):
    """Rounds of a few batch-1 forwards and one batch-64 accuracy_on call,
    for `seconds` and until every sample of the split has been streamed."""
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or probe.streamed < len(probe.idx)):
        probe.batch1(net, PROBE_B1_PER_ROUND)
        probe.batch64(net)


def training_subset(corpus, n_train, n_val):
    part = np.full(len(corpus), "", dtype="U5")
    part[corpus.indices("train")[:n_train]] = "train"
    part[corpus.indices("val")[:n_val]] = "val"
    return dataset.SampleSet(corpus.waveforms, corpus.labels, part)


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def check_training(w, seed, corpus, trained, final):
    """First-step gradient against central differences on a same-seed copy,
    epoch losses, and validation accuracy against the RMS-centroid floor."""
    first = trained["first"]
    fresh = model.build_preset(w.preset, base=w.base, seed=seed)
    params = dict(fresh.parameters())

    def loss():
        # under no_grad: a grad-mode forward that is never backpropagated
        # would leave its nodes on the module tape
        with no_grad():
            return T.cross_entropy(fresh.forward(Tensor(first["x"]), mode="train"),
                                   first["labels"]).item()

    def moved(name, j):
        flat = params[name].data.reshape(-1)
        orig = flat[j]

        def loss_at(delta):
            flat[j] = orig + delta
            try:
                return loss()
            finally:
                flat[j] = orig
        return loss_at

    # not checked against ln(10): the init puts it 0.3 or more above on some
    # seeds (see CHANGES.md), so it is recorded only
    first_step_loss = loss()
    analytic, numeric = {}, {}
    for name, grad in first["grads"].items():
        j = int(np.argmax(np.abs(grad)))
        analytic[f"{name}[{j}]"] = float(grad.reshape(-1)[j])
        numeric[f"{name}[{j}]"] = checks.central_difference(moved(name, j))
    checks.check_gradient(analytic, numeric)
    checks.check_epoch_losses([loss for _, loss, _ in trained["history"]])
    floor = checks.rms_centroid_floor(corpus.waveforms, corpus.labels,
                                      corpus.indices("train"), corpus.indices("val"))
    accuracy = float(np.mean(final.logits.argmax(axis=1) + 1 == final.labels))
    checks.check_beats_floor(accuracy, floor)
    return {"first_step_loss": first_step_loss, "floor": floor,
            "val_accuracy": accuracy}


def check_inference(net, probe, reference):
    """Batch-1 logits of a fixed network against accuracy_on, one batched
    forward and, for mdsc + bsa, the loop reference."""
    predictions = probe.logits.argmax(axis=1) + 1
    for acc in probe.b64_accuracies:
        checks.check_batch_agreement(predictions[:B64], probe.labels[:B64], acc)
    with no_grad():
        batched = net.forward(Tensor(probe.waves[:AGREEMENT_SAMPLES, None, :]),
                              mode="eval").data
    checks.check_logits(probe.logits[:AGREEMENT_SAMPLES], batched,
                        "batch-1 against one batched forward")
    if reference:
        expected = [checks.reference_logits(net, wave)
                    for wave in probe.waves[:REFERENCE_SAMPLES]]
        checks.check_logits(probe.logits[:REFERENCE_SAMPLES], expected,
                            "batch-1 against the loop reference")
    checks.check_tape_empty(T.tape_len())


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

def conv_flops_per_sample(net):
    flops = dict.fromkeys(tracing.CONV_KINDS, 0)
    for name, _, f in complexity.count(net).rows:
        kind = tracing.row_kind(name)
        if kind:
            flops[kind] += f
    return flops


def conv_backward_ms(base, seed):
    """Each conv kind on its own at the stage-0 training shape: time of
    tensor.backward of a sum over its output."""
    stem_c, stem_k, stem_s = base.stem
    n = (base.input_length + 2 * ((stem_k - 1) // 2) - stem_k) // stem_s + 1
    c_out, kernels, _ = base.stages[0]
    k = max(kernels)
    wide = len(kernels) * stem_c
    cases = {"depthwise": ((stem_c, n), (stem_c, 1, k), stem_c, (k - 1) // 2),
             "full": ((stem_c, n), (stem_c, stem_c, k), 1, (k - 1) // 2),
             "pointwise": ((wide, n), (c_out, wide, 1), 1, 0)}
    rng = _seeded(seed, 7002)
    out = {}
    for kind, (x_shape, w_shape, groups, padding) in cases.items():
        times = []
        for _ in range(BWD_REPEATS):
            x = Tensor(rng.standard_normal((BATCH,) + x_shape), requires_grad=True)
            wt = Tensor(rng.standard_normal(w_shape), requires_grad=True)
            loss = T.tsum(T.conv1d(x, wt, padding=padding, groups=groups))
            start = time.perf_counter()
            T.backward(loss)
            times.append(time.perf_counter() - start)
        out[f"tensor.conv1d.{kind}.bwd_ms"] = 1e3 * median(times)
    return out


def _sibling_forward_metrics(w, seed, corpus, tracer):
    """Forward metrics of the sibling preset at the same config and mode, for
    the layers the workload's own network does not have."""
    tracer.phase = "sibling"
    net = model.build_preset(SIBLING, base=w.base, seed=seed)
    units = SIBLING_UNITS[w.main]
    if w.main == "train":
        _train_steps(net, corpus, BATCH, units)
    else:
        with no_grad():
            for i in corpus.indices("test")[:units]:
                net.forward(Tensor(corpus.waveforms[i][None, None, :]), mode="eval")
    return tracing.forward_metrics(tracer, "sibling", units, conv_flops_per_sample(net))


def tracing_overhead_pct(w, corpus, pristine, tracer):
    """Median time of a main-phase unit traced over untraced, minus one.  The
    two alternate, unit by unit, so that the host's drift cancels."""
    tracer.phase = "overhead"
    net = copy.deepcopy(pristine)
    wave = corpus.waveforms[corpus.indices("test")[:1], None, :]

    def unit():
        if w.main == "train":
            return _train_steps(net, corpus, BATCH, 1)[0]
        with no_grad():
            start = time.perf_counter()
            net.forward(Tensor(wave), mode="eval")
            return time.perf_counter() - start

    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS[w.main]):
        plain.append(unit())
        with tracing.instrument(tracer):
            traced.append(unit())
    return 100.0 * (median(traced) / median(plain) - 1.0)


def traced_metrics(w, seed, seconds, corpus, pristine, tracer, epochs):
    """Re-run the main phase (and infer-ld's training) with every layer traced."""
    net = copy.deepcopy(pristine)
    with tracing.instrument(tracer):
        tracer.phase = w.main
        if w.main == "train":
            units = train_phase(net, corpus, epochs, seed)["steps"]
        else:
            probe = InferenceProbe(corpus, "test", w.base.num_classes)
            infer_phase(net, probe, INFER_SHARE * seconds)
            units = probe.samples
            tracer.phase = "train"
            train_phase(copy.deepcopy(pristine),
                        training_subset(corpus, *INFER_TRAIN_SUBSET),
                        INFER_TRAIN_EPOCHS, seed)
        layers = tracing.forward_metrics(tracer, w.main, units, conv_flops_per_sample(net))
        sibling = _sibling_forward_metrics(w, seed, corpus, tracer)
    for name, value in sibling.items():
        layers.setdefault(name, value)
    layers.update(tracing.training_metrics(tracer, "train"))
    layers.update(tracing.setup_metrics(tracer))
    layers.update(conv_backward_ms(w.base, seed))
    layers["trace.overhead_pct"] = tracing_overhead_pct(w, corpus, pristine, tracer)
    return layers


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def tail_percentile(values):
    """(p, value) at the highest of a few percentiles with >= 10 samples
    beyond it, or None below 40 samples."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None


def run(name, seed, seconds, trace):
    """Returns (operations attempted, metric values, details for the record)."""
    w = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    setup_s, corpus, net = [], None, None
    for _ in range(SETUPS):
        corpus = net = None                 # free the previous set-up first
        start = time.perf_counter()
        if tracer:
            with tracing.instrument(tracer):
                corpus, net, warm_s = set_up(w, seed)
        else:
            corpus, net, warm_s = set_up(w, seed)
        setup_s.append(time.perf_counter() - start)
    pristine = copy.deepcopy(net)
    details = {"setup_s": setup_s}
    classes = w.base.num_classes

    if w.main == "train":
        steps_per_epoch = math.ceil(len(corpus.indices("train")) / BATCH)
        # the whole epochs nearest to `seconds`, from the warm-up step time
        # plus a tenth for the validation pass and a fifth for the probes
        epochs = max(2, round(seconds / (1.3 * min(warm_s) * steps_per_epoch)))
        probe = InferenceProbe(corpus, "val", classes)
        trained = train_phase(net, corpus, epochs, seed, probe)
        rss = peak_rss_mb()
        final = InferenceProbe(corpus, "val", classes)
        final.batch1(trained["net"], len(final.idx))
        final.batch64(trained["net"])
        details.update(check_training(w, seed, corpus, trained, final))
        check_inference(trained["net"], final, reference=False)
    else:
        probe = InferenceProbe(corpus, "test", classes)
        infer_phase(net, probe, INFER_SHARE * seconds)
        rss = peak_rss_mb()
        check_inference(net, probe, reference=True)
        epochs = INFER_TRAIN_EPOCHS
        trained = train_phase(net, training_subset(corpus, *INFER_TRAIN_SUBSET),
                              epochs, seed)
        # six one-step epochs need not lower the loss; it must stay finite
        checks.check_epoch_losses([loss for _, loss, _ in trained["history"]],
                                  must_fall=False)

    metrics = {
        "setup_s": median(setup_s),
        "train_samples_per_s": trained["samples_per_s"],
        "infer_b1_ms.p50": 1e3 * median(probe.latencies),
        "infer_b64_samples_per_s": median(probe.b64_rates),
        "peak_rss_mb": rss,
    }
    details.update({
        "epochs": epochs, "epoch_s": trained["epoch_s"],
        "b1_samples": len(probe.latencies),
        "b1_tail_ms": tail_percentile([1e3 * v for v in probe.latencies]),
        "b64_rates": probe.b64_rates,
        "epoch_history": trained["history"],
    })
    if trace:
        metrics = traced_metrics(w, seed, seconds, corpus, pristine, tracer, epochs)
    attempted = trained["steps"] + len(probe.latencies) + len(probe.b64_rates)
    return attempted, metrics, details
