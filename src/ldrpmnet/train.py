"""Training protocol and evaluation metrics.

AdamW (decoupled weight decay) + cross-entropy, batch size 16, learning
rate 1e-3, 50 epochs; seeded shuffling; best-validation checkpoint
retained.  Evaluation produces a confusion matrix, macro precision /
recall / F1, and a median per-sample inference time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .complexity import count
from .dataset import SampleSet
from .model import MODEL_PRESETS, ModelConfig, Network, build_preset
from .rng import stream
from .tensor import Tensor, no_grad


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.001
    epochs: int = 50
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or not self.learning_rate > 0:
            raise ValueError(f"invalid training configuration {self}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


class TrainingDiverged(RuntimeError):
    pass


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

class AdamWState:
    def __init__(self, params):
        self.m = [np.zeros_like(p.data) for _, p in params]
        self.v = [np.zeros_like(p.data) for _, p in params]
        self.t = 0


def adamw_step(params, state: AdamWState, config: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay is applied directly to the weights (not through the gradients);
    moments are bias-corrected.  A non-finite gradient aborts, naming the
    offending parameter.
    """
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    lr = config.learning_rate
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (name, p) in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
        if config.weight_decay:
            p.data *= 1.0 - lr * config.weight_decay
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        mhat = state.m[i] / c1
        vhat = state.v[i] / c2
        p.data -= lr * mhat / (np.sqrt(vhat) + config.eps)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

@dataclass
class MetricsReport:
    accuracy: float
    precision: float                   # macro
    recall: float                      # macro
    f1: float                          # macro
    confusion: np.ndarray              # [classes, classes], rows = true class
    inference_seconds: float = 0.0

    def to_csv(self) -> str:
        return ("accuracy,precision,recall,f1,inference_s\n"
                f"{self.accuracy:.6f},{self.precision:.6f},{self.recall:.6f},"
                f"{self.f1:.6f},{self.inference_seconds:.6f}\n")

    def confusion_csv(self) -> str:
        return "\n".join(",".join(str(int(v)) for v in row)
                         for row in self.confusion) + "\n"


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    confusion = np.asarray(confusion)
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total)
    precisions, recalls, f1s = [], [], []
    for c in range(confusion.shape[0]):
        tp = confusion[c, c]
        pred_c = confusion[:, c].sum()
        true_c = confusion[c, :].sum()
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / true_c if true_c else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return MetricsReport(accuracy, float(np.mean(precisions)),
                         float(np.mean(recalls)), float(np.mean(f1s)),
                         confusion)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

def _predict(net: Network, waveforms: np.ndarray) -> np.ndarray:
    with no_grad():
        logits = net.forward(Tensor(waveforms[:, None, :]), mode="eval")
    return logits.data.argmax(axis=1) + 1


def accuracy_on(net: Network, sample_set: SampleSet, part: str) -> float:
    idx = sample_set.indices(part)
    preds = _predict(net, sample_set.waveforms[idx])
    return float((preds == sample_set.labels[idx]).mean())


def train(net: Network, sample_set: SampleSet, config: TrainConfig):
    """Epoch loop over the train split with per-epoch validation accuracy.

    Returns (net restored to its best-validation state, trace) where trace is
    a list of (epoch, mean train loss, validation accuracy).
    """
    train_idx = sample_set.indices("train")
    if len(train_idx) == 0:
        raise ValueError("sample set has no train split; call dataset.split first")
    params = net.parameters()
    state = AdamWState(params)
    trace = []
    best_acc, best_snap = -1.0, net.snapshot()
    for epoch in range(1, config.epochs + 1):
        order = train_idx[stream(config.seed, epoch).permutation(len(train_idx))]
        losses = []
        for step, lo in enumerate(range(0, len(order), config.batch_size)):
            idx = order[lo:lo + config.batch_size]
            x = Tensor(sample_set.waveforms[idx][:, None, :])
            loss = T.cross_entropy(net.forward(x, mode="train"),
                                   sample_set.labels[idx])
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, step {step}")
            for _, p in params:
                p.zero_grad()
            loss.backward()
            adamw_step(params, state, config)
            losses.append(value)
        val_acc = accuracy_on(net, sample_set, "val")
        trace.append((epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_snap = net.snapshot()
    net.load_state_arrays(best_snap)
    return net, trace


def trace_csv(trace) -> str:
    lines = ["epoch,train_loss,val_acc"]
    lines += [f"{e},{l:.10f},{a:.6f}" for e, l, a in trace]
    return "\n".join(lines) + "\n"


def evaluate(net: Network, sample_set: SampleSet) -> MetricsReport:
    """Eval-mode metrics on the test split; mutates no parameter or buffer."""
    idx = sample_set.indices("test")
    if len(idx) == 0:
        raise ValueError("split 'test' is empty")
    labels = sample_set.labels[idx]
    classes = net.config.num_classes
    if labels.min() < 1 or labels.max() > classes:
        raise ValueError(
            f"split 'test' has labels {labels.min()}..{labels.max()}, but the "
            f"network has classes 1..{classes}")
    preds = _predict(net, sample_set.waveforms[idx])
    confusion = np.zeros((net.config.num_classes, net.config.num_classes),
                         dtype=np.int64)
    for t_cls, p_cls in zip(labels, preds):
        confusion[t_cls - 1, p_cls - 1] += 1
    report = metrics_from_confusion(confusion)
    # timing: one batch-1 eval pass over the split, median per-sample latency
    durations = []
    with no_grad():
        for wave in sample_set.waveforms[idx]:
            start = time.perf_counter()
            net.forward(Tensor(wave[None, None, :]), mode="eval")
            durations.append(time.perf_counter() - start)
    report.inference_seconds = float(np.median(durations))
    return report


# --------------------------------------------------------------------------
# ablation harness
# --------------------------------------------------------------------------

def ablate(sample_set: SampleSet, train_config: TrainConfig,
           base: ModelConfig | None = None) -> list:
    """Train and evaluate all four variants with shared widths and one seed:
    `train_config.seed` draws every variant's init and shuffles.

    Returns [(method name, MetricsReport, ComplexityReport), ...] in
    MODEL_PRESETS order.
    """
    results = []
    for method in MODEL_PRESETS:
        net = build_preset(method, base=base, seed=train_config.seed)
        net, _ = train(net, sample_set, train_config)
        metrics = evaluate(net, sample_set)
        results.append((method, metrics, count(net)))
    return results


def ablation_csv(results) -> str:
    lines = ["method,conv,attn,accuracy,params,flops,inference_s"]
    for method, metrics, report in results:
        conv, attn = MODEL_PRESETS[method]
        p, f = report.totals
        lines.append(f"{method},{conv},{attn},{metrics.accuracy:.6f},"
                     f"{p},{f},{metrics.inference_seconds:.6f}")
    return "\n".join(lines) + "\n"
