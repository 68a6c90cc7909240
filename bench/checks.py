"""Output checks that share no code with the program they check.

Each check raises CheckFailed with a message naming what is wrong.  The
reference forward below is a plain loop over taps and channels; it reads the
network's parameters by name and nothing else.
"""

from __future__ import annotations

import math

import numpy as np

# the BatchNorm1d and LayerNorm defaults of the program's layers
NORM_EPS = 1e-5
# loose enough for a float32 compute policy, tight enough that a dropped tap
# or channel shows (bench/test_checks.py measures both sides)
LOGIT_TOL = 1e-5
GRAD_RTOL = 1e-3
GRAD_ATOL = 1e-6


class CheckFailed(AssertionError):
    pass


def check_epoch_losses(losses, must_fall=True):
    if not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"non-finite epoch loss in {losses}")
    if must_fall and not losses[-1] < losses[0]:
        raise CheckFailed(f"last epoch loss {losses[-1]:.4f} is not below the "
                          f"first {losses[0]:.4f}")


def rms_centroid_floor(waveforms, labels, fit_idx, score_idx):
    """Accuracy of nearest-centroid on per-sample RMS, fit on one split and
    scored on another: what a network must beat to have learned anything."""
    rms = np.sqrt(np.mean(waveforms ** 2, axis=1))
    classes = np.unique(labels[fit_idx])
    centroids = np.array([rms[fit_idx][labels[fit_idx] == c].mean() for c in classes])
    nearest = np.abs(rms[score_idx][:, None] - centroids[None, :]).argmin(axis=1)
    return float(np.mean(classes[nearest] == labels[score_idx]))


def check_beats_floor(accuracy, floor):
    if not accuracy > floor:
        raise CheckFailed(f"accuracy {accuracy:.4f} does not beat the "
                          f"RMS-centroid floor {floor:.4f}")


def central_difference(loss_at, step=1e-6, shrink=10.0, tries=4):
    """d loss / d coordinate, where ``loss_at(delta)`` is the loss with the
    coordinate moved by delta.  Max pooling makes the loss only piecewise
    smooth: where the forward and backward one-sided differences disagree, a
    kink lies within the step, so the step shrinks until they agree."""
    centre = loss_at(0.0)
    for _ in range(tries):
        up, down = loss_at(step), loss_at(-step)
        forward, backward = (up - centre) / step, (centre - down) / step
        if abs(forward - backward) <= (GRAD_RTOL * max(abs(forward), abs(backward))
                                       + GRAD_ATOL):
            return (up - down) / (2 * step)
        step /= shrink
    raise CheckFailed(f"no smooth step down to {step * shrink:.0e} around the "
                      f"coordinate")


def check_gradient(analytic, numeric):
    """Both are {coordinate label: value}."""
    for key, a in analytic.items():
        n = numeric[key]
        if not abs(a - n) <= GRAD_RTOL * max(abs(a), abs(n)) + GRAD_ATOL:
            raise CheckFailed(f"gradient at {key}: analytic {a:.6e} vs "
                              f"central difference {n:.6e}")


def check_logits(got, expected, what):
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {expected.shape}")
    err = float(np.max(np.abs(got - expected)))
    if not err <= LOGIT_TOL * max(1.0, float(np.max(np.abs(expected)))):
        raise CheckFailed(f"{what}: logits differ by up to {err:.3e}")


def check_batch_agreement(b1_predictions, labels, b64_accuracy):
    """accuracy_on (batch 64) must score exactly what batch-1 predicted."""
    b1_accuracy = float(np.mean(np.asarray(b1_predictions) == np.asarray(labels)))
    if b1_accuracy != b64_accuracy:
        raise CheckFailed(f"batch-64 accuracy {b64_accuracy:.6f} != batch-1 "
                          f"accuracy {b1_accuracy:.6f}")


def check_tape_empty(nodes):
    if nodes != 0:
        raise CheckFailed(f"{nodes} nodes left on the autodiff tape")


# --------------------------------------------------------------------------
# loop reference forward (mdsc convolutions + broadcast attention, eval mode)
# --------------------------------------------------------------------------

_erf = np.vectorize(math.erf)


def _gelu(x):
    return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)).astype(x.dtype))


def _conv(x, w, bias, stride, padding, groups):
    """x [C_in, N], w [C_out, C_in/groups, k]; loops over channels and taps."""
    c_out, per_group, k = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding)))
    n_out = (xp.shape[1] - k) // stride + 1
    y = np.zeros((c_out, n_out), dtype=x.dtype)
    out_per_group = c_out // groups
    for o in range(c_out):
        first = (o // out_per_group) * per_group
        for c in range(per_group):
            for j in range(k):
                y[o] += w[o, c, j] * xp[first + c, j: j + stride * (n_out - 1) + 1: stride]
        if bias is not None:
            y[o] += bias[o]
    return y


def _batchnorm_eval(x, p, b, name):
    inv = 1.0 / np.sqrt(b[f"{name}.running_var"] + NORM_EPS)
    return ((x - b[f"{name}.running_mean"][:, None]) * inv[:, None]
            * p[f"{name}.gamma"][:, None] + p[f"{name}.beta"][:, None])


def _layer_norm(x, p, name):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + NORM_EPS) * p[f"{name}.gamma"] + p[f"{name}.beta"]


def _linear(x, p, name):
    return x @ p[f"{name}.weight"].T + p[f"{name}.bias"]


def _softmax(s):
    e = np.exp(s - s.max())
    return e / e.sum()


def reference_logits(net, waveform):
    """Eval-mode logits of one waveform through an mdsc + bsa network."""
    cfg = net.config
    if (cfg.conv_kind, cfg.attn_kind) != ("mdsc", "bsa"):
        raise ValueError("the loop reference covers the mdsc + bsa network only")
    p = {name: t.data for name, t in net.parameters()}
    b = dict(net.buffers())
    _, stem_k, stem_s = cfg.stem
    y = _conv(waveform[None, :], p["stem.weight"], p["stem.bias"], stem_s,
              (stem_k - 1) // 2, 1)
    y = _gelu(_batchnorm_eval(y, p, b, "stem_bn"))
    for i, (_, kernels, pool) in enumerate(cfg.stages):
        c_in = y.shape[0]
        z = np.concatenate([_conv(y, p[f"stage{i}.depthwise_k{k}.weight"], None, 1,
                                  (k - 1) // 2, c_in) for k in kernels])
        z = _conv(z, p[f"stage{i}.pointwise.weight"], p[f"stage{i}.pointwise.bias"],
                  1, 0, 1)
        z = _gelu(_batchnorm_eval(z, p, b, f"stage{i}.bn"))
        n_out = z.shape[1] // pool
        y = z[:, :n_out * pool].reshape(z.shape[0], n_out, pool).max(axis=2)
    x = y.T + p["pos_emb"]                                   # [tokens, d]
    for i in range(cfg.encoder[0]):
        e = f"encoder{i}"
        a = _softmax(x @ p[f"{e}.attn.score"])
        context = (a[:, None] * _linear(x, p, f"{e}.attn.w_k")).sum(axis=0)
        attn = _linear(_linear(x, p, f"{e}.attn.w_v") * context, p, f"{e}.attn.w_o")
        x = _layer_norm(x + attn, p, f"{e}.norm1")
        f = _linear(_gelu(_linear(x, p, f"{e}.ffn1")), p, f"{e}.ffn2")
        x = _layer_norm(x + f, p, f"{e}.norm2")
    return _linear(x.mean(axis=0), p, "head")
