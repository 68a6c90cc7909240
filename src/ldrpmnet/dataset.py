"""Synthetic 10-class waveform corpus with the fixed per-class sample counts
of the target task, plus deterministic 7:2:1 splitting and file I/O.

Each class has a recipe: an attack/steady/release envelope, a set of tone
components, a noise level, and an amplitude range.  Classes 5-7 share one
recipe and differ only by a strictly increasing amplitude scale; classes 2
and 3 share tone structure and differ only in envelope jitter — the two
deliberately hard axes of the task.  A per-sample random stream,
`rng.stream(seed, sample index)`, makes generation of sample i independent
of generation order.  Waveforms are float32 in memory and on disk; eval
runs on them in float32 and training casts them to float64 (see
`model.Network.forward`).
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

SAMPLE_RATE = 10_000
WAVEFORM_MAGIC = b"LDWF1"

CLASS_COUNTS = (121, 180, 158, 120, 124, 84, 80, 113, 112, 120)
CLASS_IDS = range(1, len(CLASS_COUNTS) + 1)
TOTAL_SAMPLES = sum(CLASS_COUNTS)            # 1212
SPLIT_SIZES = (845, 245, 122)                # train / val / test


class DatasetLoadError(ValueError):
    """Base class for dataset directory load failures."""


class BadMagicError(DatasetLoadError):
    pass


class TruncatedFileError(DatasetLoadError):
    pass


class ManifestError(DatasetLoadError):
    pass


@dataclass(frozen=True)
class ClassRecipe:
    class_id: int
    attack: float
    steady: float
    release: float
    tones: tuple                 # ((freq_hz, relative_amp), ...)
    noise: float
    amp_lo: float
    amp_hi: float
    env_jitter: float = 0.0
    cutoff: float | None = None  # fraction of the clip after which signal dies
    am_freq: float = 0.0         # slow amplitude modulation, Hz


_OVERDRIVE = dict(attack=0.10, steady=0.70, release=0.20,
                  tones=((150.0, 1.0), (450.0, 0.7), (900.0, 0.5)),
                  noise=0.10, env_jitter=0.05)
_SUPPLY = dict(attack=0.08, steady=0.74, release=0.18,
               tones=((100.0, 1.0), (300.0, 0.6), (500.0, 0.3)),
               noise=0.08)

RECIPES = {
    1: ClassRecipe(1, 0.10, 0.70, 0.20,
                   ((120.0, 1.0), (240.0, 0.5), (480.0, 0.25)),
                   0.05, 0.40, 0.85, env_jitter=0.05),
    2: ClassRecipe(2, amp_lo=0.40, amp_hi=0.85, env_jitter=0.03, **_SUPPLY),
    3: ClassRecipe(3, amp_lo=0.40, amp_hi=0.85, env_jitter=0.35, **_SUPPLY),
    4: ClassRecipe(4, 0.15, 0.60, 0.25,
                   ((80.0, 1.0), (160.0, 0.4)),
                   0.06, 0.35, 0.80, env_jitter=0.05),
    5: ClassRecipe(5, amp_lo=0.40, amp_hi=0.50, **_OVERDRIVE),
    6: ClassRecipe(6, amp_lo=0.60, amp_hi=0.70, **_OVERDRIVE),
    7: ClassRecipe(7, amp_lo=0.82, amp_hi=0.92, **_OVERDRIVE),
    8: ClassRecipe(8, 0.08, 0.50, 0.05,
                   ((200.0, 1.0), (350.0, 0.5)),
                   0.07, 0.40, 0.85, cutoff=0.55),
    9: ClassRecipe(9, 0.12, 0.66, 0.22,
                   ((110.0, 0.9), (330.0, 0.7), (660.0, 0.5)),
                   0.07, 0.40, 0.85, am_freq=8.0),
    10: ClassRecipe(10, 0.20, 0.50, 0.30,
                    ((120.0, 1.0), (240.0, 0.3)),
                    0.30, 0.06, 0.14),
}


@dataclass
class SampleSet:
    waveforms: np.ndarray               # [n, input_length] float32, as on disk
    labels: np.ndarray                  # [n] int, ids from CLASS_IDS
    split: np.ndarray = field(default=None)  # [n] of '', 'train', 'val', 'test'

    def __post_init__(self):
        if self.split is None:
            self.split = np.full(len(self.labels), "", dtype="U5")

    def __len__(self):
        return len(self.labels)

    @property
    def input_length(self) -> int:
        return self.waveforms.shape[1]

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def indices(self, part: str) -> np.ndarray:
        return np.flatnonzero(self.split == part)


def _envelope(recipe: ClassRecipe, n: int, rng: np.random.Generator,
              t: np.ndarray) -> np.ndarray:
    jit = 1.0 + rng.uniform(-0.1, 0.1)
    na = max(int(recipe.attack * jit * n), 1)
    nr = max(int(recipe.release * jit * n), 1)
    ns = min(int(recipe.steady * jit * n), n - na - nr)
    env = np.zeros(n)
    env[:na] = np.linspace(0.0, 1.0, na, endpoint=False)
    env[na:na + ns] = 1.0
    env[na + ns:na + ns + nr] = np.linspace(1.0, 0.0, nr)
    if recipe.env_jitter > 0.0:
        mod = np.zeros(n)
        for _ in range(3):
            f = rng.uniform(3.0, 15.0)
            mod += rng.uniform(0.5, 1.0) * np.sin(
                2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        env *= np.clip(1.0 + recipe.env_jitter * mod / 3.0, 0.0, 2.0)
    if recipe.am_freq > 0.0:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        env *= (1.0 + 0.5 * np.sin(2.0 * np.pi * recipe.am_freq * t + phase)) / 1.5
    if recipe.cutoff is not None:
        nc = int(recipe.cutoff * n)
        fade = min(int(0.005 * SAMPLE_RATE), n - nc)
        if fade > 0:
            env[nc:nc + fade] *= np.linspace(1.0, 0.0, fade)
        env[nc + fade:] = 0.0
    return env


def _render(recipe: ClassRecipe, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    sig = np.zeros(n)
    for freq, amp in recipe.tones:
        f = freq * (1.0 + rng.uniform(-0.02, 0.02))
        sig += amp * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
    sig /= np.abs(sig).max()
    wave = sig * _envelope(recipe, n, rng, t)
    wave = wave + recipe.noise * rng.standard_normal(n)
    wave /= np.abs(wave).max()
    wave *= rng.uniform(recipe.amp_lo, recipe.amp_hi)
    # float32 is the on-disk precision, so the format round-trips bit-exactly
    return np.clip(wave, -1.0, 1.0).astype(np.float32)


def generate(seed: int, input_length: int = 8192) -> SampleSet:
    """Deterministic corpus with the fixed class counts (total 1212)."""
    if input_length < 1024:
        raise ValueError(f"input_length must be >= 1024, got {input_length}")
    waveforms = np.empty((TOTAL_SAMPLES, input_length), dtype=np.float32)
    labels = np.empty(TOTAL_SAMPLES, dtype=np.int64)
    i = 0
    for class_id, count in zip(CLASS_IDS, CLASS_COUNTS):
        recipe = RECIPES[class_id]
        for _ in range(count):
            rng = stream(seed, i)
            waveforms[i] = _render(recipe, input_length, rng)
            labels[i] = class_id
            i += 1
    return SampleSet(waveforms, labels)


def _apportion(target: int, weights: np.ndarray) -> np.ndarray:
    quotas = weights * (target / weights.sum())
    base = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[: target - base.sum()]] += 1
    return base


def split(sample_set: SampleSet, seed: int) -> SampleSet:
    """Stratified 7:2:1 assignment with exact global split sizes."""
    counts = np.array([sample_set.class_counts().get(c, 0) for c in CLASS_IDS])
    if counts.min() < 3:
        raise ValueError(
            f"stratified split needs >= 3 samples per class, got {counts.tolist()}")
    total = len(sample_set)
    if total == TOTAL_SAMPLES:
        n_train, n_val, n_test = SPLIT_SIZES
    else:
        n_test = int(round(total * 0.1))
        n_val = int(round(total * 0.2))
        n_train = total - n_val - n_test
    test_c = _apportion(n_test, counts)
    val_c = _apportion(n_val, counts)
    test_c = np.minimum(test_c, counts - 2)      # keep every class in every split
    val_c = np.minimum(val_c, counts - test_c - 1)
    assignment = np.full(total, "train", dtype="U5")
    for ci, class_id in enumerate(CLASS_IDS):
        idx = np.flatnonzero(sample_set.labels == class_id)
        idx = stream(seed, 10_000 + class_id).permutation(idx)
        assignment[idx[: test_c[ci]]] = "test"
        assignment[idx[test_c[ci]: test_c[ci] + val_c[ci]]] = "val"
    out = SampleSet(sample_set.waveforms, sample_set.labels, assignment)
    sizes = tuple(int((assignment == p).sum()) for p in ("train", "val", "test"))
    assert sizes == (n_train, n_val, n_test), sizes
    return out


# --------------------------------------------------------------------------
# directory format: manifest.csv + one binary waveform file per sample
# --------------------------------------------------------------------------

def save(sample_set: SampleSet, path) -> None:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "manifest.csv"), "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "class", "split", "file"])
        for i in range(len(sample_set)):
            name = f"wav{i:05d}.bin"
            w.writerow([i, int(sample_set.labels[i]),
                        sample_set.split[i] or "", name])
            data = sample_set.waveforms[i].astype("<f4")
            with open(os.path.join(path, name), "wb") as wf:
                wf.write(WAVEFORM_MAGIC)
                wf.write(struct.pack("<I", len(data)))
                wf.write(data.tobytes())


def _load_waveform(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != WAVEFORM_MAGIC:
        raise BadMagicError(f"{path}: bad waveform magic {blob[:5]!r}")
    if len(blob) < 9:
        raise TruncatedFileError(f"{path}: header truncated")
    n, = struct.unpack("<I", blob[5:9])
    if len(blob) != 9 + 4 * n:
        raise TruncatedFileError(
            f"{path}: expected {9 + 4 * n} bytes for {n} samples, got {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=9)


def _manifest_rows(manifest) -> list:
    """(class id, split, file name) of every manifest row, all checked."""
    rows = []
    try:
        with open(manifest, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != ["id", "class", "split", "file"]:
                raise ManifestError(f"bad manifest header {header}")
            for row in reader:
                where = f"{manifest}, line {reader.line_num}"
                if len(row) != 4:
                    raise ManifestError(f"{where}: bad manifest row {row}")
                _, cls, part, name = row
                try:
                    cls = int(cls)
                except ValueError:
                    raise ManifestError(
                        f"{where}: class id {cls!r} is not an integer") from None
                if cls not in CLASS_IDS:
                    raise ManifestError(
                        f"{where}: class id {cls} outside 1..{CLASS_IDS[-1]}")
                if part not in ("", "train", "val", "test"):
                    raise ManifestError(f"{where}: bad split label {part!r}")
                if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                    raise ManifestError(
                        f"{where}: file {name!r} is not a file name in the "
                        f"dataset directory")
                rows.append((cls, part, name))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ManifestError(f"{manifest}: {exc}") from None
    if not rows:
        raise ManifestError(f"{manifest} lists no samples")
    return rows


def load(path) -> SampleSet:
    manifest = os.path.join(path, "manifest.csv")
    if not os.path.exists(manifest):
        raise ManifestError(f"{manifest} does not exist")
    rows = _manifest_rows(manifest)
    waveforms = None
    for i, (_, _, name) in enumerate(rows):
        file = os.path.join(path, name)
        try:
            wave = _load_waveform(file)
        except FileNotFoundError:
            raise ManifestError(
                f"{file}, listed in {manifest}, does not exist") from None
        if waveforms is None:
            waveforms = np.empty((len(rows), len(wave)), dtype=np.float32)
        elif len(wave) != waveforms.shape[1]:
            raise ManifestError(
                f"inconsistent waveform lengths: {file} holds {len(wave)} "
                f"samples, {rows[0][2]} holds {waveforms.shape[1]}")
        waveforms[i] = wave
    return SampleSet(waveforms, np.array([r[0] for r in rows], dtype=np.int64),
                     np.array([r[1] for r in rows], dtype="U5"))


# --------------------------------------------------------------------------
# task-difficulty floor
# --------------------------------------------------------------------------

def rms_centroid_accuracy(sample_set: SampleSet) -> float:
    """Accuracy of a nearest-centroid classifier on per-sample RMS alone.

    Fit on the train split, score on the test split.  This is the floor the
    network has to clearly beat for the task to be non-trivial.
    """
    rms = np.sqrt((sample_set.waveforms.astype(np.float64) ** 2).mean(axis=1))
    train = sample_set.indices("train")
    test = sample_set.indices("test")
    classes = np.array(CLASS_IDS)
    centroids = np.array([
        rms[train][sample_set.labels[train] == c].mean() for c in classes])
    pred = classes[np.argmin(
        np.abs(rms[test][:, None] - centroids[None, :]), axis=1)]
    return float((pred == sample_set.labels[test]).mean())
