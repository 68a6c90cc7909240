"""Generate the synthetic 10-class waveform corpus and look inside it.

Each class is a parametric recipe (envelope shape, tone stack, noise
level, saturation, modulation); every sample is drawn from a counter-based
stream keyed by (seed, sample index), so regeneration is bit-exact.  A
per-sample-RMS nearest-centroid classifier gives the difficulty floor the
network has to clear.
"""

import numpy as np

from ldrpmnet import dataset

LENGTH = 2048

samples = dataset.split(dataset.generate(seed=0, input_length=LENGTH), seed=0)

print(f"{len(samples)} samples, length {samples.input_length}")
print("\nclass  count  train/val/test      mean RMS")
for c in range(1, 11):
    mask = samples.labels == c
    rms = np.sqrt((samples.waveforms[mask].astype(np.float64) ** 2).mean(axis=1))
    per_split = [int((samples.split[mask] == p).sum())
                 for p in ("train", "val", "test")]
    print(f"{c:>5} {mask.sum():>6}  {per_split[0]:>4}/{per_split[1]}/{per_split[2]:<6}"
          f" {rms.mean():>10.4f}")

sizes = {p: len(samples.indices(p)) for p in ("train", "val", "test")}
print("\nsplit sizes:", sizes)

floor = dataset.rms_centroid_accuracy(samples)
print(f"RMS nearest-centroid test accuracy (difficulty floor): {floor:.3f}")

# a quick textual sketch of one waveform per class
print("\ncoarse |x| profile (16 bins, 0-9 scale):")
for c in (1, 5, 7, 10):
    w = samples.waveforms[np.flatnonzero(samples.labels == c)[0]].astype(np.float64)
    bins = np.abs(w).reshape(16, -1).mean(axis=1)
    scale = (9 * bins / bins.max()).astype(int)
    print(f"class {c:>2}: " + "".join(str(v) for v in scale))
