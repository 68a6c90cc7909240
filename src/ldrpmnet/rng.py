"""The one rule that turns a seed into a random stream.  Every seeded draw
in the package comes from `stream(seed, index)`, a counter-based Philox
generator keyed by the pair, so stream `index` of a seed never depends on
which other streams were drawn before it."""

from __future__ import annotations

import numbers

import numpy as np


def stream(seed: int, index: int) -> np.random.Generator:
    """Philox stream `index` of `seed`; the seed must be an int in [0, 2**64)."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
