import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from ldrpmnet.rng import stream


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_accepts_both_ends_of_the_range(seed):
    npt.assert_array_equal(stream(seed, 3).random(4), stream(seed, 3).random(4))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_rejects_a_seed_outside_the_range_naming_it(seed):
    with pytest.raises(ValueError, match=f"got {seed}"):
        stream(seed, 0)


@given(st.integers(min_value=-2 ** 66, max_value=2 ** 66))
def test_every_integer_in_range_and_no_other(seed):
    if 0 <= seed < 2 ** 64:
        # stream 0 is the one numpy keys by the bare seed
        legacy = np.random.Generator(np.random.Philox(key=seed))
        npt.assert_array_equal(stream(seed, 0).random(3), legacy.random(3))
    else:
        with pytest.raises(ValueError, match="seed"):
            stream(seed, 0)
