"""Counter-based streams: stream(seed) is the Philox stream keyed by seed
alone, and a negative seed or trial is refused."""

import numpy as np
import pytest

from prodcodes.rng import stream


@pytest.mark.parametrize("seed", [0, 1, 5, 2 ** 31 - 1, 2 ** 63 + 5])
def test_stream_of_a_seed_is_philox_keyed_by_the_seed(seed):
    want = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    got = stream(seed)
    assert np.array_equal(got.integers(0, 2 ** 63, 64), want.integers(0, 2 ** 63, 64))
    assert np.array_equal(got.random(16), want.random(16))


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-5, -5), (-(2 ** 70), 3)])
def test_stream_refuses_negative_seeds_and_trials(seed, trial):
    with pytest.raises(ValueError, match="non-negative"):
        stream(seed, trial)
