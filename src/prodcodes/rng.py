"""Counter-based randomness: one named generator family, one stream per
(seed, trial) pair, so trials are reproducible and order-independent."""

from __future__ import annotations

import numpy as np


def stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Deterministic Philox stream keyed by non-negative (seed, trial)."""
    if seed < 0 or trial < 0:
        raise ValueError(f"seed and trial must be non-negative, got ({seed}, {trial})")
    key = np.array([np.uint64(seed), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
