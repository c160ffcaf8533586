"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived here, keyed
by a master seed plus a path of integers (such as a round) and purpose strings.
Streams depend only on their key, never on execution order: one stream per
round orders the whole sorted cohort's mini-batches, one row per cohort
position and epoch.
"""

from __future__ import annotations

import zlib

import numpy as np


def _word(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path integers must be nonnegative, got {part}")
        return int(part)
    raise TypeError(f"unsupported stream path element: {part!r}")


def stream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator for (master_seed, *path); identical keys give identical streams."""
    key = tuple(_word(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))
