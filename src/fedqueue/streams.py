"""Deterministic per-purpose random substreams.

Every stochastic draw in the simulator comes from a substream addressed by
(master seed, purpose, indices...).  Substreams are derived by counter-based
splitting via numpy's SeedSequence, so adding a new consumer (e.g. a metric
that samples) never perturbs draws observed elsewhere, and the j-th queue
delay of client k is identical across algorithms and sweep workers.

A job's ``("sgd", k, j)`` substream is derived only when its objective
draws from it: a job of a noise-free quadratic client gets none.  Since
streams are addressed, not consumed in sequence, skipping one changes no
other draw.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream", "spawn_seed"]


def _key_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream key parts must be nonnegative, got {part}")
        return int(part)
    raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")


def substream(seed: int, *key) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *key).

    Key parts may be nonnegative ints or strings (strings are CRC32-folded).
    The same (seed, key) always yields a bit-identical stream.
    """
    spawn_key = tuple(_key_part(p) for p in key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def spawn_seed(master_seed: int, *key) -> int:
    """Derive a child experiment seed from a master seed and index path."""
    spawn_key = tuple(_key_part(p) for p in key)
    state = np.random.SeedSequence(master_seed, spawn_key=spawn_key).generate_state(1)
    return int(state[0])
