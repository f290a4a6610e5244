"""Deterministic per-purpose random substreams.

Every stochastic draw in the simulator comes from a substream addressed by
(master seed, purpose, indices...).  Substreams are derived by counter-based
splitting, so adding a new consumer (e.g. a metric that samples) never
perturbs draws observed elsewhere, and the j-th queue delay of client k is
identical across algorithms and sweep workers.

The substream (seed, *key) is numpy's ``PCG64`` seeded as by
``SeedSequence(seed, spawn_key=key)``, drawn through numpy's ``Generator``.
The seed words are computed here with the algorithm of numpy's
``SeedSequence`` (``numpy/random/bit_generator.pyx``: the entropy words
hashed into a pool of four, then the pool hashed out into the state), and
NEP 19 holds that seeding to stream compatibility across numpy releases.
The hash runs on Python ints masked to 32 bits, or on ``uint32`` arrays,
which wrap exactly as its C code does.  ``Substreams`` computes the seeds
of 256 consecutive last key parts ``j`` at once: a key head's pool is mixed
once, and each block of 256 ``j`` is one pass of the hash over arrays.

A job's ``("sgd", k, j)`` substream is derived only when its objective
draws from it: a job of a noise-free quadratic client gets none.  Since
streams are addressed, not consumed in sequence, skipping one changes no
other draw.
"""
from __future__ import annotations

import functools
import zlib

import numpy as np

__all__ = ["substream", "spawn_seed", "Substreams"]

# numpy's SeedSequence constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_WORDS = 8        # PCG64 seeds from 4 uint64 words

_BLOCK = 256            # last key parts derived at once by Substreams


def _key_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream key parts must be nonnegative, got {part}")
        return int(part)
    raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")


def _words(n: int) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _entropy(seed: int, key) -> list[int]:
    """The entropy words of (seed, *key): the seed's words, padded with
    zeros to the pool size when there is a key, then each key part's."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seeds must be ints, got {type(seed)!r}")
    if seed < 0:
        raise ValueError(f"seeds must be nonnegative, got {seed}")
    words = _words(int(seed))
    if key:
        words += [0] * (_POOL_SIZE - len(words))
    for part in key:
        words += _words(_key_part(part))
    return words


def _hashmix(value, h: int):
    """numpy's hashmix: (hashed value, next hash constant)."""
    h_next = h * _MULT_A & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16, h_next


def _mix(x, y):
    r = (x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32) & _MASK32
    return r ^ r >> 16


def _absorb(pool: list, h: int, words) -> tuple[list, int]:
    """Mix entropy words past the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            hashed, h = _hashmix(word, h)
            pool[i] = _mix(pool[i], hashed)
    return pool, h


def _pool(words: list[int]) -> tuple[list, int]:
    """numpy's mix_entropy: the pool and the hash constant after it."""
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        hashed, h = _hashmix(words[i] if i < len(words) else 0, h)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(pool, h, words[_POOL_SIZE:])


def _state(pool: list, n_words: int) -> list:
    """numpy's generate_state: n_words uint32 words hashed out of the pool."""
    h = _INIT_B
    out = []
    for i in range(n_words):
        value = (pool[i % _POOL_SIZE] ^ h) & _MASK32
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        out.append(value ^ value >> 16)
    return out


def _as_uint64(words) -> np.ndarray:
    """uint32 words, last axis, as uint64 words read little-endian, as
    numpy's generate_state(n, np.uint64) returns them."""
    return np.asarray(words, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seeded_type():
    """The ISeedSequence that hands PCG64 a substream's seed words computed
    ahead.  Built at first use, so that importing fedqueue does not load
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _PCG64_WORDS // 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's seeding request is precomputed")
            return self.words

    return Seeded


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seeded_type()(words)))


def substream(seed: int, *key) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *key).

    Key parts may be nonnegative ints or strings (strings are CRC32-folded).
    The same (seed, key) always yields a bit-identical stream.
    """
    pool, _ = _pool(_entropy(seed, key))
    return _generator(_as_uint64(_state(pool, _PCG64_WORDS)))


def spawn_seed(master_seed: int, *key) -> int:
    """Derive a child experiment seed from a master seed and index path."""
    pool, _ = _pool(_entropy(master_seed, key))
    return _state(pool, 1)[0]


class Substreams:
    """The substreams (seed, *head, j) of one master seed, for keys whose
    last part j is an int: each call equals ``substream(seed, *head, j)``.

    The seeds of j = 256 b, ..., 256 b + 255 are computed together, the
    first time one of them is asked for; a head keeps its latest block, so a
    caller that counts j up derives each block once.  The 256 j of a block
    share their higher words, because 2^32 is a multiple of 256, so only the
    lowest word varies across the block's array.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._heads = {}      # head -> (pool, hash constant) after the head
        self._blocks = {}     # head -> (block index, (_BLOCK, 4) uint64 seeds)

    def __call__(self, *key) -> np.random.Generator:
        head, j = key[:-1], key[-1]
        block, row = divmod(_key_part(j), _BLOCK)
        cached = self._blocks.get(head)
        if cached is None or cached[0] != block:
            cached = self._blocks[head] = (block, self._block(head, block))
        return _generator(cached[1][row])

    def _block(self, head: tuple, block: int) -> np.ndarray:
        if head not in self._heads:
            # the seed's words are padded as for the whole key, never empty
            self._heads[head] = _pool(_entropy(self.seed, head + (0,))[:-1])
        low, *high = _words(block * _BLOCK)
        lows = np.arange(low, low + _BLOCK, dtype=np.uint32)
        pool, _ = _absorb(*self._heads[head], [lows] + high)
        return _as_uint64(np.stack(_state(pool, _PCG64_WORDS), axis=-1))
