"""The substream derivation against its oracle, numpy's SeedSequence."""
import zlib

import numpy as np
import pytest

from fedqueue.streams import _BLOCK, Substreams, spawn_seed, substream

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63 + 11, 2**130 + 5]
KEYS = [("data",), ("queue", 3, 0), ("sgd", 11, 63), ("warmup", 2**32 + 7),
        ("bound-mc", float(0.2).hex(), float(1.5).hex()), (5, 2**70, "x"), ()]


def oracle(seed, *key):
    """numpy's SeedSequence for (seed, *key), strings CRC32-folded."""
    spawn_key = tuple(zlib.crc32(p.encode()) if isinstance(p, str) else p
                      for p in key)
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_substream_and_spawn_seed_match_numpy(seed, key):
    assert np.array_equal(substream(seed, *key).random(4),
                          np.random.default_rng(oracle(seed, *key)).random(4))
    assert spawn_seed(seed, *key) == int(oracle(seed, *key).generate_state(1)[0])


def test_random_keys_match_numpy():
    rng = np.random.default_rng(16)
    for _ in range(300):
        seed = int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63))
        key = tuple(int(x) >> int(rng.integers(0, 63))
                    for x in rng.integers(0, 2**63, size=rng.integers(1, 5)))
        expected = np.random.default_rng(oracle(seed, *key)).standard_normal(2)
        assert np.array_equal(substream(seed, *key).standard_normal(2), expected)
        assert spawn_seed(seed, *key) == int(oracle(seed, *key).generate_state(1)[0])


@pytest.mark.parametrize("seed", [3, 2**40 + 1])
@pytest.mark.parametrize("head", [("queue", 2), ("sgd", 0), ("warmup",), (),
                                  (2**33, "x")], ids=repr)
def test_block_cache_matches_numpy_across_block_edges(seed, head):
    streams = Substreams(seed)
    block = _BLOCK
    js = [0, block - 1, block, 1, 2 * block - 1, 2 * block, 2 * block + 2,
          block - 1, 2**32 - 1, 2**32, 2**32 + block, 2**64 + 3]
    for j in js:
        expected = np.random.default_rng(oracle(seed, *head, j)).integers(0, 2**62, 3)
        assert np.array_equal(streams(*head, j).integers(0, 2**62, 3), expected)
        assert np.array_equal(substream(seed, *head, j).integers(0, 2**62, 3), expected)


def test_negative_or_untyped_key_parts_raise():
    for derive in (substream, spawn_seed, lambda seed, *key: Substreams(seed)(*key)):
        with pytest.raises(ValueError, match="nonnegative"):
            derive(1, "queue", -1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            derive(1, "queue", 0, -1)
        with pytest.raises(TypeError):
            derive(1, "queue", 0.5, 0)
    with pytest.raises(ValueError):
        substream(-1, "data")
