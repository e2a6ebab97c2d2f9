"""Bit-exactness of the vectorised hashing kernels.

The batched query subsystem relies on ``hash_many`` / ``extend_keys`` /
``splitmix64_array`` producing *identical* values to their scalar
counterparts: a single differing bit could flip a path-sampling decision and
break batch/single-query equivalence.  These tests pin that contract,
including the overflow-prone edge keys of the Mersenne-prime arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.pairwise import (
    MERSENNE_PRIME,
    PairwiseHash,
    PathHasher,
    extend_key,
    extend_keys,
    hash_keys,
    splitmix64,
    splitmix64_array,
)

@pytest.fixture(scope="module")
def random_keys(hash_edge_keys) -> np.ndarray:
    rng = np.random.default_rng(4242)
    keys = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    keys[: len(hash_edge_keys)] = hash_edge_keys
    return keys


def _exact_hashes(keys, a, b) -> list[float]:
    """The multiply-add-prime hash on Python integers, which never overflow."""
    return [
        float((coefficient * (key % MERSENNE_PRIME) + offset) % MERSENNE_PRIME) / MERSENNE_PRIME
        for key, coefficient, offset in zip(keys, a, b)
    ]


class TestVectorisedPairwiseHash:
    @pytest.mark.parametrize("seed", [0, 1, 17, 123456])
    def test_hash_many_matches_hash_int(self, random_keys, seed):
        hash_function = PairwiseHash(seed)
        vectorised = hash_function.hash_many(random_keys)
        scalar = np.array([hash_function.hash_int(int(key)) for key in random_keys])
        assert np.array_equal(vectorised, scalar)

    def test_hash_many_in_unit_interval(self, random_keys):
        values = PairwiseHash(9).hash_many(random_keys)
        assert float(values.min()) >= 0.0
        assert float(values.max()) < 1.0

    def test_empty_input(self):
        assert PairwiseHash(0).hash_many(np.empty(0, dtype=np.uint64)).size == 0

    def test_keys_outside_uint64_raise(self):
        hash_function = PairwiseHash(3)
        with pytest.raises(ValueError, match="-5"):
            hash_function.hash_many(np.array([-1, -5, 7]))
        for key in (-1, 1 << 64):
            with pytest.raises(ValueError, match=str(key)):
                hash_function.hash_int(key)

    def test_list_and_object_keys_outside_uint64_raise_value_error(self):
        hash_function = PairwiseHash(3)
        for keys in ([1 << 64], np.array([7, 1 << 64], dtype=object), [-1, 1 << 63]):
            with pytest.raises(ValueError, match="is outside"):
                hash_function.hash_many(keys)
        assert hash_function.hash_many([7, (1 << 64) - 1]).tolist() == [
            hash_function.hash_int(7),
            hash_function.hash_int((1 << 64) - 1),
        ]


class TestLazyReductionBounds:
    """``hash_keys`` equals the exact formula where its skipped reductions are tightest."""

    def test_scalar_coefficients(self, hash_grid):
        keys, pairs = hash_grid
        count = keys.size
        for a, b in pairs:
            expected = _exact_hashes(keys.tolist(), [a] * count, [b] * count)
            assert hash_keys(keys, a, b).tolist() == expected, (a, b)

    def test_per_key_coefficients(self, hash_grid):
        keys, pairs = hash_grid
        # Every key with every pair, as a fused pass gives each key its row.
        table = np.array(pairs, dtype=np.uint64)
        rows = np.tile(np.arange(len(pairs)), keys.size)
        all_keys = np.repeat(keys, len(pairs))
        a, b = table[rows, 0], table[rows, 1]
        expected = _exact_hashes(all_keys.tolist(), a.tolist(), b.tolist())
        assert hash_keys(all_keys, a, b).tolist() == expected


class TestVectorisedSplitmix:
    def test_matches_scalar(self, random_keys):
        vectorised = splitmix64_array(random_keys)
        scalar = np.array([splitmix64(int(key)) for key in random_keys], dtype=np.uint64)
        assert np.array_equal(vectorised, scalar)


class TestVectorisedExtendKeys:
    def test_matches_scalar(self, random_keys):
        rng = np.random.default_rng(11)
        items = rng.integers(0, 10**6, size=random_keys.size)
        vectorised = extend_keys(random_keys, items)
        scalar = np.array(
            [extend_key(int(key), int(item)) for key, item in zip(random_keys, items)],
            dtype=np.uint64,
        )
        assert np.array_equal(vectorised, scalar)


class TestFlatExtensionValues:
    def test_flat_matches_per_path(self):
        hasher = PathHasher(5)
        paths = [(), (3,), (3, 9), (1, 2, 7)]
        items = [4, 5, 6]
        for level in range(3):
            flat_prefixes = np.array(
                [hasher.path_key(path) for path in paths for _item in items],
                dtype=np.uint64,
            )
            flat_items = np.array([item for _path in paths for item in items])
            flat = hasher.extension_values_flat(flat_prefixes, flat_items, level)
            reference = np.concatenate(
                [hasher.extension_values(path, items, level) for path in paths]
            )
            assert np.array_equal(flat, reference)

    def test_pairs_flat_returns_reusable_keys(self):
        hasher = PathHasher(5)
        prefixes = np.array([hasher.path_key(()), hasher.path_key((2,))], dtype=np.uint64)
        items = np.array([7, 8])
        keys, values = hasher.extension_pairs_flat(prefixes, items, 0)
        assert int(keys[0]) == hasher.path_key((7,))
        assert int(keys[1]) == hasher.path_key((2, 8))
        assert np.array_equal(values, hasher.extension_values_flat(prefixes, items, 0))

    def test_ensure_levels_idempotent(self):
        hasher = PathHasher(5)
        hasher.ensure_levels(6)
        before = hasher.extension_value((1,), 2, 5)
        hasher.ensure_levels(6)
        assert hasher.extension_value((1,), 2, 5) == before
