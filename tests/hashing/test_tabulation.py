"""Tests for tabulation hashing."""

from __future__ import annotations

import numpy as np

from repro.hashing.tabulation import TabulationHash


class TestTabulationHash:
    def test_deterministic(self):
        hasher = TabulationHash(0)
        assert hasher.hash_int(123) == hasher.hash_int(123)

    def test_seed_changes_function(self):
        values_a = [TabulationHash(1).hash_int(key) for key in range(10)]
        values_b = [TabulationHash(2).hash_int(key) for key in range(10)]
        assert values_a != values_b

    def test_range_64_bits(self):
        hasher = TabulationHash(0)
        for key in [0, 1, 255, 256, 2**31, 2**32 - 1]:
            assert 0 <= hasher.hash_int(key) < 2**64

    def test_keys_reduced_mod_2_32(self):
        hasher = TabulationHash(0)
        assert hasher.hash_int(5) == hasher.hash_int(5 + 2**32)

    def test_unit_interval(self):
        hasher = TabulationHash(3)
        values = [hasher.hash_int(key) / 2**64 for key in range(200)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert 0.4 < float(np.mean(values)) < 0.6

    def test_hash_array_matches_scalar(self):
        hasher = TabulationHash(5)
        keys = np.arange(100, dtype=np.uint64)
        array_values = hasher.hash_array(keys)
        scalar_values = np.asarray([hasher.hash_int(int(key)) for key in keys], dtype=np.uint64)
        assert np.array_equal(array_values, scalar_values)

    def test_few_collisions_on_small_universe(self):
        hasher = TabulationHash(9)
        values = hasher.hash_array(np.arange(5000, dtype=np.uint64))
        assert len(np.unique(values)) == 5000

    def test_callable(self):
        hasher = TabulationHash(1)
        assert hasher(77) == hasher.hash_int(77)
