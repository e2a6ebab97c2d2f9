"""Tests for the SetCollection container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import SetCollection
from repro.data.distributions import ItemDistribution


class TestConstruction:
    def test_infers_dimension(self):
        collection = SetCollection([{1, 5}, {9}])
        assert collection.dimension == 10

    def test_explicit_dimension(self):
        collection = SetCollection([{1}], dimension=100)
        assert collection.dimension == 100

    def test_dimension_too_small_rejected(self):
        with pytest.raises(ValueError):
            SetCollection([{10}], dimension=5)

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            SetCollection([{-1}])

    def test_empty_collection(self):
        collection = SetCollection([])
        assert len(collection) == 0
        assert collection.dimension == 0

    def test_iteration_and_indexing(self):
        collection = SetCollection([{1}, {2, 3}])
        assert collection[1] == frozenset({2, 3})
        assert list(collection) == [frozenset({1}), frozenset({2, 3})]

    def test_equality(self):
        assert SetCollection([{1}], dimension=5) == SetCollection([{1}], dimension=5)
        assert SetCollection([{1}], dimension=5) != SetCollection([{1}], dimension=6)


class TestStatistics:
    def test_sizes(self):
        collection = SetCollection([{1, 2}, {3}, set()])
        assert collection.sizes().tolist() == [2, 1, 0]

    def test_average_size(self):
        collection = SetCollection([{1, 2}, {3, 4, 5, 6}])
        assert collection.average_size() == 3.0

    def test_average_size_empty(self):
        assert SetCollection([]).average_size() == 0.0

    def test_item_counts(self):
        collection = SetCollection([{0, 1}, {1}, {1, 2}])
        assert collection.item_counts().tolist() == [1, 3, 1]

    def test_item_frequencies(self):
        collection = SetCollection([{0}, {0, 1}])
        assert np.allclose(collection.item_frequencies(), [1.0, 0.5])

    def test_frequencies_cached_and_readonly(self):
        collection = SetCollection([{0}])
        first = collection.item_frequencies()
        assert collection.item_frequencies() is first
        with pytest.raises(ValueError):
            first[0] = 0.3

    def test_empirical_distribution(self):
        collection = SetCollection([{0}, {0, 1}])
        distribution = collection.empirical_distribution()
        assert isinstance(distribution, ItemDistribution)
        assert np.allclose(distribution.probabilities, [1.0, 0.5])


class TestTransformations:
    def test_subset(self):
        collection = SetCollection([{1}, {2}, {3}])
        subset = collection.subset([0, 2])
        assert list(subset) == [frozenset({1}), frozenset({3})]
        assert subset.dimension == collection.dimension

    def test_remap_by_frequency_descending(self):
        collection = SetCollection([{5}, {5}, {5, 2}, {2}, {9}])
        remapped, permutation = collection.remap_by_frequency(descending=True)
        # Item 5 (3 occurrences) becomes item 0, item 2 (2 occurrences) item 1.
        assert permutation[5] == 0
        assert permutation[2] == 1
        assert remapped.item_counts()[0] == 3

    def test_remap_preserves_set_sizes(self):
        collection = SetCollection([{1, 4, 7}, {2, 4}])
        remapped, _permutation = collection.remap_by_frequency()
        assert sorted(len(s) for s in remapped) == sorted(len(s) for s in collection)

    def test_concatenate(self):
        a = SetCollection([{1}], dimension=5)
        b = SetCollection([{7}], dimension=10)
        combined = a.concatenate(b)
        assert len(combined) == 2
        assert combined.dimension == 10

    def test_from_distribution(self):
        distribution = ItemDistribution(np.full(20, 0.3))
        collection = SetCollection.from_distribution(distribution, count=15, seed=0)
        assert collection.dimension == 20
        assert 0 < len(collection) <= 15
