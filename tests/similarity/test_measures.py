"""Tests for the binary similarity measures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.similarity.measures import (
    FROM_COUNTS,
    braun_blanquet,
    cosine,
    dice,
    hamming_distance,
    intersection_size,
    jaccard,
    overlap_coefficient,
    pearson_binary,
    similarity_matrix,
    weight_histogram,
)


class TestIntersectionSize:
    def test_disjoint(self):
        assert intersection_size({1, 2}, {3, 4}) == 0

    def test_identical(self):
        assert intersection_size({1, 2, 3}, {1, 2, 3}) == 3

    def test_partial(self):
        assert intersection_size({1, 2, 3}, {2, 3, 4}) == 2

    def test_accepts_lists(self):
        assert intersection_size([1, 2, 2, 3], [3, 2]) == 2

    def test_empty(self):
        assert intersection_size(set(), {1}) == 0


class TestBraunBlanquet:
    def test_identical_sets(self):
        assert braun_blanquet({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert braun_blanquet({1}, {2}) == 0.0

    def test_uses_max_size(self):
        # |x ∩ q| = 2, max size = 4.
        assert braun_blanquet({1, 2}, {1, 2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert braun_blanquet(set(), set()) == 0.0

    def test_symmetric(self):
        x, q = {1, 2, 5}, {2, 5, 9, 11}
        assert braun_blanquet(x, q) == braun_blanquet(q, x)

    def test_at_most_overlap_coefficient(self):
        x, q = {1, 2, 5}, {2, 5, 9, 11}
        assert braun_blanquet(x, q) <= overlap_coefficient(x, q)


class TestJaccard:
    def test_identical(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard({1}, {2}) == 0.0

    def test_known_value(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(2.0 / 4.0)

    def test_empty(self):
        assert jaccard(set(), set()) == 0.0

    def test_jaccard_below_braun_blanquet(self):
        x, q = {1, 2, 3, 4}, {3, 4, 5, 6}
        assert jaccard(x, q) <= braun_blanquet(x, q)


class TestDiceOverlapCosine:
    def test_dice_known_value(self):
        assert dice({1, 2, 3}, {2, 3, 4}) == pytest.approx(4.0 / 6.0)

    def test_dice_empty(self):
        assert dice(set(), set()) == 0.0

    def test_overlap_known_value(self):
        assert overlap_coefficient({1, 2}, {1, 2, 3, 4}) == 1.0

    def test_overlap_empty(self):
        assert overlap_coefficient(set(), {1}) == 0.0

    def test_cosine_known_value(self):
        assert cosine({1, 2}, {2, 3, 4, 5}) == pytest.approx(1.0 / math.sqrt(8.0))

    def test_cosine_empty(self):
        assert cosine(set(), {1}) == 0.0

    def test_measure_ordering(self):
        """For any pair: jaccard <= dice and braun_blanquet <= cosine <= overlap."""
        x, q = {1, 2, 3, 7}, {2, 3, 9}
        assert jaccard(x, q) <= dice(x, q)
        assert braun_blanquet(x, q) <= cosine(x, q) <= overlap_coefficient(x, q)


@pytest.mark.parametrize("measure", list(FROM_COUNTS), ids=lambda f: f.__name__)
def test_count_form_equals_the_scalar_measure(measure):
    """Bit for bit on every (|x ∩ q|, |x|, |q|) up to 16, empty sets included."""
    shapes = [
        (common, size_x, size_q)
        for size_x in range(17)
        for size_q in range(17)
        for common in range(min(size_x, size_q) + 1)
    ]
    # x = {0 .. size_x - 1}; q starts ``common`` items before x ends.
    expected = []
    for common, size_x, size_q in shapes:
        start = size_x - common
        expected.append(measure(frozenset(range(size_x)), frozenset(range(start, start + size_q))))
    common, size_x, size_q = (np.asarray(column, dtype=np.int64) for column in zip(*shapes))
    assert FROM_COUNTS[measure](common, size_x, size_q).tolist() == expected


class TestHamming:
    def test_identical(self):
        assert hamming_distance({1, 2}, {1, 2}) == 0

    def test_disjoint(self):
        assert hamming_distance({1, 2}, {3}) == 3

    def test_symmetric_difference(self):
        assert hamming_distance({1, 2, 3}, {3, 4}) == 3


class TestPearsonBinary:
    def test_identical_vectors_positive(self):
        assert pearson_binary({1, 2, 3}, {1, 2, 3}, dimension=10) == pytest.approx(1.0)

    def test_disjoint_vectors_negative(self):
        assert pearson_binary({0, 1}, {2, 3}, dimension=4) < 0.0

    def test_empty_vector_zero(self):
        assert pearson_binary(set(), {1}, dimension=5) == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            pearson_binary({1}, {2}, dimension=0)

    def test_index_outside_dimension(self):
        with pytest.raises(ValueError):
            pearson_binary({10}, {1}, dimension=5)

    def test_symmetric(self):
        assert pearson_binary({1, 3}, {3, 4}, 20) == pytest.approx(
            pearson_binary({3, 4}, {1, 3}, 20)
        )

    def test_matches_numpy_corrcoef(self):
        dimension = 50
        x = {1, 5, 9, 20, 33}
        q = {5, 9, 21, 33, 40, 41}
        dense_x = np.zeros(dimension)
        dense_q = np.zeros(dimension)
        dense_x[list(x)] = 1.0
        dense_q[list(q)] = 1.0
        expected = float(np.corrcoef(dense_x, dense_q)[0, 1])
        assert pearson_binary(x, q, dimension) == pytest.approx(expected)


class TestSimilarityMatrix:
    def test_shape_self(self):
        sets = [{1, 2}, {2, 3}, {4}]
        assert similarity_matrix(sets).shape == (3, 3)

    def test_diagonal_is_one(self):
        sets = [{1, 2}, {2, 3, 4}]
        matrix = similarity_matrix(sets)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_asymmetric_shapes(self):
        matrix = similarity_matrix([{1}, {2}], queries=[{1}, {2}, {3}])
        assert matrix.shape == (2, 3)

    def test_measure_selection(self):
        sets = [{1, 2, 3}, {2, 3, 4}]
        bb = similarity_matrix(sets, measure="braun_blanquet")[0, 1]
        jac = similarity_matrix(sets, measure="jaccard")[0, 1]
        assert bb == pytest.approx(2.0 / 3.0)
        assert jac == pytest.approx(0.5)

    def test_unknown_measure(self):
        with pytest.raises(KeyError):
            similarity_matrix([{1}], measure="nope")


class TestWeightHistogram:
    def test_counts_sizes(self):
        histogram = weight_histogram([{1}, {1, 2}, {3, 4}, set()])
        assert histogram == {1: 1, 2: 2, 0: 1}

    def test_empty_collection(self):
        assert weight_histogram([]) == {}
