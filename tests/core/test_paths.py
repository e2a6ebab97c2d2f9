"""Tests for the recursive path (filter) generation engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.paths import PathGenerator, VectorBatch, default_max_depth
from repro.core.thresholds import AdversarialThreshold, ConstantThreshold
from repro.hashing.pairwise import PathHasher


def make_generator(
    probabilities: np.ndarray,
    num_vectors: int = 100,
    seed: int = 0,
    **kwargs,
) -> PathGenerator:
    defaults = dict(
        stop_product=1.0 / num_vectors,
        max_depth=default_max_depth(num_vectors, float(probabilities.max())),
    )
    defaults.update(kwargs)
    return PathGenerator(probabilities, PathHasher(seed), **defaults)


class TestDefaultMaxDepth:
    def test_small_dataset(self):
        assert default_max_depth(1, 0.5) == 2

    def test_grows_with_n(self):
        assert default_max_depth(10_000, 0.5) > default_max_depth(100, 0.5)

    def test_grows_with_probability(self):
        assert default_max_depth(1000, 0.9) > default_max_depth(1000, 0.1)

    def test_covers_stopping_rule(self):
        """A path of max_depth items at p_max has product below 1/n."""
        n, p_max = 5000, 0.4
        depth = default_max_depth(n, p_max)
        assert p_max ** (depth - 2) <= 1.0 / n


class TestValidation:
    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            PathGenerator(np.array([]), PathHasher(0), stop_product=0.1, max_depth=3)

    def test_invalid_stop_product(self):
        with pytest.raises(ValueError):
            PathGenerator(np.array([0.5]), PathHasher(0), stop_product=0.0, max_depth=3)

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            PathGenerator(np.array([0.5]), PathHasher(0), stop_product=0.1, max_depth=0)

    def test_invalid_max_paths(self):
        with pytest.raises(ValueError):
            PathGenerator(
                np.array([0.5]), PathHasher(0), stop_product=0.1, max_depth=3, max_paths=0
            )

    def test_out_of_universe_items_rejected(self):
        generator = make_generator(np.full(10, 0.2))
        with pytest.raises(ValueError):
            generator.generate([100], AdversarialThreshold(0.5).bind([100]))


class TestGeneration:
    def test_empty_vector_no_paths(self):
        generator = make_generator(np.full(10, 0.2))
        result = generator.generate([], AdversarialThreshold(0.5).bind([]))
        assert result.paths == []
        assert result.expansions == 0

    def test_paths_only_use_vector_items(self):
        probabilities = np.full(50, 0.2)
        generator = make_generator(probabilities, num_vectors=50)
        items = [1, 5, 9, 13, 17, 21, 25, 29]
        result = generator.generate(items, AdversarialThreshold(0.5).bind(items))
        for path in result.paths:
            assert set(path).issubset(set(items))

    def test_paths_have_no_repeated_items(self):
        """Sampling is without replacement: an item appears at most once per path."""
        probabilities = np.full(50, 0.3)
        generator = make_generator(probabilities, num_vectors=200)
        items = list(range(0, 50, 2))
        result = generator.generate(items, AdversarialThreshold(0.4).bind(items))
        for path in result.paths:
            assert len(path) == len(set(path))

    def test_stopping_rule_respected(self):
        """Every finished path has probability product at most 1/n, and the
        prefix without the last item has product above 1/n (minimality)."""
        num_vectors = 100
        probabilities = np.full(60, 0.25)
        items = list(range(30))
        all_paths = []
        for seed in range(8):
            generator = make_generator(probabilities, num_vectors=num_vectors, seed=seed)
            all_paths.extend(
                generator.generate(items, AdversarialThreshold(0.5).bind(items)).paths
            )
        assert all_paths, "expected at least one path across eight seeds"
        for path in all_paths:
            product = float(np.prod(probabilities[list(path)]))
            prefix_product = float(np.prod(probabilities[list(path[:-1])])) if len(path) > 1 else 1.0
            assert product <= 1.0 / num_vectors + 1e-12
            assert prefix_product > 1.0 / num_vectors

    def test_deterministic_for_fixed_seed(self):
        probabilities = np.full(40, 0.25)
        items = list(range(20))
        result_a = make_generator(probabilities, seed=3).generate(
            items, AdversarialThreshold(0.5).bind(items)
        )
        result_b = make_generator(probabilities, seed=3).generate(
            items, AdversarialThreshold(0.5).bind(items)
        )
        assert result_a.paths == result_b.paths

    def test_different_seeds_differ(self):
        probabilities = np.full(40, 0.25)
        items = list(range(20))
        result_a = make_generator(probabilities, seed=1).generate(
            items, AdversarialThreshold(0.5).bind(items)
        )
        result_b = make_generator(probabilities, seed=2).generate(
            items, AdversarialThreshold(0.5).bind(items)
        )
        assert result_a.paths != result_b.paths

    def test_rare_items_terminate_paths_quickly(self):
        """Paths through rare items stop after fewer steps than paths through
        frequent items — the mechanism by which the structure exploits skew."""
        num_vectors = 1000
        probabilities = np.concatenate([np.full(20, 0.45), np.full(20, 0.001)])
        generator = make_generator(probabilities, num_vectors=num_vectors, seed=5)
        items = list(range(40))
        result = generator.generate(items, AdversarialThreshold(0.6).bind(items))
        rare_lengths = [len(p) for p in result.paths if any(item >= 20 for item in p)]
        frequent_lengths = [len(p) for p in result.paths if all(item < 20 for item in p)]
        if rare_lengths and frequent_lengths:
            assert min(rare_lengths) < min(frequent_lengths)
            assert np.mean(rare_lengths) < np.mean(frequent_lengths)

    def test_max_paths_truncation_flag(self):
        probabilities = np.full(60, 0.45)
        generator = make_generator(
            probabilities, num_vectors=10_000, seed=1, max_paths=5
        )
        items = list(range(40))
        result = generator.generate(items, AdversarialThreshold(0.9).bind(items))
        assert result.truncated
        assert len(result.paths) <= 5 + len(items)

    def test_expansions_counted(self):
        probabilities = np.full(30, 0.3)
        generator = make_generator(probabilities, num_vectors=100)
        items = list(range(15))
        result = generator.generate(items, AdversarialThreshold(0.5).bind(items))
        assert result.expansions >= 1


class TestFixedDepthMode:
    """The Chosen Path baseline mode: no product rule, collect at fixed depth."""

    def test_all_paths_have_exact_depth(self):
        probabilities = np.full(40, 0.5)
        depth = 3
        generator = PathGenerator(
            probabilities,
            PathHasher(2),
            stop_product=None,
            max_depth=depth,
            collect_at_max_depth=True,
        )
        items = list(range(20))
        result = generator.generate(items, ConstantThreshold(0.5).bind(items))
        assert result.paths, "expected at least one surviving path"
        assert all(len(path) == depth for path in result.paths)

    def test_without_collection_no_paths_survive(self):
        probabilities = np.full(40, 0.5)
        generator = PathGenerator(
            probabilities,
            PathHasher(2),
            stop_product=None,
            max_depth=3,
            collect_at_max_depth=False,
        )
        items = list(range(20))
        result = generator.generate(items, ConstantThreshold(0.5).bind(items))
        assert result.paths == []


class TestSharedPaths:
    def test_common_items_can_share_paths(self):
        """Two vectors with identical items and the same hasher get identical paths."""
        probabilities = np.full(50, 0.25)
        hasher = PathHasher(7)
        generator = PathGenerator(
            probabilities, hasher, stop_product=1.0 / 200, max_depth=12
        )
        items = list(range(0, 30, 2))
        threshold = AdversarialThreshold(0.5)
        paths_a = generator.generate(items, threshold.bind(items)).paths
        paths_b = generator.generate(items, threshold.bind(items)).paths
        assert set(paths_a) == set(paths_b)

    def test_overlapping_vectors_share_some_paths(self):
        """Highly overlapping vectors share filters with noticeable probability."""
        probabilities = np.full(80, 0.2)
        hasher = PathHasher(11)
        generator = PathGenerator(
            probabilities, hasher, stop_product=1.0 / 300, max_depth=12
        )
        threshold = AdversarialThreshold(0.5)
        shared = 0
        for trial in range(20):
            trial_generator = PathGenerator(
                probabilities,
                PathHasher(100 + trial),
                stop_product=1.0 / 300,
                max_depth=12,
            )
            items_x = list(range(0, 40))
            items_q = list(range(0, 36)) + [60, 61, 62, 63]
            paths_x = set(trial_generator.generate(items_x, threshold.bind(items_x)).paths)
            paths_q = set(trial_generator.generate(items_q, threshold.bind(items_q)).paths)
            if paths_x & paths_q:
                shared += 1
        del generator, hasher
        assert shared >= 5, f"expected frequent filter collisions, got {shared}/20"

    def test_disjoint_vectors_share_nothing(self):
        probabilities = np.full(100, 0.2)
        generator = make_generator(probabilities, num_vectors=100, seed=13)
        threshold = AdversarialThreshold(0.5)
        items_x = list(range(0, 30))
        items_q = list(range(50, 80))
        paths_x = set(generator.generate(items_x, threshold.bind(items_x)).paths)
        paths_q = set(generator.generate(items_q, threshold.bind(items_q)).paths)
        assert not (paths_x & paths_q)


class TestExpectedFilterCount:
    def test_lemma6_scaling(self):
        """E|F(x)| stays near the n^rho prediction (coarse sanity check)."""
        num_vectors = 200
        probability = 0.2
        b1 = 0.5
        probabilities = np.full(120, probability)
        items = list(range(24))  # |x| = 24 ≈ expected size
        counts = []
        for seed in range(15):
            generator = make_generator(probabilities, num_vectors=num_vectors, seed=seed)
            counts.append(
                len(generator.generate(items, AdversarialThreshold(b1).bind(items)).paths)
            )
        mean_count = float(np.mean(counts))
        rho = math.log(b1) / math.log(probability)
        prediction = num_vectors**rho
        # Allow a generous constant factor in both directions.
        assert mean_count < 40.0 * prediction
        assert mean_count > 0.01 * prediction


class TestRepetitionOwnership:
    """One generator owns every repetition's hasher and the shared tables."""

    def make(self, repetitions=3):
        probabilities = np.linspace(0.05, 0.4, 30)
        return PathGenerator(
            probabilities,
            [PathHasher(seed) for seed in range(repetitions)],
            stop_product=1.0 / 100,
            max_depth=6,
        )

    def test_a_repetition_generates_like_its_own_single_hasher_generator(self):
        generator = self.make()
        items = list(range(0, 30, 2))
        bound = AdversarialThreshold(0.5).bind(items)
        for repetition in range(generator.repetitions):
            alone = PathGenerator(
                np.linspace(0.05, 0.4, 30), PathHasher(repetition), stop_product=0.01, max_depth=6
            )
            assert generator.generate(items, bound, repetition=repetition) == alone.generate(
                items, bound
            )

    def test_needs_a_hasher_and_known_repetitions(self):
        with pytest.raises(ValueError, match="hasher"):
            PathGenerator(np.full(4, 0.2), [], stop_product=0.1, max_depth=3)
        generator = self.make()
        vectors = VectorBatch.bind([{1, 2, 3}], AdversarialThreshold(0.5))
        with pytest.raises(ValueError, match="at least one repetition"):
            generator.generate_batch(vectors, repetitions=[])
        with pytest.raises(IndexError, match="out of range"):
            generator.generate_batch(vectors, repetitions=[0, 3])

    def test_ensure_hash_levels_leaves_nothing_to_build_lazily(self):
        """After ``ensure_hash_levels`` a generation pass must find every
        table it reads already built (nothing left to construct lazily)."""
        generator = self.make()
        generator.ensure_hash_levels()
        log_table = generator._log_probabilities
        coefficients = list(generator._coefficients)
        assert log_table is not None and len(coefficients) == generator.max_depth
        for column_a, column_b in coefficients:
            assert column_a.shape == column_b.shape == (generator.repetitions,)
            assert column_a.dtype == column_b.dtype == np.uint64
        vectors = VectorBatch.bind([set(range(12)), {3, 4}], AdversarialThreshold(0.5))
        generator.generate_batch(vectors)
        assert generator._log_probabilities is log_table
        assert all(
            now[0] is before[0] and now[1] is before[1]
            for now, before in zip(generator._coefficients, coefficients)
        )
        assert len(generator._coefficients) == generator.max_depth
