"""Integration tests that check the paper's headline claims end-to-end.

Each test corresponds to a specific claim in the paper (lemma, theorem or
worked example) and validates it either analytically (via the theory module)
or empirically (via the actual data structures on sampled data).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CorrelatedIndexConfig, PersistenceConfig
from repro.core.correlated_index import CorrelatedIndex
from repro.core.serialization import save_index
from repro.data.distributions import ItemDistribution
from repro.dist import load_routed_index, shard_router_of
from repro.similarity.measures import braun_blanquet
from repro.theory.bounds import correlated_pair_similarity_bounds
from repro.theory.rho import (
    balanced_correlated_rho,
    chosen_path_rho,
    solve_correlated_rho,
)


class TestLemma10:
    """Correlated pairs have similarity >= alpha/1.3; uncorrelated pairs stay
    below alpha/1.5 (with high probability, for large expected size)."""

    ALPHA = 0.6

    @pytest.fixture(scope="class")
    def distribution(self) -> ItemDistribution:
        # All p_i <= alpha/2 and expected size ~ 90 >> log n, per the lemma's
        # preconditions.
        return ItemDistribution(np.full(300, 0.3))

    def test_correlated_pairs_above_lower_bound(self, distribution):
        close_bound, _far_bound = correlated_pair_similarity_bounds(
            distribution.probabilities, self.ALPHA
        )
        rng = np.random.default_rng(0)
        violations = 0
        trials = 60
        for _ in range(trials):
            x = distribution.sample(rng)
            q = distribution.sample_correlated(x, self.ALPHA, rng)
            if braun_blanquet(x, q) < close_bound:
                violations += 1
        assert violations <= 3

    def test_uncorrelated_pairs_below_upper_bound(self, distribution):
        _close_bound, far_bound = correlated_pair_similarity_bounds(
            distribution.probabilities, self.ALPHA
        )
        rng = np.random.default_rng(1)
        violations = 0
        trials = 60
        for _ in range(trials):
            x = distribution.sample(rng)
            y = distribution.sample(rng)
            if braun_blanquet(x, y) > far_bound:
                violations += 1
        assert violations <= 3

    def test_separation_exists(self, distribution):
        close_bound, far_bound = correlated_pair_similarity_bounds(
            distribution.probabilities, self.ALPHA
        )
        assert far_bound < close_bound


class TestTheorem1Discussion:
    """'In the balanced case ... we recover the bounds of ChosenPath' and
    'for skew between these extremes we get strict improvements'."""

    def test_balanced_case_recovers_chosen_path(self):
        for p in (0.02, 0.1, 0.3):
            for alpha in (0.3, 0.6, 0.9):
                ours = solve_correlated_rho(np.full(800, p), alpha)
                chosen_path = balanced_correlated_rho(p, alpha)
                assert ours == pytest.approx(chosen_path, abs=1e-9)

    def test_skewed_case_strict_improvement(self):
        alpha = 2.0 / 3.0
        probabilities = np.concatenate([np.full(400, 0.3), np.full(400, 0.3 / 8.0)])
        ours = solve_correlated_rho(probabilities, alpha)
        expected_size = float(probabilities.sum())
        b2 = float(np.sum(probabilities**2)) / expected_size
        b1 = float(
            np.sum(probabilities**2 * (1 - alpha) + probabilities * alpha)
        ) / expected_size
        assert ours < chosen_path_rho(b1, b2) - 0.01

    def test_very_unbalanced_case_tiny_exponent(self):
        """Some p_i = Omega(1), some p_i = O(1/n), comparable masses: the
        exponent collapses towards 0 (prefix-filtering-like behaviour)."""
        n = 10**6
        frequent = np.full(100, 0.25)
        rare_count = 50_000
        rare_probability = 25.0 / rare_count  # comparable total mass, ~n^-0.9-ish per item
        probabilities = np.concatenate([frequent, np.full(rare_count, rare_probability)])
        rho = solve_correlated_rho(probabilities, 2.0 / 3.0)
        balanced = balanced_correlated_rho(0.25, 2.0 / 3.0)
        assert rho < 0.6 * balanced
        del n


class TestTheorem1EndToEnd:
    """The data structure returns the correlated vector with high probability
    while examining far fewer candidates than a linear scan — in process, and
    through the shard router's wave-fused probes (a refactor that dropped a
    repetition's probes there would fail the paper's claim, not only an
    equivalence suite)."""

    ALPHA = 0.7
    TRIALS = 40

    @pytest.fixture(scope="class")
    def planted(self, skewed_distribution):
        """``(index, dataset, queries)``: query ``t`` is correlated with vector ``t``."""
        rng = np.random.default_rng(3)
        dataset = [
            v if v else frozenset({0}) for v in skewed_distribution.sample_many(200, rng)
        ]
        index = CorrelatedIndex(
            skewed_distribution,
            config=CorrelatedIndexConfig(alpha=self.ALPHA, repetitions=6, seed=11),
        )
        index.build(dataset)
        queries = [
            skewed_distribution.sample_correlated(dataset[target], self.ALPHA, rng)
            for target in range(self.TRIALS)
        ]
        return index, dataset, queries

    def _assert_claim(self, index, dataset, results, work):
        hits = sum(result == target for target, result in enumerate(results))
        assert hits / self.TRIALS >= 0.8
        # Work far below repetitions * n (the trivial bound for scanning each
        # repetition's candidates without filtering).
        assert float(np.mean(work)) < 0.3 * len(dataset) * index.config.repetitions

    def test_recall_and_work(self, planted):
        index, dataset, queries = planted
        answers = [index.query(query) for query in queries]
        self._assert_claim(
            index,
            dataset,
            [result for result, _stats in answers],
            [stats.candidates_examined for _result, stats in answers],
        )

    @pytest.mark.parametrize("request_size", [1, 8])
    def test_recall_and_work_through_the_router(self, planted, tmp_path, request_size):
        index, dataset, queries = planted
        path = tmp_path / "index.v3"
        save_index(index, path, config=PersistenceConfig(shards=4))
        routed = load_routed_index(path, transport="inproc", shard_procs=2)
        try:
            results, work = [], []
            for start in range(0, self.TRIALS, request_size):
                matches, stats = routed.query_batch(queries[start : start + request_size])
                results += matches
                work += [entry.candidates_examined for entry in stats.per_query]
                # One wave per request: every repetition's probes, one fan-out.
                assert sum(stats.fanout.requests) <= 2
        finally:
            shard_router_of(routed).close()
        assert results == [index.query(query)[0] for query in queries]
        self._assert_claim(index, dataset, results, work)


class TestSpaceScaling:
    """Theorem 1/2: space is O(n^{1+rho}) filters — in particular the number
    of filters per vector should not explode as n grows moderately."""

    def test_filters_per_vector_growth_is_mild(self, skewed_distribution):
        rng = np.random.default_rng(5)
        per_vector = {}
        for n in (50, 200):
            dataset = [
                v if v else frozenset({0}) for v in skewed_distribution.sample_many(n, rng)
            ]
            index = CorrelatedIndex(
                skewed_distribution,
                config=CorrelatedIndexConfig(alpha=0.7, repetitions=3, seed=13),
            )
            stats = index.build(dataset)
            per_vector[n] = stats.filters_per_vector
        growth = per_vector[200] / max(per_vector[50], 1e-9)
        # n grew by 4x; with rho well below 1 the per-vector filter count
        # grows sublinearly in n (the constant-factor slack absorbs the small-n
        # effects of the delta boost and the 1/n stopping product).
        assert growth < 6.0
