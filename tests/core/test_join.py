"""Tests for similarity join built on repeated search queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceIndex
from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.engine import FilterEngine
from repro.core.join import JoinResult, similarity_join, similarity_self_join
from repro.core.serialization import load_index, save_index
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.core.thresholds import AdversarialThreshold
from repro.similarity.measures import braun_blanquet
from repro.similarity.predicates import SimilarityPredicate


@pytest.fixture(scope="module")
def join_data(skewed_distribution):
    """A dataset with planted near-duplicates plus probe sets overlapping them."""
    rng = np.random.default_rng(7)
    base = skewed_distribution.sample_many(60, rng)
    base = [v if v else frozenset({0}) for v in base]
    probes = []
    for index in range(20):
        stored = sorted(base[index])
        keep = max(1, int(0.9 * len(stored)))
        probes.append(frozenset(rng.choice(stored, size=keep, replace=False).tolist()))
    return base, probes


def build_index(distribution, dataset, b1=0.5, seed=11):
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=b1, repetitions=6, seed=seed)
    )
    index.build(dataset)
    return index


class TestSimilarityJoin:
    def test_pairs_meet_predicate(self, skewed_distribution, join_data):
        dataset, probes = join_data
        index = build_index(skewed_distribution, dataset)
        predicate = SimilarityPredicate("braun_blanquet", 0.5)
        result = similarity_join(index, probes, predicate)
        for probe_index, candidate_id, similarity in result.pairs:
            recomputed = braun_blanquet(dataset[candidate_id], probes[probe_index])
            assert recomputed == pytest.approx(similarity)
            assert similarity >= 0.5

    def test_recall_against_brute_force(self, skewed_distribution, join_data):
        dataset, probes = join_data
        predicate = SimilarityPredicate("braun_blanquet", 0.5)
        index = build_index(skewed_distribution, dataset)
        approximate = similarity_join(index, probes, predicate).pair_set()

        brute = BruteForceIndex(predicate)
        brute.build(dataset)
        exact = similarity_join(brute, probes, predicate).pair_set()

        assert approximate.issubset(exact)
        if exact:
            recall = len(approximate & exact) / len(exact)
            assert recall >= 0.8

    def test_counts_populated(self, skewed_distribution, join_data):
        dataset, probes = join_data
        index = build_index(skewed_distribution, dataset)
        result = similarity_join(index, probes, SimilarityPredicate("braun_blanquet", 0.5))
        assert result.num_probes == len(probes)
        assert result.similarity_evaluations <= result.candidates_examined + len(probes)

    def test_empty_probe_skipped(self, skewed_distribution, join_data):
        dataset, _probes = join_data
        index = build_index(skewed_distribution, dataset)
        result = similarity_join(index, [frozenset()], SimilarityPredicate("braun_blanquet", 0.5))
        assert result.num_pairs == 0
        assert result.num_probes == 1


class _NoBatchIndex:
    """Wraps an index exposing only the single-probe candidate surface, to
    force :func:`similarity_join` onto its per-probe fallback branch."""

    def __init__(self, inner):
        self._inner = inner

    def query_candidates(self, query):
        return self._inner.query_candidates(query)

    def get_vector(self, vector_id):
        return self._inner.get_vector(vector_id)


class TestJoinFallback:
    def test_fallback_matches_batched_path(self, skewed_distribution, join_data):
        """The per-probe fallback (indexes without query_candidates_batch)
        must report exactly the pairs the batched consumer reports."""
        dataset, probes = join_data
        index = build_index(skewed_distribution, dataset)
        predicate = SimilarityPredicate("braun_blanquet", 0.5)
        batched = similarity_join(index, probes, predicate)
        fallback = similarity_join(_NoBatchIndex(index), probes, predicate)
        assert fallback.pair_set() == batched.pair_set()
        assert fallback.num_probes == batched.num_probes
        assert fallback.candidates_examined == batched.candidates_examined

    def test_fallback_scores_match(self, skewed_distribution, join_data):
        dataset, probes = join_data
        index = build_index(skewed_distribution, dataset)
        predicate = SimilarityPredicate("braun_blanquet", 0.5)
        batched = {
            (r, s): sim for r, s, sim in similarity_join(index, probes, predicate).pairs
        }
        fallback = {
            (r, s): sim
            for r, s, sim in similarity_join(_NoBatchIndex(index), probes, predicate).pairs
        }
        assert fallback == batched

    def test_fallback_skips_empty_probes(self, skewed_distribution, join_data):
        dataset, _probes = join_data
        index = build_index(skewed_distribution, dataset)
        result = similarity_join(
            _NoBatchIndex(index), [frozenset()], SimilarityPredicate("braun_blanquet", 0.5)
        )
        assert result.num_pairs == 0
        assert result.num_probes == 1

    def test_fallback_respects_tombstones(self, skewed_distribution, join_data):
        dataset, probes = join_data
        index = build_index(skewed_distribution, dataset)
        removed = {0, 1, 2}
        for vector_id in removed:
            index.remove(vector_id)
        result = similarity_join(
            _NoBatchIndex(index), probes, SimilarityPredicate("braun_blanquet", 0.5)
        )
        assert removed.isdisjoint(s for _r, s, _sim in result.pairs)


class TestSelfJoin:
    def test_pairs_are_canonical_and_unique(self, skewed_distribution, join_data):
        dataset, _probes = join_data
        index = build_index(skewed_distribution, dataset, b1=0.4)
        result = similarity_self_join(index, dataset, SimilarityPredicate("braun_blanquet", 0.4))
        seen = set()
        for low, high, _similarity in result.pairs:
            assert low < high
            assert (low, high) not in seen
            seen.add((low, high))

    def test_self_pairs_excluded_by_default(self, skewed_distribution, join_data):
        dataset, _probes = join_data
        index = build_index(skewed_distribution, dataset, b1=0.4)
        result = similarity_self_join(index, dataset, SimilarityPredicate("braun_blanquet", 0.4))
        assert all(low != high for low, high, _ in result.pairs)

    def test_self_pairs_included_when_requested(self, skewed_distribution, join_data):
        dataset, _probes = join_data
        index = build_index(skewed_distribution, dataset, b1=0.4)
        result = similarity_self_join(
            index, dataset, SimilarityPredicate("braun_blanquet", 0.4), include_self_pairs=True
        )
        assert any(low == high for low, high, _ in result.pairs)

    def test_finds_planted_duplicates(self, skewed_distribution):
        """Exact duplicates must be reported by the self-join."""
        rng = np.random.default_rng(3)
        base = skewed_distribution.sample_many(40, rng)
        base = [v if v else frozenset({0}) for v in base]
        dataset = base + [base[0], base[1]]  # two exact duplicates appended
        index = build_index(skewed_distribution, dataset, b1=0.8)
        result = similarity_self_join(index, dataset, SimilarityPredicate("braun_blanquet", 0.8))
        reported = result.pair_set()
        assert (0, len(base)) in reported
        assert (1, len(base) + 1) in reported


@pytest.fixture(scope="module")
def ram_and_mmap(skewed_distribution, join_data, tmp_path_factory):
    """The same index (with tombstones) served from RAM and from mmap."""
    dataset, _probes = join_data
    index = build_index(skewed_distribution, dataset, b1=0.3)
    for vector_id in (4, 9):
        index.remove(vector_id)
    path = tmp_path_factory.mktemp("join-measures") / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=2))
    return {"ram": index, "mmap": load_index(path, mode="mmap")}


@pytest.mark.parametrize("measure", ["braun_blanquet", "jaccard", "dice", "overlap", "cosine"])
def test_join_scores_are_the_measure_bit_for_bit(
    skewed_distribution, join_data, ram_and_mmap, measure
):
    """Exactly the pairs, in order, and the float scores ``==`` the scalar measure."""
    dataset, probes = join_data
    rng = np.random.default_rng(31)
    extra = [frozenset(s) for s in skewed_distribution.sample_many(15, rng)]
    probes = probes + extra + [frozenset(), probes[0]]
    predicate = SimilarityPredicate(measure, 0.3)
    for store, index in ram_and_mmap.items():
        candidate_lists, _stats = index.query_candidates_arrays_batch(probes)
        expected = []
        evaluations = 0
        for probe_index, (probe, candidates) in enumerate(zip(probes, candidate_lists)):
            for candidate_id in candidates.tolist():
                similarity = predicate.similarity(index.get_vector(candidate_id), probe)
                evaluations += 1
                if similarity >= predicate.threshold:
                    expected.append((probe_index, candidate_id, similarity))
        for batch_size in (None, 7):
            result = similarity_join(index, probes, predicate, batch_size=batch_size)
            assert result.pairs == expected, (store, batch_size)
            assert all(type(score) is float for _r, _s, score in result.pairs)
            assert result.similarity_evaluations == evaluations
        assert expected, store  # the threshold is low enough to report pairs


def test_engine_with_custom_similarity_verifies_pair_by_pair(skewed_distribution, join_data):
    """A similarity with no count form is called once per verified pair.

    In ``"first"`` mode a chunk verifies a hit's whole repetition while the
    stats stop at the hit (the paper's as-if work), so the calls can
    outnumber ``similarity_evaluations``; each entry is the lone query's.
    """
    dataset, probes = join_data
    calls = []

    def containment(stored, query):
        calls.append(1)
        return len(stored & query) / len(query)

    class _ContainmentIndex(SkewAdaptiveIndex):
        def _create_engine(self, num_vectors):
            return FilterEngine(
                probabilities=self._distribution.probabilities,
                threshold_policy=AdversarialThreshold(0.5),
                acceptance_threshold=0.5,
                num_vectors_hint=num_vectors,
                repetitions=6,
                similarity=containment,
                seed=11,
            )

    index = _ContainmentIndex(
        skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=6, seed=11)
    )
    index.build(dataset)
    for mode in ("first", "best"):
        calls.clear()
        results, stats = index.query_batch(probes, mode=mode)
        evaluations = sum(entry.similarity_evaluations for entry in stats.per_query)
        if mode == "best":
            assert len(calls) == evaluations
        else:
            assert len(calls) >= evaluations
        lone = [index.query(probe, mode=mode) for probe in probes]
        assert results == [result for result, _stats in lone]
        for entry, (_result, lone_stats) in zip(stats.per_query, lone):
            lone_stats.kernel = entry.kernel
            assert entry == lone_stats
        assert any(result is not None for result in results)
        for probe, result in zip(probes, results):
            if result is not None:
                assert containment(dataset[result], probe) >= 0.5
    # The join verifies against its predicate, not the engine's similarity.
    predicate = SimilarityPredicate("jaccard", 0.3)
    reference = similarity_join(_NoBatchIndex(index), probes, predicate)
    assert similarity_join(index, probes, predicate).pairs == sorted(reference.pairs)


def _self_join_reference(pairs, include_self_pairs):
    """The pair-at-a-time dedupe: first appearance of each unordered pair."""
    seen = set()
    deduplicated = []
    for probe_index, candidate_id, similarity in pairs:
        if probe_index == candidate_id and not include_self_pairs:
            continue
        key = (min(probe_index, candidate_id), max(probe_index, candidate_id))
        if key not in seen:
            seen.add(key)
            deduplicated.append((*key, similarity))
    return deduplicated


@pytest.mark.parametrize("include_self_pairs", [False, True])
def test_self_join_dedupe_equals_the_pair_loop(
    skewed_distribution, join_data, include_self_pairs
):
    dataset, _probes = join_data
    index = build_index(skewed_distribution, dataset, b1=0.3)
    predicate = SimilarityPredicate("braun_blanquet", 0.3)
    raw = similarity_join(index, dataset, predicate)
    result = similarity_self_join(
        index, dataset, predicate, include_self_pairs=include_self_pairs
    )
    assert result.pairs == _self_join_reference(raw.pairs, include_self_pairs)
    assert len(result.pairs) < len(raw.pairs)
    assert result.similarity_evaluations == raw.similarity_evaluations


class TestJoinResult:
    def test_pair_set(self):
        result = JoinResult(pairs=[(1, 2, 0.9), (3, 4, 0.8)])
        assert result.pair_set() == {(1, 2), (3, 4)}
        assert result.num_pairs == 2

    def test_empty(self):
        result = JoinResult()
        assert result.num_pairs == 0
        assert result.pair_set() == set()
