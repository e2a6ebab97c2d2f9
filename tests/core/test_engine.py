"""Tests for the shared locality-sensitive filtering engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import FilterEngine, default_repetitions
from repro.core.thresholds import AdversarialThreshold
from repro.similarity.measures import braun_blanquet


def make_engine(probabilities: np.ndarray, num_vectors: int, **kwargs) -> FilterEngine:
    defaults = dict(
        threshold_policy=AdversarialThreshold(0.5),
        acceptance_threshold=0.5,
        num_vectors_hint=num_vectors,
        repetitions=4,
        seed=0,
    )
    defaults.update(kwargs)
    return FilterEngine(probabilities, **defaults)


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(42)
    probabilities = np.full(120, 0.15)
    mask = rng.random((80, 120)) < probabilities
    return probabilities, [frozenset(np.flatnonzero(row).tolist()) for row in mask]


class TestDefaultRepetitions:
    def test_small(self):
        assert default_repetitions(1) == 1

    def test_logarithmic_growth(self):
        assert default_repetitions(1024) == 11

    def test_monotone(self):
        assert default_repetitions(10_000) >= default_repetitions(100)


class TestConstruction:
    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            make_engine(np.array([]), 10)

    def test_invalid_acceptance_threshold(self):
        with pytest.raises(ValueError):
            make_engine(np.full(5, 0.2), 10, acceptance_threshold=1.5)

    def test_invalid_num_vectors_hint(self):
        with pytest.raises(ValueError):
            make_engine(np.full(5, 0.2), 0)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            make_engine(np.full(5, 0.2), 10, repetitions=0)

    def test_invalid_query_mode(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        with pytest.raises(ValueError):
            engine.query(dataset[0], mode="weird")


class TestBuild:
    def test_build_stats(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        stats = engine.build(dataset)
        assert stats.num_vectors == len(dataset)
        assert stats.repetitions == 4
        assert stats.total_filters > 0
        assert engine.total_stored_filters == stats.total_filters

    def test_rebuild_replaces_data(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        engine.build(dataset[:10])
        assert len(engine.vectors) == 10

    def test_empty_vectors_skipped(self, small_dataset):
        probabilities, _dataset = small_dataset
        engine = make_engine(probabilities, 10)
        stats = engine.build([frozenset(), frozenset({1, 2, 3})])
        assert stats.num_vectors == 2
        assert stats.total_filters >= 0


class TestQuery:
    def test_self_query_finds_self(self, small_dataset):
        """Querying with a stored vector should find a vector at similarity 1."""
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset), repetitions=6)
        engine.build(dataset)
        found = 0
        for index in range(0, 30):
            result, _stats = engine.query(dataset[index])
            if result is not None and braun_blanquet(dataset[result], dataset[index]) >= 0.5:
                found += 1
        assert found >= 27  # near-perfect self-recall

    def test_query_empty_set(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        result, stats = engine.query(frozenset())
        assert result is None
        assert stats.total_work == 0

    def test_query_before_build(self, small_dataset):
        probabilities, _dataset = small_dataset
        engine = make_engine(probabilities, 10)
        result, _stats = engine.query(frozenset({1, 2}))
        assert result is None

    def test_returned_vector_meets_threshold(self, small_dataset):
        """Anything returned must actually satisfy the acceptance threshold."""
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset), repetitions=6)
        engine.build(dataset)
        for index in range(20):
            result, _stats = engine.query(dataset[index])
            if result is not None:
                assert braun_blanquet(dataset[result], dataset[index]) >= 0.5

    def test_best_mode_returns_most_similar(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset), repetitions=6)
        engine.build(dataset)
        result, _stats = engine.query(dataset[5], mode="best")
        assert result is not None
        assert braun_blanquet(dataset[result], dataset[5]) == 1.0

    def test_first_mode_no_more_work_than_best(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset), repetitions=6)
        engine.build(dataset)
        _result_first, stats_first = engine.query(dataset[3], mode="first")
        _result_best, stats_best = engine.query(dataset[3], mode="best")
        assert stats_first.candidates_examined <= stats_best.candidates_examined

    def test_dissimilar_query_returns_none(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        # A query over items that no dataset vector can cover densely.
        query = frozenset(range(115, 120))
        result, _stats = engine.query(query)
        if result is not None:
            assert braun_blanquet(dataset[result], query) >= 0.5

    def test_query_stats_populated(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        _result, stats = engine.query(dataset[0])
        assert stats.repetitions_used >= 1
        assert stats.filters_generated >= 0
        assert stats.unique_candidates <= stats.candidates_examined


def _probe_crafted_chunk(engine, filters):
    """Repetition 0's chunk probe over hand-made filters: streams and counters."""
    from repro.core.engine import _WaveProbes
    from repro.core.stats import BatchQueryStats, QueryStats

    class CraftedWaves:
        """Stands in for the generator: one wave of one repetition."""

        seconds = 0.0
        end = 1

        def filters(self, repetition, live):
            return filters

    live = list(range(len(filters)))
    chunk_stats = BatchQueryStats(per_query=[QueryStats() for _ in live])
    probes = _WaveProbes(engine, CraftedWaves(), exhaustive=False)
    occurrence_ids, occurrence_labels = probes.chunk(0, live, chunk_stats)
    streams = [occurrence_ids[occurrence_labels == k].tolist() for k in live]
    return streams, chunk_stats


class TestChunkProbeDedupe:
    def test_chunk_probe_dedupe_is_collision_free(self, small_dataset):
        """Batched probe deduplication must be by *path*: two queries whose
        distinct filters share a forced 64-bit key must not see each other's
        postings (regression test for a key-only dedupe)."""
        from repro.core.inverted_index import InvertedFilterIndex
        from repro.core.paths import FilterBatch, PathGenerationResult

        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset[:4])
        inverted = InvertedFilterIndex()
        inverted.add(0, [(1, 2)], keys=[777])
        inverted.compact()
        filters = FilterBatch.from_results(
            [
                PathGenerationResult(paths=[(1, 2)], truncated=False, expansions=1, keys=[777]),
                PathGenerationResult(paths=[(3, 4)], truncated=False, expansions=1, keys=[777]),
            ]
        )
        engine._indexes[0] = inverted
        (first, second), chunk_stats = _probe_crafted_chunk(engine, filters)
        assert first == [0]
        assert second == []  # colliding key, different path: no foreign postings
        assert chunk_stats.distinct_filter_probes == 2
        assert chunk_stats.duplicate_filter_probes == 0


    @pytest.mark.parametrize("mode", ["ram", "mmap", "inproc"])
    def test_key_dedupe_splits_colliding_paths_on_every_store(self, mode, tmp_path):
        """The chunk dedupe groups probes by 64-bit key; distinct paths forced
        onto one key inside a chunk must still be probed separately and never
        share postings — in RAM, over mmap shards and through the router."""
        from repro import SkewAdaptiveIndex, load_index, save_index
        from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
        from repro.core.inverted_index import InvertedFilterIndex
        from repro.core.paths import FilterBatch, PathGenerationResult
        from repro.data.distributions import ItemDistribution
        from repro.dist import load_routed_index, shard_router_of
        from repro.hashing.pairwise import fold_path

        index = SkewAdaptiveIndex(
            ItemDistribution(np.full(12, 0.2)),
            config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=1, seed=0),
        )
        index.build([frozenset({1, 2}), frozenset({3, 4}), frozenset({5})])
        crafted = InvertedFilterIndex()
        crafted.add(0, [(1, 2)], keys=[777])
        crafted.add(1, [(3, 4)], keys=[777])
        crafted.add(2, [(5,)])
        index._engine._indexes[0] = crafted
        router = None
        if mode != "ram":
            save_index(index, tmp_path / "idx", config=PersistenceConfig(shards=2))
            if mode == "mmap":
                index = load_index(tmp_path / "idx", mode="mmap")
            else:
                index = load_routed_index(tmp_path / "idx", transport="inproc", shard_procs=2)
                router = shard_router_of(index)
        engine = index._engine

        def generation(paths, keys):
            return PathGenerationResult(paths=paths, truncated=False, expansions=1, keys=keys)

        filters = FilterBatch.from_results(
            [
                generation([(1, 2), (5,)], [777, fold_path((5,))]),
                generation([(3, 4), (1, 2)], [777, 777]),
                generation([(9, 9)], [777]),
            ]
        )
        try:
            streams, chunk_stats = _probe_crafted_chunk(engine, filters)
        finally:
            if router is not None:
                router.close()
        assert streams == [[0, 2], [1, 0], []]
        assert chunk_stats.distinct_filter_probes == 4
        assert chunk_stats.duplicate_filter_probes == 1
        expected_shards = [1, 1, 1] if mode == "ram" else [2, 1, 1]
        assert [entry.shards_probed for entry in chunk_stats.per_query] == expected_shards


class TestQueryFiltersAndCandidates:
    def test_query_filters_deterministic(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        assert engine.query_filters(dataset[0], 0) == engine.query_filters(dataset[0], 0)

    def test_query_candidates_superset_of_query_result(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset), repetitions=6)
        engine.build(dataset)
        result, _stats = engine.query(dataset[7])
        candidates, _cstats = engine.query_candidates(dataset[7])
        if result is not None:
            assert result in candidates

    def test_query_candidates_empty_query(self, small_dataset):
        probabilities, dataset = small_dataset
        engine = make_engine(probabilities, len(dataset))
        engine.build(dataset)
        candidates, stats = engine.query_candidates(frozenset())
        assert candidates == set()
        assert stats.unique_candidates == 0
