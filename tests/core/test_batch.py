"""Tests for the batched query subsystem.

The central contract: ``query_batch`` / ``query_candidates_batch`` return
exactly what the equivalent single-query loop returns, for every index
variant, both query modes, and every execution configuration (chunk sizes,
deduplication on/off).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceIndex
from repro.baselines.chosen_path import ChosenPathIndex
from repro.baselines.minhash import MinHashIndex
from repro.baselines.prefix_filter import PrefixFilterIndex
from repro.core import engine as engine_module
from repro.core.batch import run_loop_batch
from repro.core.config import (
    DEFAULT_BATCH_SIZE,
    BatchQueryConfig,
    CorrelatedIndexConfig,
    PersistenceConfig,
    SkewAdaptiveIndexConfig,
)
from repro.core.correlated_index import CorrelatedIndex
from repro.core.join import similarity_join, similarity_self_join
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.core.serialization import load_index, save_index
from repro.core.stats import BatchQueryStats, BuildStats, KernelStats, QueryStats
from repro.dist import load_routed_index, shard_router_of
from repro.evaluation.harness import QueryWorkload, run_workload
from repro.similarity.predicates import SimilarityPredicate

NUM_VECTORS = 90


@pytest.fixture(scope="module")
def batch_dataset(skewed_distribution):
    rng = np.random.default_rng(777)
    vectors = skewed_distribution.sample_many(NUM_VECTORS, rng)
    return [vector if vector else frozenset({0}) for vector in vectors]


@pytest.fixture(scope="module")
def batch_queries(skewed_distribution, batch_dataset):
    """Mixed workload: planted, random, empty, and duplicate queries."""
    rng = np.random.default_rng(778)
    queries: list[frozenset[int]] = list(batch_dataset[:15])
    queries += [
        skewed_distribution.sample_correlated(batch_dataset[i], 0.7, rng) for i in range(10)
    ]
    dimension = skewed_distribution.dimension
    queries += [
        frozenset(rng.integers(0, dimension, size=8).tolist()) for _ in range(10)
    ]
    queries += [frozenset(), batch_dataset[0], batch_dataset[0], queries[16]]
    return queries


def _build_indexes(distribution, dataset):
    dimension = distribution.dimension
    indexes = {
        "skew_adaptive": SkewAdaptiveIndex(
            distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=3)
        ),
        "correlated": CorrelatedIndex(
            distribution, config=CorrelatedIndexConfig(alpha=0.7, repetitions=4, seed=3)
        ),
        "chosen_path": ChosenPathIndex(dimension, b1=0.5, b2=0.25, repetitions=4, seed=3),
        "minhash": MinHashIndex(threshold=0.5, seed=3),
        "prefix_filter": PrefixFilterIndex(threshold=0.5),
        "brute_force": BruteForceIndex(),
    }
    for index in indexes.values():
        index.build(dataset)
    return indexes


@pytest.fixture(scope="module")
def built_indexes(skewed_distribution, batch_dataset):
    return _build_indexes(skewed_distribution, batch_dataset)


@pytest.fixture(scope="module")
def store_views(skewed_distribution, batch_dataset, tmp_path_factory):
    """One index with tombstones, served from RAM, mmap and an inproc router."""
    index = SkewAdaptiveIndex(
        skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=5)
    )
    index.build(batch_dataset)
    for vector_id in (0, 3, 11):
        index.remove(vector_id)
    path = tmp_path_factory.mktemp("chunk-invariance") / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=3))
    routed = load_routed_index(path, transport="inproc", shard_procs=2)
    yield {"ram": index, "mmap": load_index(path, mode="mmap"), "routed": routed}
    shard_router_of(routed).close()


def _work(stats: QueryStats) -> dict:
    """Every ``QueryStats`` field but the kernel counters."""
    fields = stats.to_dict()
    del fields["kernel"]
    return fields


def _merge_counts(kernel: KernelStats) -> tuple[int, int]:
    return kernel.merge_rows, kernel.dedupe_hits


INDEX_NAMES = [
    "skew_adaptive",
    "correlated",
    "chosen_path",
    "minhash",
    "prefix_filter",
    "brute_force",
]


class TestBatchSingleEquivalence:
    @pytest.mark.parametrize("name", INDEX_NAMES)
    @pytest.mark.parametrize("mode", ["first", "best"])
    def test_query_batch_matches_query_loop(self, built_indexes, batch_queries, name, mode):
        index = built_indexes[name]
        expected = [index.query(query, mode=mode)[0] for query in batch_queries]
        results, stats = index.query_batch(batch_queries, mode=mode)
        assert results == expected
        assert stats.num_queries == len(batch_queries)
        assert len(stats.per_query) == len(batch_queries)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_query_candidates_batch_matches_loop(self, built_indexes, batch_queries, name):
        index = built_indexes[name]
        expected = [index.query_candidates(query)[0] for query in batch_queries]
        results, _stats = index.query_candidates_batch(batch_queries)
        assert results == expected

    @pytest.mark.parametrize("batch_size", [1, 3, 7, DEFAULT_BATCH_SIZE])
    def test_chunk_size_never_changes_results(
        self, store_views, batch_queries, batch_size, monkeypatch
    ):
        """Answers *and* the work counters, on every store, after removals.

        The queries include duplicates and an empty set.  Per-query
        ``QueryStats`` must equal the one-chunk run's field for field;
        the merge counters sum the same at any chunk size, and with one
        repetition per generation pass every ``KernelStats`` field does.
        """
        for store, index in store_views.items():
            for mode in ("first", "best"):
                expected = [index.query(query, mode=mode)[0] for query in batch_queries]
                reference = index.query_batch(batch_queries, mode=mode)[1]
                results, stats = index.query_batch(
                    batch_queries, mode=mode, batch_size=batch_size
                )
                assert results == expected, (store, mode)
                assert [_work(entry) for entry in stats.per_query] == [
                    _work(entry) for entry in reference.per_query
                ], (store, mode)
                assert _merge_counts(stats.kernel) == _merge_counts(reference.kernel)
                if store != "ram":
                    # The sharded views share one layout, so even the
                    # shard counts agree with the mmap index.
                    mmap_stats = store_views["mmap"].query_batch(
                        batch_queries, mode=mode, batch_size=batch_size
                    )[1]
                    assert stats.per_query == mmap_stats.per_query, (store, mode)

        monkeypatch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
        for store, index in store_views.items():
            for mode in ("first", "best"):
                reference = index.query_batch(batch_queries, mode=mode)[1]
                stats = index.query_batch(batch_queries, mode=mode, batch_size=batch_size)[1]
                assert stats.kernel == reference.kernel, (store, mode)

    def test_query_candidates_is_a_one_query_chunk(self, store_views, batch_queries):
        """Ids, every ``QueryStats`` field and the ``KernelStats`` agree with
        a one-query ``query_candidates_batch``, on every store, after removals."""
        for store, index in store_views.items():
            for query in batch_queries:
                candidates, stats = index.query_candidates(query)
                (expected,), batch_stats = index.query_candidates_batch([query])
                assert candidates == expected, store
                assert _work(stats) == _work(batch_stats.per_query[0]), store
                assert stats.kernel == batch_stats.kernel, store

    def test_deduplicate_off_matches(self, built_indexes, batch_queries):
        index = built_indexes["skew_adaptive"]
        with_dedupe, _ = index.query_batch(batch_queries, deduplicate=True)
        without_dedupe, stats = index.query_batch(batch_queries, deduplicate=False)
        assert with_dedupe == without_dedupe
        assert stats.queries_deduplicated == 0

    def test_empty_batch(self, built_indexes):
        results, stats = built_indexes["skew_adaptive"].query_batch([])
        assert results == []
        assert stats.num_queries == 0

    def test_after_remove_matches(self, skewed_distribution, batch_dataset, batch_queries):
        index = SkewAdaptiveIndex(
            skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=5)
        )
        index.build(batch_dataset)
        for vector_id in (0, 3, 11):
            index.remove(vector_id)
        expected = [index.query(query)[0] for query in batch_queries]
        results, _stats = index.query_batch(batch_queries)
        assert results == expected

    def test_invalid_mode_rejected(self, built_indexes):
        with pytest.raises(ValueError):
            built_indexes["skew_adaptive"].query_batch([{1, 2}], mode="all")

    def test_invalid_batch_size_rejected(self, built_indexes):
        with pytest.raises(ValueError):
            built_indexes["skew_adaptive"].query_batch([{1, 2}], batch_size=0)

    def test_invalid_max_workers_rejected(self, built_indexes):
        # Chunks always run serially: the thread-pool knobs are gone, and
        # passing one is a TypeError rather than a silently ignored option.
        for knob in ("max_workers", "shard_workers"):
            with pytest.raises(TypeError, match=knob):
                built_indexes["skew_adaptive"].query_batch([{1, 2}], **{knob: 2})


class TestBatchStatsAccounting:
    def test_duplicates_answered_once(self, built_indexes, batch_dataset):
        index = built_indexes["skew_adaptive"]
        queries = [batch_dataset[0]] * 6 + [batch_dataset[1]]
        results, stats = index.query_batch(queries)
        assert stats.queries_deduplicated == 5
        assert results[0] == results[1] == results[5]
        assert len(stats.per_query) == 7

    def test_probe_dedupe_counts_shared_filters(self, built_indexes, batch_dataset):
        index = built_indexes["skew_adaptive"]
        # Identical queries with deduplication disabled must share probes.
        _results, stats = index.query_batch(
            [batch_dataset[0]] * 4, deduplicate=False
        )
        first_stats = stats.per_query[0]
        if first_stats.filters_generated > 0:
            assert stats.duplicate_filter_probes > 0
            assert stats.dedupe_hit_rate > 0.0

    def test_timing_fields_populated(self, built_indexes, batch_queries):
        _results, stats = built_indexes["correlated"].query_batch(batch_queries)
        assert stats.elapsed_seconds > 0.0
        assert stats.generation_seconds >= 0.0
        assert stats.verification_seconds >= 0.0

    def test_batch_config_kwargs(self):
        config = BatchQueryConfig(batch_size=32, deduplicate_queries=False)
        assert config.as_kwargs() == {"batch_size": 32, "deduplicate": False}
        assert BatchQueryConfig(allow_partial=True).as_kwargs()["allow_partial"] is True
        with pytest.raises(ValueError):
            BatchQueryConfig(batch_size=0)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_batch_config_kwargs_accepted_by_every_index(
        self, built_indexes, batch_queries, name
    ):
        index = built_indexes[name]
        kwargs = BatchQueryConfig().as_kwargs()
        results, _stats = index.query_batch(batch_queries, **kwargs)
        assert results == index.query_batch(batch_queries)[0]
        candidates, _cstats = index.query_candidates_batch(batch_queries, **kwargs)
        assert candidates == index.query_candidates_batch(batch_queries)[0]

    def test_run_loop_batch_deduplicates(self):
        calls = []

        def query_function(query_set):
            calls.append(query_set)
            return len(query_set), QueryStats(filters_generated=1, found=True)

        results, stats = run_loop_batch(query_function, [{1, 2}, {2, 1}, {3}])
        assert results == [2, 2, 1]
        assert len(calls) == 2
        assert stats.queries_deduplicated == 1
        # The cache hit keeps the answer's outcome but reports no work of
        # its own: cloning the original counters would double-count them.
        assert stats.per_query[1].from_cache
        assert stats.per_query[1].found
        assert stats.per_query[1].filters_generated == 0
        assert stats.per_query[1].total_work == 0
        assert not stats.per_query[0].from_cache
        assert not stats.per_query[2].from_cache
        # Per-query stats are copies, not aliases.
        stats.per_query[0].filters_generated = 99
        assert stats.per_query[2].filters_generated == 1

    def test_run_loop_batch_work_not_double_counted(self):
        """Aggregating per-query work over a batch with duplicates must equal
        the work of the distinct executions."""

        def query_function(query_set):
            return len(query_set), QueryStats(filters_generated=3, candidates_examined=7)

        _results, stats = run_loop_batch(query_function, [{1}, {1}, {1}, {2}])
        assert sum(entry.total_work for entry in stats.per_query) == 2 * 10
        assert [entry.from_cache for entry in stats.per_query] == [
            False,
            True,
            True,
            False,
        ]

    def test_run_loop_batch_cache_hit_owns_no_shards_or_kernel(self):
        def query_function(query_set):
            return None, QueryStats(shards_probed=2, kernel=KernelStats(merge_rows=5))

        _results, stats = run_loop_batch(query_function, [{1}, {1}])
        first, hit = stats.per_query
        assert hit.shards_probed == 0
        assert hit.kernel == KernelStats()
        assert hit.kernel is not first.kernel

    def test_engine_batch_duplicates_marked_from_cache(self, built_indexes, batch_dataset):
        index = built_indexes["skew_adaptive"]
        queries = [batch_dataset[0], batch_dataset[0], batch_dataset[1]]
        _results, stats = index.query_batch(queries)
        assert not stats.per_query[0].from_cache
        assert stats.per_query[1].from_cache
        assert stats.per_query[1].total_work == 0
        assert stats.per_query[1].found == stats.per_query[0].found
        assert not stats.per_query[2].from_cache


class TestPinnedWork:
    """One fixed seeded batch's answers and work counts, pinned.

    Seeds are literal (not derived from ``REPRO_SEED_BASE``) so the pinned
    values hold under any seed base.  The digest covers the results and
    every per-query count; a change to how the engine merges or verifies
    candidates must leave all of them, and the chunk's kernel counters,
    exactly as they are.  ``"first"`` was re-pinned once, when its
    per-query counts became the lone query's as-if work (ending at the
    hit); its results, kernel counters and ``"best"`` did not move, and
    ``RESULTS`` was recorded before that change.
    """

    RESULTS = "d877f450d2a94af1abb1233776f700cf9fa663edc48cecdce8cb4a8a87954f7b"
    PINNED = {
        "first": (
            "a3f02effedf6d17bf922de0afb2d1182d63aa1e82b740c160a78bd862560d01a",
            {
                "paths_extended": 4019,
                "keys_folded": 24069,
                "chain_probes": 0,
                "merge_rows": 551,
                "dedupe_hits": 153,
            },
        ),
        "best": (
            "00690579a29c2130626fd3d601eb751b9ba79570117dbbbe7cf8378a2af77a51",
            {
                "paths_extended": 4019,
                "keys_folded": 24069,
                "chain_probes": 0,
                "merge_rows": 1316,
                "dedupe_hits": 511,
            },
        ),
    }

    @pytest.mark.parametrize("mode", ["first", "best"])
    def test_fixed_batch_work_is_pinned(self, skewed_distribution, mode):
        rng = np.random.default_rng(9003)
        dataset = [
            vector if vector else frozenset({0})
            for vector in skewed_distribution.sample_many(160, rng)
        ]
        index = SkewAdaptiveIndex(
            skewed_distribution,
            config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=6, seed=9003),
        )
        index.build(dataset)
        for vector_id in (2, 17, 90):
            index.remove(vector_id)
        query_rng = np.random.default_rng(9004)
        planted = [
            skewed_distribution.sample_correlated(dataset[int(source)], 0.75, query_rng)
            for source in query_rng.integers(len(dataset), size=40)
        ]
        fresh = skewed_distribution.sample_many(30, query_rng)
        queries = planted + fresh + [frozenset(), planted[3], fresh[5]]

        results, stats = index.query_batch(queries, mode=mode, batch_size=16)
        per_query = [
            [
                entry.filters_generated,
                entry.candidates_examined,
                entry.unique_candidates,
                entry.similarity_evaluations,
                entry.repetitions_used,
                entry.shards_probed,
                int(entry.found),
                int(entry.from_cache),
            ]
            for entry in stats.per_query
        ]
        blob = json.dumps([results, per_query], separators=(",", ":")).encode()
        digest, kernel = self.PINNED[mode]
        assert hashlib.sha256(blob).hexdigest() == digest
        assert stats.kernel.to_dict() == kernel
        answers = json.dumps(results, separators=(",", ":")).encode()
        assert hashlib.sha256(answers).hexdigest() == self.RESULTS
        # Each row is the lone query's work (a duplicate's, its cache hit).
        for position, (query, entry) in enumerate(zip(queries, stats.per_query)):
            lone = index.query(query, mode=mode)[1]
            if query in queries[:position]:
                lone = lone.cache_hit()
            lone.kernel = entry.kernel
            assert entry == lone


class TestStatsSerialization:
    def test_query_stats_round_trip(self):
        stats = QueryStats(
            filters_generated=4,
            candidates_examined=17,
            unique_candidates=9,
            similarity_evaluations=9,
            found=True,
            repetitions_used=3,
        )
        payload = json.loads(json.dumps(stats.to_dict()))
        assert QueryStats.from_dict(payload) == stats

    def test_build_stats_round_trip(self):
        stats = BuildStats(
            num_vectors=10,
            total_filters=50,
            truncated_vectors=1,
            repetitions=4,
            build_seconds=0.25,
            generation_batches=2,
        )
        payload = json.loads(json.dumps(stats.to_dict()))
        assert BuildStats.from_dict(payload) == stats

    def test_batch_query_stats_round_trip(self):
        stats = BatchQueryStats(
            num_queries=2,
            per_query=[QueryStats(found=True), QueryStats(filters_generated=5)],
            distinct_filter_probes=7,
            duplicate_filter_probes=3,
            queries_deduplicated=1,
            elapsed_seconds=0.5,
            generation_seconds=0.3,
            verification_seconds=0.1,
        )
        payload = json.loads(json.dumps(stats.to_dict()))
        restored = BatchQueryStats.from_dict(payload)
        assert restored == stats
        assert restored.dedupe_hit_rate == stats.dedupe_hit_rate

    def test_from_dict_ignores_unknown_keys(self):
        payload = QueryStats(found=True).to_dict()
        payload["future_field"] = 123
        assert QueryStats.from_dict(payload).found is True

    def test_real_batch_stats_survive_round_trip(self, built_indexes, batch_queries):
        _results, stats = built_indexes["skew_adaptive"].query_batch(batch_queries)
        restored = BatchQueryStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored == stats


class TestBatchedJoin:
    def test_join_matches_legacy_loop(self, built_indexes, batch_dataset):
        index = built_indexes["skew_adaptive"]
        predicate = SimilarityPredicate("braun_blanquet", 0.4)
        probes = batch_dataset[:25] + [frozenset()]

        class _NoBatchView:
            """The same index without a batch surface (legacy code path)."""

            def query_candidates(self, query):
                return index.query_candidates(query)

            def get_vector(self, vector_id):
                return index.get_vector(vector_id)

        batched = similarity_join(index, probes, predicate)
        legacy = similarity_join(_NoBatchView(), probes, predicate)
        assert batched.pair_set() == legacy.pair_set()
        assert batched.num_probes == legacy.num_probes
        assert batched.candidates_examined == legacy.candidates_examined
        assert batched.similarity_evaluations == legacy.similarity_evaluations

    @pytest.mark.parametrize("batch_size", [1, 5, 64])
    def test_join_batch_size_invariant(self, built_indexes, batch_dataset, batch_size):
        index = built_indexes["correlated"]
        predicate = SimilarityPredicate("braun_blanquet", 0.4)
        reference = similarity_join(index, batch_dataset[:20], predicate)
        chunked = similarity_join(
            index, batch_dataset[:20], predicate, batch_size=batch_size
        )
        assert chunked.pair_set() == reference.pair_set()

    def test_self_join_batched(self, built_indexes, batch_dataset):
        index = built_indexes["skew_adaptive"]
        predicate = SimilarityPredicate("braun_blanquet", 0.4)
        result = similarity_self_join(index, batch_dataset, predicate, batch_size=16)
        assert all(low < high for low, high, _similarity in result.pairs)

    def test_join_rejects_bad_batch_size(self, built_indexes, batch_dataset):
        with pytest.raises(ValueError):
            similarity_join(
                built_indexes["skew_adaptive"],
                batch_dataset[:3],
                SimilarityPredicate("braun_blanquet", 0.4),
                batch_size=0,
            )


class TestHarnessBatchExecution:
    def test_batched_workload_matches_loop(
        self, skewed_distribution, batch_dataset, batch_queries
    ):
        workload = QueryWorkload(queries=list(batch_queries))

        def factory():
            return SkewAdaptiveIndex(
                skewed_distribution,
                config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=9),
            )

        looped = run_workload(factory, batch_dataset, workload, method_name="loop")
        batched = run_workload(
            factory, batch_dataset, workload, method_name="batch", batch_size=8
        )
        assert batched.returned_ids == looped.returned_ids
        assert batched.batch_stats is not None
        assert looped.batch_stats is None
        assert "dedupe_rate" in batched.as_row()
