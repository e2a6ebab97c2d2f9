"""Fused generation waves never change an answer or the paper's work counts.

The read surfaces generate filters for several repetitions per pass (the
width follows from how many queries are live), yet probe, verify and exit
early repetition by repetition.  Two references pin that: a plain
one-repetition-at-a-time loop over the serial generator and per-filter
lookups (the paper's procedure, for ``query``), and the engine itself held
to one repetition per pass (the schedule before waves existed, for every
batched surface and its chunk-level counters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.engine import _WAVE_VIRTUAL_VECTORS
from repro.core.kernels import KEYS_FOLDED, PATHS_EXTENDED, new_counters
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.similarity.measures import braun_blanquet
from store_probe import posting_list

REPETITIONS = 8
#: Chunk sizes on both sides of every width the schedule can pick: a lone
#: query, a small request, the last size that still fuses all repetitions
#: and its neighbours, and a full chunk (one repetition per pass until
#: enough of its queries have resolved).
CHUNK_SIZES = (
    1,
    8,
    _WAVE_VIRTUAL_VECTORS // REPETITIONS - 1,
    _WAVE_VIRTUAL_VECTORS // REPETITIONS,
    _WAVE_VIRTUAL_VECTORS // REPETITIONS + 1,
    _WAVE_VIRTUAL_VECTORS,
)


@pytest.fixture(scope="module")
def index(skewed_distribution, skewed_dataset):
    built = SkewAdaptiveIndex(
        skewed_distribution,
        config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=REPETITIONS, seed=11),
    )
    built.build(skewed_dataset)
    built.remove(3)  # tombstones must be skipped identically
    built.remove(40)
    return built


@pytest.fixture(scope="module")
def queries(skewed_distribution, skewed_dataset):
    """Planted (early exits, at various repetitions) and fresh (no exit), mixed."""
    rng = np.random.default_rng(2024)
    planted = [
        skewed_distribution.sample_correlated(skewed_dataset[int(source)], 0.75, rng)
        for source in rng.integers(len(skewed_dataset), size=140)
    ]
    fresh = skewed_distribution.sample_many(140, rng)
    mixed = [query if query else frozenset({0}) for query in planted + fresh]
    order = rng.permutation(len(mixed))
    return [mixed[position] for position in order] + [frozenset()]


def work(stats) -> dict:
    """A ``QueryStats`` as a dict without the kernel counters."""
    fields = stats.to_dict()
    del fields["kernel"]
    return fields


def reference_query(engine, query, mode):
    """The paper's query: one repetition, one filter, one collision at a time."""
    counts = dict.fromkeys(
        ("filters_generated", "candidates_examined", "unique_candidates"), 0
    )
    counts.update(repetitions_used=0, shards_probed=0, found=False, from_cache=False)
    seen: set[int] = set()
    best_id, best_similarity = None, -1.0
    for repetition in range(engine.repetitions):
        paths = engine.query_filters(query, repetition)
        counts["repetitions_used"] += 1
        counts["filters_generated"] += len(paths)
        counts["shards_probed"] += 1 if paths else 0
        for path in paths:
            for vector_id in posting_list(engine.filter_indexes[repetition], path):
                counts["candidates_examined"] += 1
                if vector_id in seen or engine.is_removed(vector_id):
                    continue
                seen.add(vector_id)
                counts["unique_candidates"] += 1
                similarity = braun_blanquet(engine.vectors[vector_id], query)
                if similarity < engine.acceptance_threshold:
                    continue
                if mode == "first":
                    counts["found"] = True
                    return vector_id, counts
                if similarity > best_similarity:
                    best_id, best_similarity = vector_id, similarity
    counts["found"] = best_id is not None
    return best_id, counts


@pytest.mark.parametrize("mode", ["first", "best"])
def test_query_equals_the_plain_reference_loop(index, queries, mode):
    engine = index._engine
    used = set()
    for query in queries[:80]:
        if not query:
            continue
        expected_id, expected = reference_query(engine, query, mode)
        expected["similarity_evaluations"] = expected["unique_candidates"]
        result, stats = index.query(query, mode=mode)
        assert result == expected_id
        assert work(stats) == expected
        used.add(stats.repetitions_used)
    if mode == "first":
        # The premise of the suite: queries resolve at several different
        # repetitions inside the one wave a lone query generates.
        assert len(used) >= 4 and max(used) == REPETITIONS


@pytest.mark.parametrize("mode", ["first", "best"])
def test_query_batch_equals_the_plain_reference_loop(index, queries, mode):
    """The same oracle holds for one batch of those queries: a batch reports
    each query's work exactly as the paper's loop does, early exits
    included."""
    engine = index._engine
    results, stats = index.query_batch(queries[:80], mode=mode)
    answered = set()
    for query, result, entry in zip(queries[:80], results, stats.per_query):
        expected_id, expected = reference_query(engine, query, mode)
        expected["similarity_evaluations"] = expected["unique_candidates"]
        assert result == expected_id
        if query in answered:
            assert entry.from_cache and entry.found == expected["found"]
        else:
            assert work(entry) == expected
        answered.add(query)


def test_query_candidates_equals_the_plain_reference_loop(index, queries):
    engine = index._engine
    for query in queries[:40]:
        expected: set[int] = set()
        filters = collisions = 0
        for repetition in range(engine.repetitions):
            paths = engine.query_filters(query, repetition)
            filters += len(paths)
            for path in paths:
                postings = posting_list(engine.filter_indexes[repetition], path)
                collisions += len(postings)
                expected.update(v for v in postings if not engine.is_removed(v))
        candidates, stats = index.query_candidates(query)
        assert candidates == expected
        assert (stats.filters_generated, stats.candidates_examined) == (filters, collisions)
        assert stats.repetitions_used == (REPETITIONS if query else 0)


SURFACES = ("first", "best", "candidates")


def _batched_surface(index, queries, surface, chunk_size):
    if surface == "candidates":
        return index.query_candidates_batch(queries, batch_size=chunk_size)
    return index.query_batch(queries, mode=surface, batch_size=chunk_size)


def _chunk_counters(stats) -> tuple[int, int, int]:
    return (stats.distinct_filter_probes, stats.duplicate_filter_probes, stats.shards_probed)


@pytest.fixture(scope="module")
def unfused(index, queries):
    """Every batched surface under the one-repetition-per-pass schedule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
        return {
            (surface, chunk_size): _batched_surface(index, queries, surface, chunk_size)
            for surface in SURFACES
            for chunk_size in CHUNK_SIZES
        }


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("surface", SURFACES)
def test_batched_surfaces_equal_the_unfused_schedule(
    index, queries, unfused, surface, chunk_size
):
    results, stats = _batched_surface(index, queries, surface, chunk_size)
    ref_results, ref_stats = unfused[surface, chunk_size]

    assert results == ref_results
    assert [work(entry) for entry in stats.per_query] == [
        work(entry) for entry in ref_stats.per_query
    ]
    assert _chunk_counters(stats) == _chunk_counters(ref_stats)

    # Kernel counters count what was actually generated.  Without early
    # exits a wave generates exactly the rows the unfused schedule does;
    # with them it also generates the tail its resolved queries never probe.
    if surface != "first":
        assert stats.kernel == ref_stats.kernel
    else:
        assert stats.kernel.keys_folded >= ref_stats.kernel.keys_folded
        assert stats.kernel.paths_extended >= ref_stats.kernel.paths_extended
        assert (stats.kernel.merge_rows, stats.kernel.dedupe_hits) == (
            ref_stats.kernel.merge_rows,
            ref_stats.kernel.dedupe_hits,
        )


def test_kernel_counters_count_the_whole_wave(index, queries):
    """``QueryStats`` is the paper's as-if work, ``KernelStats`` the work done:
    an early-exiting lone query reports the filters of the repetitions it
    reached, and kernel counters for every repetition its wave generated."""
    engine = index._engine

    def serial_counters(query, repetitions):
        counters = new_counters()
        members = sorted(query)
        bound = engine.threshold_policy.bind(members)
        for repetition in range(repetitions):
            engine._generator.generate(members, bound, counters, repetition)
        return counters[PATHS_EXTENDED], counters[KEYS_FOLDED]

    early_exits = 0
    for query in queries[:40]:
        if not query:
            continue
        _result, fused = index.query(query)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
            _result, unfused = index.query(query)
        assert work(fused) == work(unfused)
        assert (unfused.kernel.paths_extended, unfused.kernel.keys_folded) == serial_counters(
            query, unfused.repetitions_used
        )
        assert (fused.kernel.paths_extended, fused.kernel.keys_folded) == serial_counters(
            query, REPETITIONS
        )
        early_exits += unfused.repetitions_used < REPETITIONS
    assert early_exits
