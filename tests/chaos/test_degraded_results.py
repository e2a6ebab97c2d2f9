"""Degraded partial results under a permanently failing worker.

The ``allow_partial`` contract: with worker 0 down, a degraded fan-out
returns exactly the full results restricted to the live shards — no
more, no less — annotated with the missing shards and the completeness
ratio.  The unit is the fan-out: one carries a whole wave of repetitions,
and a dropped worker drops out of all of them together.  Strict requests
keep failing, but with the breaker's actual backoff as the retry hint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtypes import REPETITION_DTYPE
from repro.core.paths import paths_to_csr
from repro.dist import shard_router_of
from repro.dist.breaker import STATE_OPEN
from repro.dist.transport import ShardUnavailableError
from repro.hashing.pairwise import fold_path

NUM_SHARDS = 4


def _probe_plan(chaos_mmap, queries):
    """Real probe traffic of a whole wave: every repetition's filters.

    Returns ``(column, paths, keys)`` — the engine's filters of ``queries``
    in each of the index's three repetitions, with the repetition column a
    wave-fused fan-out ships them under.
    """
    engine = chaos_mmap._engine
    paths, column = [], []
    for repetition in range(engine.repetitions):
        for query in queries:
            found = engine.query_filters(query, repetition)
            paths.extend(found)
            column.extend([repetition] * len(found))
    keys = np.asarray([fold_path(path) for path in paths], dtype=np.uint64)
    return np.asarray(column, dtype=REPETITION_DTYPE), paths, keys


def test_degraded_probes_are_full_probes_restricted_to_live_shards(
    routed_loader, chaos_mmap, chaos_index
):
    healthy = shard_router_of(routed_loader())
    degraded = shard_router_of(routed_loader("drop:worker=0"))
    column, paths, keys = _probe_plan(chaos_mmap, chaos_index.queries[:8])
    assert set(column.tolist()) == {0, 1, 2}

    probe_items, probe_offsets = paths_to_csr(paths)
    full_ids, full_offsets, route = healthy.probe_batch_routed(
        column, probe_items, probe_offsets, keys
    )
    ids, offsets, degraded_route = degraded.probe_batch_routed(
        column, probe_items, probe_offsets, keys, allow_partial=True
    )

    assert np.array_equal(degraded_route, route)
    dead = degraded._shard_to_worker[route] == 0
    # The plan spans both workers in every repetition: the dropped worker's
    # probes go missing for the whole wave, not for one repetition of it.
    for repetition in range(3):
        assert dead[column == repetition].any() and (~dead[column == repetition]).any()
    lengths = np.diff(offsets)
    full_lengths = np.diff(full_offsets)
    # Dead-worker probes answer zero postings; live probes answer exactly
    # what the healthy fan-out answers.
    assert not lengths[dead].any()
    assert np.array_equal(lengths[~dead], full_lengths[~dead])
    for probe in np.flatnonzero(~dead):
        assert np.array_equal(
            ids[offsets[probe] : offsets[probe + 1]],
            full_ids[full_offsets[probe] : full_offsets[probe + 1]],
        )

    fanout = degraded.take_fanout_stats()
    expected_missing = sorted({int(shard) for shard in route[dead]})
    assert fanout.shards_missing == expected_missing
    assert fanout.completeness == pytest.approx(
        1.0 - len(expected_missing) / NUM_SHARDS
    )


def test_partial_batch_is_annotated_and_subset_of_full(
    routed_loader, chaos_mmap, chaos_index
):
    degraded = routed_loader("drop:worker=0")
    expected_sets, _expected_stats = chaos_mmap.query_candidates_batch(
        chaos_index.queries
    )
    candidate_sets, stats = degraded.query_candidates_batch(
        chaos_index.queries, allow_partial=True
    )
    assert stats.fanout.shards_missing == [0, 1]  # worker 0 owns shards 0-1
    assert stats.fanout.completeness == pytest.approx(0.5)
    for partial, full in zip(candidate_sets, expected_sets):
        assert partial <= full


def test_strict_mode_fails_with_backoff_derived_retry_after(
    routed_loader, chaos_index
):
    index = routed_loader("drop:worker=0")
    with pytest.raises(ShardUnavailableError) as excinfo:
        index.query_batch(chaos_index.queries)
    assert excinfo.value.retry_after is not None
    assert excinfo.value.retry_after > 0.0
    # The breaker is now open: the next request fails fast on the breaker
    # itself instead of waiting on the known-bad worker again.
    router = shard_router_of(index)
    assert router.breakers[0].state == STATE_OPEN
    with pytest.raises(ShardUnavailableError, match="circuit breaker"):
        index.query_batch(chaos_index.queries)
