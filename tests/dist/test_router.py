"""Router/unit-level tests: partition maps, fan-out accounting, read-only."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inverted_index import _segment_gather
from repro.core.mmap_store import MmapReadOnlyError
from repro.core.paths import paths_to_csr
from repro.core.stats import BatchQueryStats, ShardFanoutStats
from repro.dist import shard_router_of, shard_to_worker_map, worker_shard_ranges


# --------------------------------------------------------------------- #
# Partition maps
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("num_shards,num_workers", [(4, 1), (4, 2), (8, 3), (3, 8)])
def test_worker_shard_ranges_cover_every_shard_once(num_shards, num_workers):
    assignments = worker_shard_ranges(num_shards, num_workers)
    flattened = [shard for shards in assignments for shard in shards]
    assert sorted(flattened) == list(range(num_shards))
    for shards in assignments:
        if shards:  # each worker's slice is contiguous
            assert list(shards) == list(range(shards[0], shards[-1] + 1))


def test_shard_to_worker_map_validates_cover():
    owner = shard_to_worker_map([[0, 1], [2, 3]], 4)
    assert owner.tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        shard_to_worker_map([[0, 1], [1, 2]], 4)  # shard 3 missing, 1 doubled
    with pytest.raises(ValueError):
        shard_to_worker_map([[0], [1]], 3)  # shard 2 unowned


# --------------------------------------------------------------------- #
# Fan-out statistics
# --------------------------------------------------------------------- #


def test_fanout_stats_add_and_round_trip():
    stats = ShardFanoutStats.sized(2)
    stats.requests[0] = 3
    stats.rows[1] = 10
    stats.seconds[0] = 0.5
    stats.failures[1] = 1
    stats.respawns[1] = 1
    other = ShardFanoutStats.sized(3)
    other.requests[2] = 7
    stats.add(other)
    assert stats.workers == 3
    assert stats.requests == [3, 0, 7]
    assert stats.total_requests == 10
    assert stats.total_rows == 10

    restored = ShardFanoutStats.from_dict(stats.to_dict(), strict=True)
    assert restored.to_dict() == stats.to_dict()


def test_fanout_stats_strict_rejects_inconsistent_payload():
    payload = ShardFanoutStats.sized(2).to_dict()
    payload["requests"] = [1, 2, 3]  # three entries for a two-worker record
    with pytest.raises(ValueError):
        ShardFanoutStats.from_dict(payload, strict=True)


def test_fanout_degraded_fields_round_trip_and_merge():
    stats = ShardFanoutStats.sized(2)
    stats.aborts[1] = 2
    stats.completeness = 0.75
    stats.shards_missing = [3]
    restored = ShardFanoutStats.from_dict(stats.to_dict(), strict=True)
    assert restored.aborts == [0, 2]
    assert restored.completeness == 0.75
    assert restored.shards_missing == [3]
    assert restored.to_dict() == stats.to_dict()

    # Merging keeps the weakest completeness and the union of missing
    # shards; aborts accumulate positionally like the other counters.
    other = ShardFanoutStats.sized(2)
    other.aborts[1] = 1
    other.completeness = 0.5
    other.shards_missing = [0, 3]
    stats.add(other)
    assert stats.aborts == [0, 3]
    assert stats.completeness == 0.5
    assert stats.shards_missing == [0, 3]


def test_fanout_legacy_payload_defaults_to_full_answer():
    # Pre-degraded-mode payloads carry none of the new fields; they decode
    # as "no aborts, complete answer" even in strict mode.
    payload = ShardFanoutStats.sized(2).to_dict()
    del payload["aborts"], payload["completeness"], payload["shards_missing"]
    restored = ShardFanoutStats.from_dict(payload, strict=True)
    assert restored.aborts == [0, 0]
    assert restored.completeness == 1.0
    assert restored.shards_missing == []


def test_fanout_strict_rejects_out_of_range_completeness():
    payload = ShardFanoutStats.sized(2).to_dict()
    payload["completeness"] = 1.5
    with pytest.raises(ValueError, match="completeness"):
        ShardFanoutStats.from_dict(payload, strict=True)


def test_batch_stats_round_trip_carries_fanout():
    stats = BatchQueryStats()
    stats.fanout = ShardFanoutStats.sized(2)
    stats.fanout.requests[1] = 4
    restored = BatchQueryStats.from_dict(stats.to_dict(), strict=True)
    assert restored.fanout.to_dict() == stats.fanout.to_dict()

    merged = BatchQueryStats()
    merged.accumulate(stats)
    merged.accumulate(stats)
    assert merged.fanout.requests == [0, 8]


def test_take_fanout_stats_drains_pending_delta(inproc_index):
    router = shard_router_of(inproc_index)
    assert router is not None
    router.take_fanout_stats()  # the engine drains after each batch; reset

    # Drive the router directly: the engine's own batches drain pending
    # themselves, so a probe issued outside a batch must be what take() sees.
    paths = [(1, 2, 3), (4, 5)]
    keys = [hash(path) & (2**63 - 1) for path in paths]
    router.probe_batch_routed(0, *paths_to_csr(paths), keys)

    taken = router.take_fanout_stats()
    assert taken.total_requests > 0
    drained = router.take_fanout_stats()
    assert drained.total_requests == 0
    # Lifetime totals survive the drain.
    snapshot = router.snapshot()
    assert sum(entry["requests"] for entry in snapshot["per_worker"]) >= (
        taken.total_requests
    )


# --------------------------------------------------------------------- #
# One fan-out, many repetitions
# --------------------------------------------------------------------- #


def _per_repetition_calls_concatenated(stores, column, probe_items, probe_offsets, keys):
    """``(ids, offsets, route)`` of one single-process probe per repetition."""
    lengths = np.diff(probe_offsets)
    parts = []
    for repetition in np.unique(column).tolist():
        members = np.flatnonzero(column == repetition)
        sub_offsets = np.zeros(members.size + 1, dtype=np.int64)
        np.cumsum(lengths[members], out=sub_offsets[1:])
        parts.append(
            stores[repetition].probe_batch_routed(
                _segment_gather(probe_items, probe_offsets[members], lengths[members]),
                sub_offsets,
                keys[members],
            )
        )
    ids = np.concatenate([part_ids for part_ids, _offsets, _route in parts])
    counts = np.concatenate([np.diff(offsets) for _ids, offsets, _route in parts])
    route = np.concatenate([part_route for _ids, _offsets, part_route in parts])
    return ids, np.concatenate(([0], np.cumsum(counts))), route


def test_multi_repetition_probe_equals_per_repetition_calls_concatenated(
    mmap_index, routed_index, dist_index, probe_wave
):
    router = shard_router_of(routed_index)
    stores = mmap_index._engine.filter_indexes
    # Repetition 1 contributes no probe at all, repetition 0's filters are
    # probed again in repetition 2 (the same keys under two repetitions), and
    # the column is repetition-major so "concatenated" is literal.
    plan = probe_wave(mmap_index, dist_index.queries[:10], [(0, 0), (2, 2), (2, 0)])
    column, probe_items, probe_offsets, keys = plan
    assert set(column.tolist()) == {0, 2}
    assert np.isin(keys[column == 0], keys[column == 2]).all()  # keys repeat

    router.take_fanout_stats()
    ids, offsets, route = router.probe_batch_routed(*plan)
    expected_ids, expected_offsets, expected_route = _per_repetition_calls_concatenated(
        stores, *plan
    )
    assert np.array_equal(ids, expected_ids) and ids.size
    assert np.array_equal(offsets, expected_offsets)
    assert np.array_equal(route, expected_route)
    # Both workers answered, each with one frame for both repetitions.
    assert router.take_fanout_stats().requests == [1] * router.num_workers

    # An int is the column broadcast: today's per-repetition callers.
    first = column == 0
    single = _per_repetition_calls_concatenated(
        stores, column[first], probe_items, probe_offsets[: first.sum() + 1], keys[first]
    )
    for actual, expected in zip(
        router.probe_batch_routed(
            0, probe_items, probe_offsets[: first.sum() + 1], keys[first]
        ),
        single,
    ):
        assert np.array_equal(actual, expected)


def test_multi_repetition_probe_touching_one_worker_sends_one_frame(
    mmap_index, routed_index, dist_index, probe_wave
):
    router = shard_router_of(routed_index)
    column, probe_items, probe_offsets, keys = probe_wave(
        mmap_index, dist_index.queries[:10], [(0, 0), (1, 1), (2, 2)]
    )
    # Keep the probes whose keys the last worker owns (the top key range).
    owned = np.flatnonzero(keys >= router.fences[-1])
    assert set(column[owned].tolist()) == {0, 1, 2}
    lengths = np.diff(probe_offsets)[owned]
    plan = (
        column[owned],
        _segment_gather(probe_items, probe_offsets[owned], lengths),
        np.concatenate(([0], np.cumsum(lengths))),
        keys[owned],
    )
    router.take_fanout_stats()
    result = router.probe_batch_routed(*plan)
    expected = _per_repetition_calls_concatenated(mmap_index._engine.filter_indexes, *plan)
    for actual, wanted in zip(result, expected):
        assert np.array_equal(actual, wanted)
    requests = router.take_fanout_stats().requests
    assert requests[-1] == 1 and sum(requests) == 1


# --------------------------------------------------------------------- #
# The read-only contract of a routed index
# --------------------------------------------------------------------- #


def test_routed_filter_index_rejects_mutation(inproc_index):
    filter_index = inproc_index._engine.filter_indexes[0]
    with pytest.raises(MmapReadOnlyError):
        filter_index.add((1, 2), 0)
    with pytest.raises(MmapReadOnlyError):
        filter_index.add_postings(np.array([1]), np.array([0]))
    with pytest.raises(TypeError):
        filter_index.to_state()
    with pytest.raises(TypeError):
        filter_index.to_sorted_state()
    filter_index.compact()  # no-op, must not raise


def test_routed_filter_index_counts_match_mmap(mmap_index, inproc_index):
    for expected, actual in zip(
        mmap_index._engine.filter_indexes, inproc_index._engine.filter_indexes
    ):
        assert len(actual) == len(expected)
        assert actual.num_filters == expected.num_filters
        assert actual.total_entries == expected.total_entries
        assert actual.num_shards == expected.num_shards
        assert np.array_equal(actual.fences, expected.fences)


def test_routed_contains_matches_mmap(mmap_index, inproc_index):
    mmap_filters = mmap_index._engine.filter_indexes
    routed_filters = inproc_index._engine.filter_indexes
    probes = [(1, 2, 3), (0,), (5, 9, 14, 2), (400, 401)]
    for expected_index, actual_index in zip(mmap_filters, routed_filters):
        for path in probes:
            assert (path in actual_index) == (path in expected_index)
        # A path that is actually stored must be found over the wire too.
        stored = expected_index.lookup((1, 2, 3))
        assert actual_index.lookup((1, 2, 3)) == stored

