"""Tests for build/query statistics accounting."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.core.kernels import new_counters
from repro.core.stats import (
    BatchQueryStats,
    BuildStats,
    KernelStats,
    QueryStats,
    ShardFanoutStats,
)


def _kernel(scale: int) -> KernelStats:
    return KernelStats(scale, 2 * scale, 3 * scale, 4 * scale, 5 * scale)


def _fanout(workers: int, scale: int, completeness: float, missing: list[int]) -> ShardFanoutStats:
    record = ShardFanoutStats.sized(workers)
    for slot in range(workers):
        record.requests[slot] = scale + slot
        record.rows[slot] = 10 * scale + slot
        record.seconds[slot] = 0.25 * scale
        record.failures[slot] = scale
        record.respawns[slot] = slot
        record.aborts[slot] = scale + 2 * slot
    record.completeness = completeness
    record.shards_missing = missing
    return record


def _batch(scale: int, per_query: list[QueryStats], fanout: ShardFanoutStats) -> BatchQueryStats:
    return BatchQueryStats(
        num_queries=scale,
        per_query=per_query,
        distinct_filter_probes=2 * scale,
        duplicate_filter_probes=3 * scale,
        queries_deduplicated=4 * scale,
        elapsed_seconds=0.5 * scale,
        generation_seconds=0.25 * scale,
        verification_seconds=0.125 * scale,
        merge_seconds=0.0625 * scale,
        shards_probed=5 * scale,
        minor_page_faults=6 * scale,
        major_page_faults=7 * scale,
        kernel=_kernel(scale),
        fanout=fanout,
    )


#: ``(first, second, first after adding second)``: every field of every
#: record is off its default in at least one row (checked below).
ADD_CASES = {
    "KernelStats": [(_kernel(1), _kernel(10), _kernel(11))],
    "QueryStats": [
        (
            # Counters and the kernel sum, ``found`` ORs, ``from_cache`` stays.
            QueryStats(1, 2, 3, 4, False, 5, 6, False, _kernel(1)),
            QueryStats(10, 20, 30, 40, True, 50, 60, True, _kernel(10)),
            QueryStats(11, 22, 33, 44, True, 55, 66, False, _kernel(11)),
        )
    ],
    "BuildStats": [
        (
            BuildStats(1, 2, 3, 4, 0.5, 6, _kernel(1)),
            BuildStats(10, 20, 30, 40, 0.25, 60, _kernel(10)),
            BuildStats(11, 22, 33, 44, 0.75, 66, _kernel(11)),
        )
    ],
    "ShardFanoutStats": [
        # Per-worker lists add slot by slot and grow to the wider record;
        # ``workers`` takes the max, ``completeness`` the min and
        # ``shards_missing`` the sorted union.
        (
            _fanout(2, 1, 0.75, [3]),
            _fanout(3, 2, 0.5, [0, 3]),
            ShardFanoutStats(
                workers=3,
                requests=[3, 5, 4],
                rows=[30, 32, 22],
                seconds=[0.75, 0.75, 0.5],
                failures=[3, 3, 2],
                respawns=[0, 2, 2],
                aborts=[3, 7, 6],
                completeness=0.5,
                shards_missing=[0, 3],
            ),
        ),
        # An empty accumulator (``workers == 0``) adopts the other's shape.
        (ShardFanoutStats(), _fanout(2, 1, 0.5, [1]), _fanout(2, 1, 0.5, [1])),
        # A narrower record adds into the first slots only.
        (
            _fanout(2, 1, 1.0, []),
            _fanout(1, 1, 1.0, []),
            ShardFanoutStats(2, [2, 2], [20, 11], [0.5, 0.25], [2, 1], [0, 1], [2, 3]),
        ),
    ],
    "BatchQueryStats": [
        (
            # ``per_query`` is left alone; the fan-out grows from workers=0.
            _batch(1, [QueryStats(found=True)], ShardFanoutStats()),
            _batch(10, [QueryStats(filters_generated=1)], _fanout(2, 1, 0.5, [1])),
            _batch(11, [QueryStats(found=True)], _fanout(2, 1, 0.5, [1])),
        )
    ],
}


def _add(first, second) -> None:
    if isinstance(first, BatchQueryStats):
        first.accumulate(second)
    else:
        first.add(second)


def _copy(record):
    return type(record).from_dict(json.loads(json.dumps(record.to_dict())), strict=True)


@pytest.mark.parametrize("record", sorted(ADD_CASES))
def test_add_follows_field_rules(record):
    exercised: set[str] = set()
    for first, second, expected in ADD_CASES[record]:
        default = type(first)()
        exercised |= {
            spec.name
            for spec in fields(first)
            for sample in (first, second)
            if getattr(sample, spec.name) != getattr(default, spec.name)
        }
        accumulator, other = _copy(first), _copy(second)
        _add(accumulator, other)
        assert accumulator == expected
        assert other == second, "add must not modify its argument"
    assert exercised == {spec.name for spec in fields(type(first))}


@pytest.mark.parametrize("record", sorted(ADD_CASES))
def test_dict_round_trip_is_exact(record):
    for case in ADD_CASES[record]:
        for sample in case:
            payload = json.loads(json.dumps(sample.to_dict()))
            assert type(sample).from_dict(payload, strict=True) == sample
            assert type(sample).from_dict(sample.to_dict()) == sample


def test_accumulate_extends_per_query_only_on_request():
    first, second, _expected = ADD_CASES["BatchQueryStats"][0]
    accumulator = _copy(first)
    accumulator.accumulate(_copy(second), per_query=True)
    assert accumulator.per_query == first.per_query + second.per_query


@pytest.mark.parametrize(
    "record, path",
    [
        ("KernelStats", ()),
        ("QueryStats", ()),
        ("QueryStats", ("kernel",)),
        ("BuildStats", ()),
        ("BuildStats", ("kernel",)),
        ("ShardFanoutStats", ()),
        ("BatchQueryStats", ()),
        ("BatchQueryStats", ("kernel",)),
        ("BatchQueryStats", ("fanout",)),
        ("BatchQueryStats", ("per_query", 0)),
        ("BatchQueryStats", ("per_query", 0, "kernel")),
    ],
)
def test_strict_rejects_unknown_key_at_every_level(record, path):
    sample = ADD_CASES[record][0][1]
    payload = json.loads(json.dumps(sample.to_dict()))
    node = payload
    for step in path:
        node = node[step]
    node["mystery"] = 1
    with pytest.raises(ValueError, match="mystery"):
        type(sample).from_dict(payload, strict=True)
    assert type(sample).from_dict(payload) == sample


@pytest.mark.parametrize("nested", [False, True])
def test_inconsistent_fanout_payload_raises(nested):
    payload = _fanout(2, 1, 1.0, []).to_dict()
    payload["rows"] = [1, 2, 3]  # three entries for a two-worker record
    if nested:
        payload = {"fanout": payload}
    with pytest.raises(ValueError, match="inconsistent"):
        (BatchQueryStats if nested else ShardFanoutStats).from_dict(payload, strict=True)


class TestKernelStats:
    def test_add_counters_folds_vector(self):
        counters = new_counters()
        counters += np.arange(1, 6, dtype=np.int64)
        stats = KernelStats(paths_extended=100)
        stats.add_counters(counters)
        assert stats == KernelStats(
            paths_extended=101, keys_folded=2, chain_probes=3, merge_rows=4, dedupe_hits=5
        )

    def test_dict_round_trip(self):
        stats = KernelStats(
            paths_extended=1, keys_folded=2, chain_probes=3, merge_rows=4, dedupe_hits=5
        )
        assert KernelStats.from_dict(stats.to_dict()) == stats

    def test_from_dict_ignores_unknown_keys_unless_strict(self):
        payload = {"paths_extended": 7, "mystery": 1}
        assert KernelStats.from_dict(payload).paths_extended == 7
        with pytest.raises(ValueError):
            KernelStats.from_dict(payload, strict=True)

    def test_query_stats_round_trip_carries_kernel(self):
        stats = QueryStats(
            filters_generated=3, kernel=KernelStats(paths_extended=9, merge_rows=2)
        )
        restored = QueryStats.from_dict(stats.to_dict())
        assert restored.kernel == stats.kernel

    def test_build_stats_merge_sums_kernel(self):
        merged = BuildStats(kernel=KernelStats(paths_extended=1, chain_probes=2))
        merged.add(BuildStats(kernel=KernelStats(paths_extended=10, dedupe_hits=3)))
        assert merged.kernel == KernelStats(
            paths_extended=11, chain_probes=2, dedupe_hits=3
        )


class TestBuildStats:
    def test_filters_per_vector(self):
        stats = BuildStats(num_vectors=10, total_filters=50)
        assert stats.filters_per_vector == 5.0

    def test_filters_per_vector_empty(self):
        assert BuildStats().filters_per_vector == 0.0

    def test_merge_sums_filters(self):
        merged = BuildStats(num_vectors=10, total_filters=5, repetitions=1)
        merged.add(
            BuildStats(num_vectors=10, total_filters=7, truncated_vectors=2, repetitions=1)
        )
        assert merged.total_filters == 12
        assert merged.truncated_vectors == 2
        assert merged.repetitions == 2
        # ``add`` sums every counter, ``num_vectors`` included.
        assert merged.num_vectors == 20


class TestQueryStats:
    def test_total_work(self):
        stats = QueryStats(filters_generated=3, candidates_examined=7)
        assert stats.total_work == 10
