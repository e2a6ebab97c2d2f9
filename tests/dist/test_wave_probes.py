"""Wave-fused routed probes never change an answer or the paper's work counts.

Behind a shard router the engine resolves a whole generation wave of
repetitions in one fan-out (every repetition, on the surfaces with no early
exit) and hands the rows out repetition by repetition, restricted to the
queries still live; in-process stores are still probed one repetition at a
time, on demand.  The reference is the single-process mmap index held to one
repetition per pass — the plain per-repetition schedule — and a routed index
must match it in results, in every per-query ``QueryStats`` count and in the
chunk probe counters, while its fan-out record counts frames and rows as
sent.  The failure and timing semantics at fan-out granularity are pinned
here too, one small test each.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import SkewAdaptiveIndex, load_index, save_index
from repro.core import engine as engine_module
from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.engine import _WAVE_VIRTUAL_VECTORS, DeadlineExceededError
from repro.core.inverted_index import InvertedFilterIndex
from repro.core.join import similarity_join
from repro.core.mmap_store import ShardedInvertedFilterIndex
from repro.dist import (
    ShardUnavailableError,
    ShardWorkerState,
    load_routed_index,
    shard_router_of,
    worker_shard_ranges,
)
from repro.dist import worker as worker_module
from repro.similarity.predicates import SimilarityPredicate

REPETITIONS = 8
NUM_SHARDS = 4
NUM_WORKERS = 2
#: Queries per call on both sides of every wave width: a lone query, a small
#: request (both fuse all repetitions), the last size that still does and
#: the first that does not, and more than one chunk (one repetition per wave
#: until enough queries have resolved).
REQUEST_SIZES = (
    1,
    8,
    _WAVE_VIRTUAL_VECTORS // REPETITIONS - 1,
    _WAVE_VIRTUAL_VECTORS // REPETITIONS + 1,
    300,
)


@pytest.fixture(scope="module")
def ram_index(skewed_distribution, skewed_dataset):
    built = SkewAdaptiveIndex(
        skewed_distribution,
        config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=REPETITIONS, seed=11),
    )
    built.build(skewed_dataset)
    built.remove(3)  # tombstones must be skipped identically
    return built


@pytest.fixture(scope="module")
def saved(ram_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("wave-probes") / "index.v3"
    save_index(ram_index, path, config=PersistenceConfig(shards=NUM_SHARDS))
    return path


@pytest.fixture(scope="module")
def mmap_index(saved):
    return load_index(saved, mode="mmap")


@pytest.fixture(scope="module")
def routed(saved):
    index = load_routed_index(saved, transport="inproc", shard_procs=NUM_WORKERS)
    yield index
    shard_router_of(index).close()


@pytest.fixture()
def routed_loader(saved):
    """Private routed views (the test may arm faults or damage breakers)."""
    loaded = []

    def load(fault_spec=None):
        index = load_routed_index(
            saved, transport="inproc", shard_procs=NUM_WORKERS, fault_spec=fault_spec
        )
        loaded.append(index)
        return index

    yield load
    for index in loaded:
        shard_router_of(index).close()


@pytest.fixture(scope="module")
def queries(skewed_distribution, skewed_dataset):
    """Planted (early exits, at various repetitions) and fresh (none), mixed."""
    rng = np.random.default_rng(2025)
    planted = [
        skewed_distribution.sample_correlated(skewed_dataset[int(source)], 0.75, rng)
        for source in rng.integers(len(skewed_dataset), size=150)
    ]
    fresh = skewed_distribution.sample_many(150, rng)
    mixed = [query if query else frozenset({0}) for query in planted + fresh]
    return [mixed[position] for position in rng.permutation(len(mixed))]


def work(stats) -> dict:
    """A ``QueryStats`` as a dict without the kernel counters."""
    fields = stats.to_dict()
    del fields["kernel"]
    return fields


def _chunk_counters(stats) -> tuple[int, int, int]:
    return (stats.distinct_filter_probes, stats.duplicate_filter_probes, stats.shards_probed)


# --------------------------------------------------------------------- #
# All five surfaces equal the per-repetition schedule on the mmap index
# --------------------------------------------------------------------- #

BATCHED = {
    "query_batch[first]": lambda index, batch: index.query_batch(batch, mode="first"),
    "query_batch[best]": lambda index, batch: index.query_batch(batch, mode="best"),
    "query_candidates_batch": lambda index, batch: index.query_candidates_batch(batch),
    "query_candidates_arrays_batch": lambda index, batch: (
        index.query_candidates_arrays_batch(batch)
    ),
}


@pytest.fixture(scope="module")
def per_repetition(mmap_index, queries):
    """Every batched surface on the mmap index, one repetition per pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
        return {
            (surface, size): run(mmap_index, queries[:size])
            for surface, run in BATCHED.items()
            for size in REQUEST_SIZES
        }


@pytest.mark.parametrize("size", REQUEST_SIZES)
@pytest.mark.parametrize("surface", BATCHED)
def test_batched_surfaces_equal_the_per_repetition_schedule(
    routed, queries, per_repetition, surface, size
):
    shard_router_of(routed).take_fanout_stats()  # single-query calls never drain
    results, stats = BATCHED[surface](routed, queries[:size])
    expected_results, expected_stats = per_repetition[surface, size]

    if surface == "query_candidates_arrays_batch":
        results, expected_results = (
            [array.tolist() for array in arrays] for arrays in (results, expected_results)
        )
    assert results == expected_results
    assert [work(entry) for entry in stats.per_query] == [
        work(entry) for entry in expected_stats.per_query
    ]
    assert _chunk_counters(stats) == _chunk_counters(expected_stats)
    assert (stats.kernel.merge_rows, stats.kernel.dedupe_hits) == (
        expected_stats.kernel.merge_rows,
        expected_stats.kernel.dedupe_hits,
    )
    if surface == "query_batch[first]" and size == REQUEST_SIZES[3]:
        # The premise of the restricted hand-out: two waves (7 repetitions,
        # then 1) whose queries leave at several different repetitions.
        assert sum(stats.fanout.requests) <= 2 * NUM_WORKERS
        assert len({entry.repetitions_used for entry in stats.per_query}) >= 3


@pytest.mark.parametrize("mode", ["first", "best"])
def test_query_equals_the_per_repetition_schedule(routed, mmap_index, queries, mode):
    used = set()
    for query in queries[:60]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
            expected_result, expected_stats = mmap_index.query(query, mode=mode)
        result, stats = routed.query(query, mode=mode)
        assert result == expected_result
        assert work(stats) == work(expected_stats)
        used.add(stats.repetitions_used)
    if mode == "first":
        # The premise: exits land at several repetitions inside one wave.
        assert len(used) >= 4 and max(used) == REPETITIONS


def test_query_candidates_equals_the_per_repetition_schedule(routed, mmap_index, queries):
    for query in queries[:40]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "_WAVE_VIRTUAL_VECTORS", 1)
            expected_set, expected_stats = mmap_index.query_candidates(query)
        candidates, stats = routed.query_candidates(query)
        assert candidates == expected_set
        assert work(stats) == work(expected_stats)


# --------------------------------------------------------------------- #
# What a wave costs: frames and rows, honestly counted
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["first", "best"])
def test_small_request_is_one_fanout(routed, queries, mode):
    shard_router_of(routed).take_fanout_stats()  # single-query calls never drain
    for size in (1, 8):
        _results, stats = routed.query_batch(queries[:size], mode=mode)
        assert sum(stats.fanout.requests) <= NUM_WORKERS, (size, stats.fanout.requests)


def test_join_chunk_is_one_fanout(routed, mmap_index, queries):
    # 200 probes: one chunk, generated one repetition per pass, probed once.
    probes = queries[:200]
    router = shard_router_of(routed)
    router.take_fanout_stats()  # single-query calls never drain
    _arrays, stats = routed.query_candidates_arrays_batch(probes)
    assert sum(stats.fanout.requests) <= NUM_WORKERS, stats.fanout.requests

    predicate = SimilarityPredicate("braun_blanquet", 0.5)
    joined = similarity_join(routed, probes, predicate)
    assert sum(router.take_fanout_stats().requests) <= NUM_WORKERS
    assert joined.pair_set() == similarity_join(mmap_index, probes, predicate).pair_set()


def test_early_exit_reports_as_if_work_and_the_fanout_reports_rows_shipped(
    routed, queries
):
    shard_router_of(routed).take_fanout_stats()  # single-query calls never drain
    speculative = 0
    for query in queries[:80]:
        _results, stats = routed.query_batch([query])
        (query_stats,) = stats.per_query
        if not (query_stats.found and query_stats.repetitions_used == 1):
            continue
        # The hit in repetition 0 is all the paper's procedure did; the wave
        # had already shipped every repetition's rows.
        assert stats.fanout.total_rows >= query_stats.candidates_examined
        speculative += stats.fanout.total_rows > query_stats.candidates_examined
    assert speculative


# --------------------------------------------------------------------- #
# In-process stores stay lazy: one probe call per repetition reached
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["ram", "mmap"])
def test_in_process_stores_probe_one_repetition_at_a_time_on_demand(
    kind, ram_index, mmap_index, queries, monkeypatch
):
    index, store = (
        (ram_index, InvertedFilterIndex)
        if kind == "ram"
        else (mmap_index, ShardedInvertedFilterIndex)
    )
    calls = []
    original = store.probe_batch_routed

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(store, "probe_batch_routed", counting)
    seen = set()
    for query in queries[:80]:
        for run in (
            lambda: index.query(query)[1],
            lambda: index.query_batch([query])[1].per_query[0],
        ):
            calls.clear()
            stats = run()
            # Exactly the repetitions the query got to — a repetition-0 hit
            # is one probe call, a miss is one per repetition.
            assert len(calls) == stats.repetitions_used
            seen.add(stats.repetitions_used)
    assert {1, REPETITIONS} <= seen


# --------------------------------------------------------------------- #
# Failure and timing semantics at fan-out granularity
# --------------------------------------------------------------------- #


EVERY_REPETITION = [(repetition, repetition) for repetition in range(REPETITIONS)]


def test_request_scope_is_read_once_per_fanout(
    routed_loader, mmap_index, queries, probe_wave
):
    """The scope is the call's own arguments: a failure on another fan-out
    thread, after a sibling worker's request is in flight, is handled under
    the ``allow_partial`` the fan-out was called with."""
    index = routed_loader()
    router = shard_router_of(index)
    transport = router.transport
    in_flight = threading.Event()
    real_probe = transport.probe

    def probe(worker, *args, **kwargs):
        if worker == 0:
            in_flight.set()
            return real_probe(worker, *args, **kwargs)
        assert in_flight.wait(timeout=10)
        raise ShardUnavailableError("worker 1 went away mid-fan-out")

    transport.probe = probe
    column, items, offsets, keys = probe_wave(mmap_index, queries[:6], EVERY_REPETITION)
    _ids, _offsets, route = router.probe_batch_routed(
        column, items, offsets, keys, allow_partial=True
    )
    assert router.take_fanout_stats().shards_missing == sorted(
        {int(shard) for shard in route if router._shard_to_worker[shard] == 1}
    )


def test_breaker_slot_is_acquired_once_per_worker_per_fanout(
    routed_loader, mmap_index, queries, probe_wave
):
    router = shard_router_of(routed_loader())
    acquired = [0] * NUM_WORKERS
    for worker, breaker in enumerate(router.breakers):
        def acquire(worker=worker, real=breaker.acquire):
            acquired[worker] += 1
            return real()

        breaker.acquire = acquire
    column, items, offsets, keys = probe_wave(mmap_index, queries[:6], EVERY_REPETITION)
    assert np.unique(column).size == REPETITIONS
    router.probe_batch_routed(column, items, offsets, keys)
    assert acquired == [1] * NUM_WORKERS
    assert router.take_fanout_stats().requests == [1] * NUM_WORKERS


def test_worker_rechecks_the_deadline_between_groups(
    saved, mmap_index, queries, probe_wave, monkeypatch
):
    state = ShardWorkerState(saved, worker_shard_ranges(NUM_SHARDS, 1)[0])
    column, items, offsets, keys = probe_wave(mmap_index, queries[:6], EVERY_REPETITION)
    # The budget is spent once the second (repetition, shard) group is due.
    clock = iter([0.0, 0.0, 2.0])
    monkeypatch.setattr(worker_module.time, "time", lambda: next(clock, 2.0))
    with pytest.raises(DeadlineExceededError, match="mid-probe"):
        state.probe(column, keys, items, offsets, deadline=1.0)
    assert len(state._slices) == 1  # one group resolved, then the worker stopped


def test_fanout_wall_time_is_merge_time_not_generation_time(routed_loader, queries):
    index = routed_loader("delay:worker=0:seconds=0.08")
    start = time.perf_counter()
    _results, stats = index.query_batch(queries[:8])
    elapsed = time.perf_counter() - start
    assert sum(stats.fanout.requests) <= NUM_WORKERS  # one wave, one delay
    assert stats.merge_seconds >= 0.08
    assert stats.generation_seconds <= elapsed - 0.08
