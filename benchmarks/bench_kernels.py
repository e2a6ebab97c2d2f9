"""Per-stage speedup of the hot-path kernels — the kernel gate.

The kernel rework (``src/repro/core/kernels/``) replaced two Python-level
hot loops with array-native stages that run vectorised numpy kernels:

* **path extension** — ``PathGenerator.generate_batch`` used to carry its
  frontier as per-vector tuples and materialise children in a Python loop;
  it now runs level-synchronously over flat CSR arrays through the
  ``extend_level`` kernel.
* **build compaction** — ``InvertedFilterIndex.compact`` used to fall back
  to a per-entry Python dict loop over the *whole* posting stream whenever
  any forced 64-bit key collision was present; it now resolves only the
  colliding groups through the ``chain_resolve`` kernel and keeps the rest
  of the stream vectorised.

Each stage is timed against a faithful copy of the replaced implementation
(embedded below, preserved verbatim in structure from the pre-kernel
revision) on an ``n``-vector workload (``REPRO_BENCH_KERNELS_N``, default
20 000) whose posting stream carries 2% forced key collisions.  Results
must be bit-identical and the kernels must win by >= 2x
(``MIN_STAGE_SPEEDUP``); ``benchmarks/check_batch_regression.py`` enforces
the same bound in CI against the exported JSON (``BENCH_kernels.json``).
One-time costs are excluded: both stages run once through ``warm_up``
before the timed region (see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import math
import os
import time
from typing import Sequence

import numpy as np

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.inverted_index import InvertedFilterIndex, _segment_gather
from repro.core.kernels import CHAIN_PROBES, KEYS_FOLDED, PATHS_EXTENDED, new_counters
from repro.core.paths import PathGenerationResult, PathGenerator, VectorBatch, paths_to_csr
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.core.thresholds import BoundThreshold
from repro.evaluation.reporting import format_table
from repro.hashing.pairwise import fold_path
from repro.testing import rng_for

from conftest import warm_up

#: Minimum kernel/reference speedup per kernel stage; keep in sync
#: with benchmarks/check_batch_regression.py (the CI gate).
MIN_STAGE_SPEEDUP = 2.0

#: Vectors are fed to the generators in engine-sized chunks so the timed
#: region exercises the same batch shapes the build and query paths use.
CHUNK = 512

#: Fraction of the compaction stream whose keys are overwritten with a
#: colliding key, forcing the chain-resolution stage to run.
COLLISION_RATE = 0.02


# --------------------------------------------------------------------- #
# Reference implementation 1: the tuple-frontier batch path generator
# (the pre-kernel ``PathGenerator.generate_batch`` and its ``_BatchState``).
# --------------------------------------------------------------------- #


class _ReferenceBatchState:
    """Per-vector bookkeeping of the replaced tuple-frontier generator."""

    __slots__ = (
        "items",
        "log_probs",
        "bound",
        "frontier",
        "finished_paths",
        "finished_keys",
        "truncated",
        "expansions",
        "active",
    )

    def __init__(
        self,
        items: list[int],
        log_probs: list[float],
        bound: BoundThreshold,
        root_key: int,
    ):
        self.items = items
        self.log_probs = log_probs
        self.bound = bound
        self.frontier: list[tuple[tuple[int, ...], int, float, list[int]]] = (
            [((), root_key, 0.0, list(range(len(items))))] if items else []
        )
        self.finished_paths: list[tuple[int, ...]] = []
        self.finished_keys: list[int] = []
        self.truncated = False
        self.expansions = 0
        self.active = bool(items)


def _reference_generate_batch(
    generator: PathGenerator,
    items_per_vector: Sequence[Sequence[int]],
    thresholds: Sequence[BoundThreshold],
) -> list[PathGenerationResult]:
    """The replaced level-synchronous batch generator, tuple frontier and all.

    Reads the modern generator's configuration (hasher, stopping rule,
    caps) so both implementations answer the identical problem; the body is
    the pre-kernel algorithm: per-entry Python collection of candidate
    extensions, one flat hash call per level, then a Python materialisation
    loop replaying the serial order.
    """
    probabilities = generator._probabilities
    (hasher,) = generator._hashers
    max_paths = generator._max_paths
    log_stop = (
        math.log(generator._stop_product) if generator._stop_product is not None else None
    )

    root_key = fold_path(())
    states: list[_ReferenceBatchState] = []
    for members, bound in zip(items_per_vector, thresholds):
        sorted_items = sorted(int(item) for item in members)
        item_array = np.asarray(sorted_items, dtype=np.int64)
        clamped = (
            np.maximum(probabilities[item_array], generator._probability_floor)
            if sorted_items
            else np.empty(0, dtype=np.float64)
        )
        log_probs = [math.log(value) for value in clamped.tolist()]
        states.append(_ReferenceBatchState(sorted_items, log_probs, bound, root_key))

    for level in range(generator._max_depth):
        work: list[tuple[_ReferenceBatchState, list, int]] = []
        key_parts: list[np.ndarray] = []
        item_parts: list[np.ndarray] = []
        probability_parts: list[np.ndarray] = []
        for state in states:
            if not state.active or not state.frontier:
                continue
            entries: list = []
            flat_items: list[int] = []
            entry_keys: list[int] = []
            entry_counts: list[int] = []
            items = state.items
            for entry in state.frontier:
                positions = entry[3]
                if not positions:
                    continue
                entries.append((entry, positions))
                flat_items.extend(items[position] for position in positions)
                entry_keys.append(entry[1])
                entry_counts.append(len(positions))
            if not entries:
                state.frontier = []
                continue
            item_array = np.asarray(flat_items, dtype=np.int64)
            probability_parts.append(state.bound.sampling_probabilities(level, item_array))
            item_parts.append(item_array)
            key_parts.append(
                np.repeat(np.asarray(entry_keys, dtype=np.uint64), entry_counts)
            )
            work.append((state, entries, len(flat_items)))
        if not work:
            break

        extended_keys, hash_values = hasher.extension_pairs_flat(
            np.concatenate(key_parts), np.concatenate(item_parts), level
        )
        chosen_flat = hash_values < np.concatenate(probability_parts)

        query_start = 0
        for state, entries, total_candidates in work:
            offset = query_start
            query_start += total_candidates
            next_frontier: list[tuple[tuple[int, ...], int, float, list[int]]] = []
            for entry, positions in entries:
                if state.truncated:
                    break
                path, _key, log_product, _positions = entry
                state.expansions += 1
                for local_index, position in enumerate(positions):
                    if not chosen_flat[offset + local_index]:
                        continue
                    new_path = path + (state.items[position],)
                    new_log_product = log_product + state.log_probs[position]
                    if log_stop is not None and new_log_product <= log_stop:
                        state.finished_paths.append(new_path)
                        state.finished_keys.append(int(extended_keys[offset + local_index]))
                    else:
                        next_frontier.append(
                            (
                                new_path,
                                int(extended_keys[offset + local_index]),
                                new_log_product,
                                [other for other in positions if other != position],
                            )
                        )
                    if (
                        max_paths is not None
                        and len(state.finished_paths) + len(next_frontier) >= max_paths
                    ):
                        state.truncated = True
                        break
                offset += len(positions)
            state.frontier = next_frontier
            if state.truncated:
                state.active = False

    results: list[PathGenerationResult] = []
    for state in states:
        if generator._collect_at_max_depth:
            for path, key, _log, _positions in state.frontier:
                state.finished_paths.append(path)
                state.finished_keys.append(key)
        results.append(
            PathGenerationResult(
                paths=state.finished_paths,
                truncated=state.truncated,
                expansions=state.expansions,
                keys=state.finished_keys,
            )
        )
    return results


# --------------------------------------------------------------------- #
# Reference implementation 2: the whole-stream chained compaction (the
# pre-kernel ``InvertedFilterIndex.compact`` collision fallback).
# --------------------------------------------------------------------- #


def _reference_compact(
    stream_keys: np.ndarray, stream_paths: list[tuple[int, ...]], stream_ids: np.ndarray
):
    """The replaced compaction on a forced-collision stream, end to end.

    Mirrors the pre-kernel ``compact()``: stable key sort, vectorised path
    consistency check, and — because the stream is known to collide — the
    per-entry Python dict loop (``_compact_chained``) over *every* posting,
    followed by the probe-table sort.  Returns the slot keys, posting lists
    and the key-order permutation for the equivalence assertion.
    """
    pending_items, pending_offsets = paths_to_csr(stream_paths)
    table_lengths = np.diff(pending_offsets)

    order = np.argsort(stream_keys, kind="stable")
    keys_sorted = stream_keys[order]
    refs_sorted = np.arange(stream_keys.size, dtype=np.int64)[order]
    group_start = np.empty(keys_sorted.size, dtype=bool)
    group_start[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=group_start[1:])

    # _paths_consistent: vectorised adjacent-pair comparison.
    adjacent = np.flatnonzero(~group_start[1:])
    left = refs_sorted[adjacent]
    right = refs_sorted[adjacent + 1]
    differing = left != right
    consistent = True
    if np.any(differing):
        left = left[differing]
        right = right[differing]
        lengths = table_lengths[left]
        if np.any(lengths != table_lengths[right]):
            consistent = False
        else:
            nonzero = lengths > 0
            left_items = _segment_gather(
                pending_items, pending_offsets[:-1][left[nonzero]], lengths[nonzero]
            )
            right_items = _segment_gather(
                pending_items, pending_offsets[:-1][right[nonzero]], lengths[nonzero]
            )
            consistent = bool(np.array_equal(left_items, right_items))
    assert not consistent, "forced-collision stream came out consistent"

    # _compact_chained: per-entry dict buckets over the whole stream.
    slot_by_key: dict = {}
    slot_paths: list[tuple[int, ...]] = []
    slot_keys: list[int] = []
    slot_postings: list[list[int]] = []
    for key, path, vector_id in zip(stream_keys.tolist(), stream_paths, stream_ids.tolist()):
        bucket = slot_by_key.get(key)
        slot = -1
        if bucket is None:
            slot_by_key[key] = slot = len(slot_paths)
            slot_paths.append(path)
            slot_keys.append(key)
            slot_postings.append([])
        elif isinstance(bucket, int):
            if slot_paths[bucket] == path:
                slot = bucket
            else:
                slot = len(slot_paths)
                slot_by_key[key] = [bucket, slot]
                slot_paths.append(path)
                slot_keys.append(key)
                slot_postings.append([])
        else:
            for candidate in bucket:
                if slot_paths[candidate] == path:
                    slot = candidate
                    break
            if slot < 0:
                slot = len(slot_paths)
                bucket.append(slot)
                slot_paths.append(path)
                slot_keys.append(key)
                slot_postings.append([])
        slot_postings[slot].append(vector_id)

    paths_to_csr(slot_paths)  # the old path rebuilt the CSR view of the slots
    key_array = np.asarray(slot_keys, dtype=np.uint64)
    key_order = np.argsort(key_array, kind="stable").astype(np.int64)  # probe tables
    return key_array, slot_postings, key_order


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #


def _build_workload(distribution):
    num_vectors = int(os.environ.get("REPRO_BENCH_KERNELS_N", "20000"))
    rng = rng_for("bench:kernels-dataset")
    dataset = [
        vector if vector else frozenset({0})
        for vector in distribution.sample_many(num_vectors, rng)
    ]
    members = [sorted(vector) for vector in dataset]
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=1, seed=1)
    )
    engine = index._create_engine(num_vectors)
    generator = engine._generator  # one repetition: a pass is that repetition's
    generator.ensure_hash_levels()
    policy = engine._threshold_policy
    bounds = [policy.bind(vector) for vector in members]
    return num_vectors, members, generator, policy, bounds


def _chunked(generate, members, bounds):
    """One ``generate`` output per chunk (flattened outside the timed region)."""
    return [
        generate(members[start : start + CHUNK], bounds[start : start + CHUNK])
        for start in range(0, len(members), CHUNK)
    ]


def _results_equal(new: list[PathGenerationResult], old: list[PathGenerationResult]) -> bool:
    return all(
        a.paths == b.paths
        and a.keys == b.keys
        and a.truncated == b.truncated
        and a.expansions == b.expansions
        for a, b in zip(new, old)
    )


# --------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------- #


def _run_kernels(distribution) -> dict:
    num_vectors, members, generator, policy, bounds = _build_workload(distribution)
    counters = new_counters()

    def generate_new(chunk_members, _chunk_bounds):
        # Binding the chunk is part of the timed work, like the reference's
        # own per-call sorting and threshold set-up.
        return generator.generate_batch(VectorBatch.bind(chunk_members, policy), counters)

    # Exclude one-time costs (hash levels) from both stages.
    warm_up(
        lambda: generator.generate_batch(VectorBatch.bind(members[:64], policy)),
        lambda: _reference_generate_batch(generator, members[:64], bounds[:64]),
    )

    new_start = time.perf_counter()
    new_batches = _chunked(generate_new, members, bounds)
    new_extension_seconds = time.perf_counter() - new_start

    old_start = time.perf_counter()
    old_chunks = _chunked(
        lambda m, b: _reference_generate_batch(generator, m, b), members, bounds
    )
    old_extension_seconds = time.perf_counter() - old_start

    # The array-native batches only become tuples here, for the comparison.
    new_results = [result for batch in new_batches for result in batch]
    old_results = [result for chunk in old_chunks for result in chunk]

    assert _results_equal(new_results, old_results), (
        "kernel path extension diverged from the tuple-frontier reference"
    )

    # Flatten the generated filters into one posting stream and force key
    # collisions on a slice of it, so compaction must resolve chains.
    entries: list[tuple[int, tuple[int, ...]]] = []
    stream_keys: list[int] = []
    for vector_id, result in enumerate(new_results):
        for path, key in zip(result.paths, result.keys):
            entries.append((vector_id, path))
            stream_keys.append(key)
    keys = np.asarray(stream_keys, dtype=np.uint64)
    num_entries = keys.size
    collide = rng_for("bench:kernels-dataset").choice(
        num_entries, size=max(1, int(num_entries * COLLISION_RATE)), replace=False
    )
    keys[collide] = keys[(collide + 1) % num_entries]

    def fill() -> InvertedFilterIndex:
        store = InvertedFilterIndex()
        start = 0
        while start < num_entries:
            end = start
            vector_id = entries[start][0]
            while end < num_entries and entries[end][0] == vector_id:
                end += 1
            store.add(
                vector_id,
                [entries[position][1] for position in range(start, end)],
                keys=[int(keys[position]) for position in range(start, end)],
            )
            start = end
        return store

    def small_forced_compact() -> None:
        store = InvertedFilterIndex()
        store.add(0, [(1, 2), (3, 4)], keys=[5, 5])
        store.compact()

    warm_up(small_forced_compact)  # first chain_resolve call stays untimed

    new_store = fill()

    new_start = time.perf_counter()
    new_store.compact()
    new_compaction_seconds = time.perf_counter() - new_start

    stream_paths = [path for _vector_id, path in entries]
    stream_ids = np.asarray([vector_id for vector_id, _path in entries], dtype=np.int64)
    old_start = time.perf_counter()
    key_array, slot_postings, key_order = _reference_compact(keys, stream_paths, stream_ids)
    old_compaction_seconds = time.perf_counter() - old_start

    assert np.array_equal(key_array[key_order], new_store._path_keys), (
        "kernel compaction slot keys diverged from the chained reference"
    )
    new_offsets = new_store._posting_offsets
    new_postings = [
        new_store._posting_ids[new_offsets[slot] : new_offsets[slot + 1]].tolist()
        for slot in range(new_store._path_keys.size)
    ]
    assert [slot_postings[slot] for slot in key_order.tolist()] == new_postings, (
        "kernel compaction posting lists diverged from the chained reference"
    )

    return {
        "num_vectors": num_vectors,
        "num_entries": int(num_entries),
        "paths_extended": int(counters[PATHS_EXTENDED]),
        "keys_folded": int(counters[KEYS_FOLDED]),
        "chain_probes": int(new_store.kernel_counters[CHAIN_PROBES]),
        "new_extension_seconds": new_extension_seconds,
        "old_extension_seconds": old_extension_seconds,
        "extension_speedup": old_extension_seconds / new_extension_seconds,
        "new_compaction_seconds": new_compaction_seconds,
        "old_compaction_seconds": old_compaction_seconds,
        "compaction_speedup": old_compaction_seconds / new_compaction_seconds,
    }


def test_kernel_stage_speedups(benchmark, bench_skewed_distribution):
    result = benchmark.pedantic(
        _run_kernels,
        kwargs=dict(distribution=bench_skewed_distribution),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        format_table(
            [
                {
                    "stage": "path extension",
                    "reference s": round(result["old_extension_seconds"], 3),
                    "kernel s": round(result["new_extension_seconds"], 3),
                    "speedup": round(result["extension_speedup"], 2),
                    "work": result["paths_extended"],
                },
                {
                    "stage": "build compaction",
                    "reference s": round(result["old_compaction_seconds"], 3),
                    "kernel s": round(result["new_compaction_seconds"], 3),
                    "speedup": round(result["compaction_speedup"], 2),
                    "work": result["chain_probes"],
                },
            ],
            title=(
                f"Kernel stage speedups (n={result['num_vectors']}, "
                f"{result['num_entries']} postings, identical results)"
            ),
        )
    )

    benchmark.extra_info.update(
        {
            "paper_expectation": "array kernels accelerate path extension and "
            "compaction without changing any generated filter or posting list",
            "num_vectors": result["num_vectors"],
            "num_entries": result["num_entries"],
            "paths_extended": result["paths_extended"],
            "keys_folded": result["keys_folded"],
            "chain_probes": result["chain_probes"],
            "kernel_extension_speedup": result["extension_speedup"],
            "kernel_compaction_speedup": result["compaction_speedup"],
            "min_kernel_extension_speedup": MIN_STAGE_SPEEDUP,
            "min_kernel_compaction_speedup": MIN_STAGE_SPEEDUP,
        }
    )

    assert result["extension_speedup"] >= MIN_STAGE_SPEEDUP, (
        f"path extension regression: {result['extension_speedup']:.2f}x "
        f"< {MIN_STAGE_SPEEDUP}x"
    )
    assert result["compaction_speedup"] >= MIN_STAGE_SPEEDUP, (
        f"build compaction regression: {result['compaction_speedup']:.2f}x "
        f"< {MIN_STAGE_SPEEDUP}x"
    )
