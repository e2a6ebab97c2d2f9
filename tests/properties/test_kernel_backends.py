"""Cross-backend kernel equivalence: ``REPRO_KERNELS=numba|python``.

The hot-path kernels (``repro.core.kernels``) promise bit-identical results
across their backends: whatever ``get_impl()`` resolves to, every query
surface must return the same ids and work counters, and every build must
produce the same compacted slot layout.  This suite sweeps the backend
environment switch over build/compact plus the five public query surfaces
(single query, single candidates, batched queries, batched candidates,
similarity join), comparing each backend's results and kernel counter
totals against the pure-python reference.

The numba leg skips itself when numba is not installed (CI runs a
dedicated no-numba matrix leg on exactly that configuration); the dispatch
error contract — ``REPRO_KERNELS=numba`` without numba raises, unknown
values raise — is covered unconditionally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.join import similarity_join
from repro.core.kernels import (
    COUNTER_NAMES,
    KERNELS_ENV_VAR,
    available_backends,
    get_impl,
    new_counters,
)
from repro.core.kernels._contract import (
    CHAIN_PROBES,
    DEDUPE_HITS,
    KEYS_FOLDED,
    MERGE_ROWS,
    PATHS_EXTENDED,
)
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.hashing.pairwise import PathHasher, extend_key, hash_keys
from repro.similarity.predicates import SimilarityPredicate
from repro.testing import rng_for

BACKENDS = ("python", "numba")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Each available kernel backend, with ``REPRO_KERNELS`` pinned to it."""
    name = request.param
    if name not in available_backends():
        pytest.skip(f"kernel backend {name!r} is not installed")
    monkeypatch.setenv(KERNELS_ENV_VAR, name)
    return name


def _workload(distribution, dataset, rng):
    queries = list(dataset[:12])
    queries += [
        distribution.sample_correlated(dataset[i], 0.7, rng) for i in range(6)
    ]
    dimension = distribution.dimension
    queries += [frozenset(rng.integers(0, dimension, size=7).tolist()) for _ in range(6)]
    queries += [frozenset(), dataset[0]]
    return queries


def _build_index(distribution, dataset):
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=17)
    )
    build_stats = index.build(dataset)
    return index, build_stats


def _all_surfaces(index, queries, probes, predicate):
    """Every public query surface's ids, stats dicts and kernel counters."""
    single = [index.query(query) for query in queries]
    candidates = [index.query_candidates(query) for query in queries]
    batched_ids, batched_stats = index.query_batch(queries, batch_size=5)
    cand_batched, cand_stats = index.query_candidates_batch(queries, batch_size=5)
    join = similarity_join(index, probes, predicate, batch_size=7)
    return {
        "single_ids": [result for result, _stats in single],
        "single_stats": [stats.to_dict() for _result, stats in single],
        "candidates": [found for found, _stats in candidates],
        "candidate_kernels": [stats.kernel.to_dict() for _found, stats in candidates],
        "batched_ids": batched_ids,
        "batched_kernel": batched_stats.kernel.to_dict(),
        "candidates_batched": cand_batched,
        "candidates_batched_kernel": cand_stats.kernel.to_dict(),
        "join": sorted(join.pairs),
    }


@pytest.fixture(scope="module")
def python_reference(skewed_distribution, skewed_dataset):
    """Build + query results computed on the forced pure-python backend."""
    rng = rng_for("tests:skewed-dataset")
    queries = _workload(skewed_distribution, skewed_dataset, rng)
    probes = skewed_dataset[:10] + [frozenset()]
    predicate = SimilarityPredicate("braun_blanquet", 0.4)
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setenv(KERNELS_ENV_VAR, "python")
    try:
        index, build_stats = _build_index(skewed_distribution, skewed_dataset)
        surfaces = _all_surfaces(index, queries, probes, predicate)
    finally:
        monkeypatch.undo()
    return {
        "queries": queries,
        "probes": probes,
        "predicate": predicate,
        "build_kernel": build_stats.kernel.to_dict(),
        "surfaces": surfaces,
    }


def test_backend_equals_python_reference(
    backend, python_reference, skewed_distribution, skewed_dataset
):
    """Build + all five query surfaces are bit-identical across backends."""
    index, build_stats = _build_index(skewed_distribution, skewed_dataset)
    assert build_stats.kernel.to_dict() == python_reference["build_kernel"]
    surfaces = _all_surfaces(
        index,
        python_reference["queries"],
        python_reference["probes"],
        python_reference["predicate"],
    )
    assert surfaces == python_reference["surfaces"]


def _python_impl():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(KERNELS_ENV_VAR, "python")
        return get_impl()


@pytest.mark.parametrize("max_paths", [-1, 6])
def test_extend_level_with_repetition_tables(backend, max_paths):
    """``extend_level`` over a multi-repetition coefficient table.

    A fused pass gives every frontier entry its repetition's row of the
    level's ``(a, b)`` table.  The active backend must match the numpy
    reference on the whole pass, and the pass must equal its repetitions run
    one at a time with one-row tables — which pins the per-entry lookup
    itself, not just that both backends share it.
    """
    rng = rng_for("tests:skewed-dataset")
    repetitions, vectors_per_repetition = 3, 5
    num_rows = repetitions * vectors_per_repetition
    coefficients = np.array(
        [PathHasher(seed).level_coefficients(2) for seed in range(repetitions)], dtype=np.uint64
    )
    table_a, table_b = coefficients[:, 0].copy(), coefficients[:, 1].copy()
    # Rows 4 and 11 have no frontier entry; the others own one to three.
    entry_vector = np.repeat(
        np.arange(num_rows), [2, 1, 3, 1, 0, 2, 2, 1, 1, 3, 1, 0, 2, 1, 2]
    ).astype(np.int64)
    entry_repetition = entry_vector // vectors_per_repetition
    entry_sizes = rng.integers(1, 9, size=entry_vector.size)
    entry_offsets = np.concatenate([[0], np.cumsum(entry_sizes)]).astype(np.int64)
    num_candidates = int(entry_offsets[-1])
    inputs = (
        rng.integers(0, 2**63, size=num_candidates).astype(np.uint64),
        rng.integers(0, 500, size=num_candidates).astype(np.int64),
        rng.uniform(0.2, 0.9, size=num_candidates),
        -rng.uniform(0.0, 3.0, size=num_candidates),
        -rng.uniform(0.1, 2.0, size=num_candidates),
    )
    vec_finished = rng.integers(0, 3, size=num_rows).astype(np.int64)

    def run(impl, candidates, entries, table):
        counters = new_counters()
        lengths = np.diff(entry_offsets)[entries]
        outputs = impl.extend_level(
            *(column[candidates] for column in inputs),
            np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            entry_vector[entries],
            entry_repetition[entries] if table.size > 1 else np.zeros(entries.size, np.int64),
            num_rows,
            vec_finished,
            -2.5,
            True,
            max_paths,
            table_a[table],
            table_b[table],
            counters,
        )
        new_keys, status, new_logs, expansions, truncated = outputs
        chosen = status != 0  # keys/logs are unspecified where nothing was chosen
        return (
            status.tolist(),
            new_keys[chosen].tolist(),
            new_logs[chosen].tolist(),
            expansions.tolist(),
            truncated.tolist(),
            counters.tolist(),
        )

    everything = np.arange(num_candidates), np.arange(entry_vector.size)
    all_rows = np.arange(repetitions)
    fused = run(get_impl(), *everything, all_rows)
    assert fused == run(_python_impl(), *everything, all_rows)
    assert (max_paths >= 0) == any(fused[4])

    cand_entry = np.repeat(np.arange(entry_vector.size), entry_sizes)
    alone = [
        run(
            get_impl(),
            np.flatnonzero(entry_repetition[cand_entry] == repetition),
            np.flatnonzero(entry_repetition == repetition),
            np.array([repetition]),
        )
        for repetition in range(repetitions)
    ]
    assert fused[0] == [flag for part in alone for flag in part[0]]
    assert fused[1] == [key for part in alone for key in part[1]]
    assert fused[2] == [log for part in alone for log in part[2]]
    for column in (3, 4, 5):
        assert fused[column] == np.sum([part[column] for part in alone], axis=0).tolist()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_extend_level_truncation_boundary(backend, offset):
    """The ``max_paths`` cap on both sides of the highest run a level can reach.

    Every candidate is chosen (probability 1.0) and belongs to vector 1,
    which also holds the largest finished count.  Its run at the last
    candidate is then ``num_candidates + max(vec_finished)``: a cap equal to
    that cuts off at the last candidate, one below cuts off the candidate
    before it, and one above never binds.
    """
    entry_offsets = np.array([0, 2, 5, 7], dtype=np.int64)
    entry_vector = np.array([1, 1, 1], dtype=np.int64)
    vec_finished = np.array([2, 4, 3], dtype=np.int64)
    prefix_keys = np.array([11, 11, 12, 12, 12, 13, 13], dtype=np.uint64)
    items = np.array([3, 8, 1, 4, 9, 2, 6], dtype=np.int64)
    parent_logs = np.full(7, -0.5)
    item_logs = np.array([-0.1, -2.0, -0.3, -3.0, -0.2, -0.4, -2.5])
    a, b = (np.array([value], dtype=np.uint64) for value in PathHasher(5).level_coefficients(1))
    boundary = items.size + int(vec_finished.max())

    def run(impl):
        counters = new_counters()
        new_keys, status, new_logs, expansions, truncated = impl.extend_level(
            prefix_keys, items, np.ones(7), parent_logs, item_logs, entry_offsets,
            entry_vector, np.zeros(3, dtype=np.int64), 3, vec_finished, -1.0, True,
            boundary + offset, a, b, counters,
        )
        chosen = status != 0
        return (
            status.tolist(),
            new_keys[chosen].tolist(),
            new_logs[chosen].tolist(),
            expansions.tolist(),
            truncated.tolist(),
            counters.tolist(),
        )

    outputs = run(get_impl())
    assert outputs == run(_python_impl())
    status, keys, logs, expansions, truncated, counters = outputs
    kept = 6 if offset < 0 else 7
    assert status == [1, 2, 1, 2, 1, 1, 2][:kept] + [0] * (7 - kept)
    assert keys == [extend_key(int(k), int(i)) for k, i in zip(prefix_keys, items)][:kept]
    assert logs == (parent_logs + item_logs)[:kept].tolist()
    assert expansions == [0, 3, 0]
    assert truncated == [False, offset <= 0, False]
    assert counters[PATHS_EXTENDED] == kept
    assert counters[KEYS_FOLDED] == 7
    assert counters[CHAIN_PROBES] == counters[MERGE_ROWS] == counters[DEDUPE_HITS] == 0


def test_numba_hash_equals_lazy_hash_keys(hash_grid):
    """The compiled scalar hash, reduced eagerly, equals the lazily reduced ``hash_keys``."""
    if "numba" not in available_backends():
        pytest.skip("kernel backend 'numba' is not installed")
    from repro.core.kernels import _numba_impl

    keys, pairs = hash_grid
    low32 = np.uint64((1 << 32) - 1)
    for a, b in pairs:
        a_u64, b_u64 = np.uint64(a), np.uint64(b)
        compiled = [
            _numba_impl._hash_key(key, a_u64 >> np.uint64(32), a_u64 & low32, b_u64)
            for key in keys
        ]
        assert compiled == hash_keys(keys, a, b).tolist(), (a, b)


def test_kernel_level_equivalence(backend):
    """Exercise each kernel callable directly and compare with pure numpy."""
    rng = rng_for("tests:skewed-dataset")
    active = get_impl()
    reference = _python_impl()

    ids = rng.integers(0, 50, size=200).astype(np.int64)
    labels = rng.integers(0, 8, size=200).astype(np.int64)
    counters_a, counters_b = new_counters(), new_counters()
    merged_a = active.merge_labeled(labels, ids, counters_a)
    merged_b = reference.merge_labeled(labels, ids, counters_b)
    assert [arr.tolist() for arr in merged_a] == [arr.tolist() for arr in merged_b]
    assert counters_a.tolist() == counters_b.tolist()
    assert counters_a[MERGE_ROWS] == ids.size
    assert counters_a[DEDUPE_HITS] == ids.size - merged_a[0].size

    values = rng.integers(0, 30, size=64).astype(np.int64)
    counters_a, counters_b = new_counters(), new_counters()
    assert (
        active.sorted_unique(values, counters_a).tolist()
        == reference.sorted_unique(values, counters_b).tolist()
    )
    ordered_a = active.ordered_unique(values, counters_a)
    ordered_b = reference.ordered_unique(values, counters_b)
    assert [arr.tolist() for arr in ordered_a] == [arr.tolist() for arr in ordered_b]
    assert counters_a.tolist() == counters_b.tolist()


def test_counter_names_cover_contract():
    assert len(COUNTER_NAMES) == 5
    assert COUNTER_NAMES[PATHS_EXTENDED] == "paths_extended"
    assert COUNTER_NAMES[KEYS_FOLDED] == "keys_folded"
    assert COUNTER_NAMES[CHAIN_PROBES] == "chain_probes"
    assert COUNTER_NAMES[MERGE_ROWS] == "merge_rows"
    assert COUNTER_NAMES[DEDUPE_HITS] == "dedupe_hits"


def test_requesting_missing_numba_raises(monkeypatch):
    if "numba" in available_backends():
        pytest.skip("numba is installed; the missing-backend error cannot fire")
    monkeypatch.setenv(KERNELS_ENV_VAR, "numba")
    with pytest.raises(RuntimeError, match="numba"):
        get_impl()


def test_unknown_backend_value_raises(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV_VAR, "fortran")
    with pytest.raises(ValueError, match="REPRO_KERNELS"):
        get_impl()
