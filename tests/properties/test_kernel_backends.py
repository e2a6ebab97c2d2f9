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
from repro.core.paths import PathGenerator, VectorBatch, default_max_depth
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.core.thresholds import AdversarialThreshold
from repro.hashing.pairwise import PathHasher
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


def test_small_and_large_batches_agree(backend, skewed_distribution, skewed_dataset):
    """The small-batch fast path matches the CSR kernel pipeline exactly.

    ``PathGenerator.generate_batch`` routes batches of at most
    ``_SMALL_BATCH_MAX`` vectors through a tuple-frontier fast path; feeding
    the same vectors one at a time (fast path) and as one large batch
    (kernel pipeline) must produce identical paths, flags and counter
    totals.
    """
    from repro.core.paths import _SMALL_BATCH_MAX

    probabilities = skewed_distribution.probabilities
    generator = PathGenerator(
        probabilities,
        PathHasher(23),
        stop_product=1.0 / 64.0,
        max_depth=default_max_depth(64, float(probabilities.max())),
        max_paths=120,
    )
    policy = AdversarialThreshold(0.5)
    vectors = [sorted(vector) for vector in skewed_dataset[: 4 * _SMALL_BATCH_MAX]]
    bounds = [policy.bind(members) for members in vectors]

    large_counters = new_counters()
    large = generator.generate_batch(
        VectorBatch.bind(vectors, policy), counters=large_counters
    )
    assert len(vectors) > _SMALL_BATCH_MAX  # the batch above took the kernel path

    small_counters = new_counters()
    small = []
    for members in vectors:
        small.extend(
            generator.generate_batch(
                VectorBatch.bind([members], policy), counters=small_counters
            )
        )

    for one, many in zip(small, large):
        assert one.paths == many.paths
        assert one.keys == many.keys
        assert one.truncated == many.truncated
        assert one.expansions == many.expansions
    assert small_counters.tolist() == large_counters.tolist()

    serial = [generator.generate(members, bound) for members, bound in zip(vectors, bounds)]
    for one, many in zip(serial, large):
        assert one.paths == many.paths
        assert one.truncated == many.truncated


def test_kernel_level_equivalence(backend):
    """Exercise each kernel callable directly and compare with pure numpy."""
    rng = rng_for("tests:skewed-dataset")
    active = get_impl()
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setenv(KERNELS_ENV_VAR, "python")
    try:
        reference = get_impl()
    finally:
        monkeypatch.undo()

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
