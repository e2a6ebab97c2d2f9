"""Property tests: mmap-mode execution equals RAM-mode execution.

The tentpole contract of the sharded, mmap-backed persistence layer (format
v3): for all three filter-engine index kinds and all five public query
surfaces (single query, single candidates, batched queries, batched
candidates, similarity join), serving a saved index through lazily mapped
shards (``load_index(..., mode="mmap")``) returns results *bit-identical*
to loading it into RAM — including with tombstone removals overlaid after
the load and across v2 → v3 conversion,
and for the single-query surfaces the work counters must match too (they
are the paper's work measure; only ``shards_probed``, the storage-layout
observable, may differ).

This suite supersedes the CSR-vs-set-reference equivalence suite that
guarded the PR 3 refactor: the ``use_csr_merge=False`` escape hatch and the
loop reference implementations have been removed after their soak release.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.chosen_path import ChosenPathIndex
from repro.core.config import (
    CorrelatedIndexConfig,
    PersistenceConfig,
    SkewAdaptiveIndexConfig,
)
from repro.core.correlated_index import CorrelatedIndex
from repro.core.join import similarity_join
from repro.core.serialization import load_index, save_index
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.similarity.predicates import SimilarityPredicate
from repro.testing import rng_for

KINDS = ["skew_adaptive", "correlated", "chosen_path"]


def _make_index(kind: str, distribution):
    if kind == "skew_adaptive":
        return SkewAdaptiveIndex(
            distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=61)
        )
    if kind == "correlated":
        return CorrelatedIndex(
            distribution, config=CorrelatedIndexConfig(alpha=0.7, repetitions=4, seed=62)
        )
    return ChosenPathIndex(
        dimension=distribution.dimension, b1=0.6, b2=0.3, repetitions=4, seed=63
    )


def _workload(distribution, dataset, rng):
    queries = list(dataset[:20])
    queries += [
        distribution.sample_correlated(dataset[i], 0.7, rng) for i in range(8)
    ]
    dimension = distribution.dimension
    queries += [frozenset(rng.integers(0, dimension, size=7).tolist()) for _ in range(8)]
    queries += [frozenset(), dataset[0], dataset[0]]
    return queries


def _all_surfaces(index, queries, probes, predicate):
    """Results of every public query surface, as comparable structures."""
    single = [index.query(query)[0] for query in queries]
    best = [index.query(query, mode="best")[0] for query in queries]
    candidates = [index.query_candidates(query)[0] for query in queries]
    batched, _stats = index.query_batch(queries, batch_size=7)
    candidates_batched, _cstats = index.query_candidates_batch(queries, batch_size=7)
    arrays, _astats = index.query_candidates_arrays_batch(queries, batch_size=7)
    join = similarity_join(index, probes, predicate, batch_size=9)
    return {
        "single": single,
        "best": best,
        "candidates": candidates,
        "batched": batched,
        "candidates_batched": candidates_batched,
        "arrays": [array.tolist() for array in arrays],
        "join": sorted(join.pairs),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_mmap_equals_ram_all_surfaces(
    kind, skewed_distribution, skewed_dataset, tmp_path
):
    rng = rng_for("tests:skewed-dataset")
    index = _make_index(kind, skewed_distribution)
    index.build(skewed_dataset[:80])
    path = tmp_path / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=5))
    queries = _workload(skewed_distribution, skewed_dataset, rng)
    probes = skewed_dataset[:15] + [frozenset()]
    predicate = SimilarityPredicate("braun_blanquet", 0.4)

    ram = _all_surfaces(load_index(path), queries, probes, predicate)
    mmap = _all_surfaces(load_index(path, mode="mmap"), queries, probes, predicate)
    assert mmap == ram
    original = _all_surfaces(index, queries, probes, predicate)
    assert mmap == original
    # The arrays surface is the sorted view of the candidate sets.
    assert mmap["arrays"] == [sorted(c) for c in mmap["candidates_batched"]]


@pytest.mark.parametrize("kind", KINDS)
def test_mmap_equals_ram_after_removals(
    kind, skewed_distribution, skewed_dataset, tmp_path
):
    """Tombstones overlay at the engine level, so removals applied *after*
    an mmap load must flow through every surface exactly as in RAM mode —
    the mapped store itself is never touched."""
    index = _make_index(kind, skewed_distribution)
    index.build(skewed_dataset[:70])
    path = tmp_path / "index.v3"
    save_index(index, path)
    ram = load_index(path)
    mapped = load_index(path, mode="mmap")
    for vector_id in (0, 9, 23):
        ram.remove(vector_id)
        mapped.remove(vector_id)
    queries = _workload(
        skewed_distribution, skewed_dataset, rng_for("tests:skewed-dataset")
    )
    probes = skewed_dataset[:12]
    predicate = SimilarityPredicate("braun_blanquet", 0.4)

    ram_results = _all_surfaces(ram, queries, probes, predicate)
    mmap_results = _all_surfaces(mapped, queries, probes, predicate)
    assert mmap_results == ram_results
    removed = {0, 9, 23}
    for candidates in mmap_results["candidates"]:
        assert not candidates & removed


@pytest.mark.parametrize("kind", KINDS)
def test_mmap_equals_ram_after_v2_conversion(
    kind, skewed_distribution, skewed_dataset, tmp_path
):
    """v2 → v3 upgraded files answer identically in both load modes (the
    conversion round-trip is covered per surface in the serialization
    tests; this pins the property across all kinds)."""
    index = _make_index(kind, skewed_distribution)
    index.build(skewed_dataset[:60])
    index.insert(skewed_dataset[90])
    index.remove(2)
    v2_path = tmp_path / "index.bin"
    save_index(index, v2_path, config=PersistenceConfig(format_version=2))
    v3_path = tmp_path / "index.v3"
    save_index(load_index(v2_path), v3_path)
    queries = _workload(
        skewed_distribution, skewed_dataset, rng_for("tests:skewed-dataset")
    )
    probes = skewed_dataset[:10]
    predicate = SimilarityPredicate("braun_blanquet", 0.4)

    original = _all_surfaces(index, queries, probes, predicate)
    ram = _all_surfaces(load_index(v3_path), queries, probes, predicate)
    mmap = _all_surfaces(load_index(v3_path, mode="mmap"), queries, probes, predicate)
    assert ram == original
    assert mmap == original


def test_single_query_stats_match_across_modes(
    skewed_distribution, skewed_dataset, tmp_path
):
    """The single-query surfaces must report the *same work counters* in
    both modes: ``candidates_examined`` is the paper's work measure and must
    not depend on the storage layout.  ``shards_probed`` is the one counter
    that legitimately reflects the layout and is excluded."""
    index = _make_index("skew_adaptive", skewed_distribution)
    index.build(skewed_dataset[:80])
    path = tmp_path / "index.v3"
    save_index(index, path)
    ram = load_index(path)
    mapped = load_index(path, mode="mmap")
    ram.remove(5)
    mapped.remove(5)
    rng = rng_for("tests:skewed-dataset")
    for query in _workload(skewed_distribution, skewed_dataset, rng):
        if not query:
            continue
        for mode in ("first", "best"):
            result_ram, stats_ram = ram.query(query, mode=mode)
            result_mmap, stats_mmap = mapped.query(query, mode=mode)
            assert result_ram == result_mmap
            ram_dict, mmap_dict = stats_ram.to_dict(), stats_mmap.to_dict()
            ram_dict.pop("shards_probed")
            mmap_dict.pop("shards_probed")
            assert ram_dict == mmap_dict
        candidates_ram, cstats_ram = ram.query_candidates(query)
        candidates_mmap, cstats_mmap = mapped.query_candidates(query)
        assert candidates_ram == candidates_mmap
        ram_dict, mmap_dict = cstats_ram.to_dict(), cstats_mmap.to_dict()
        ram_dict.pop("shards_probed")
        mmap_dict.pop("shards_probed")
        assert ram_dict == mmap_dict


def test_mmap_opens_shards_lazily(skewed_distribution, skewed_dataset, tmp_path):
    """A cold mmap load must not open any shard; a handful of queries must
    leave untouched shards unopened (the lazy-paging contract)."""
    index = _make_index("skew_adaptive", skewed_distribution)
    index.build(skewed_dataset[:80])
    path = tmp_path / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=16))
    mapped = load_index(path, mode="mmap")
    engine = mapped._engine  # noqa: SLF001 - white-box lazy-open check
    assert engine is not None
    assert all(store.shards_opened == 0 for store in engine.filter_indexes)
    mapped.query(skewed_dataset[0])
    opened = sum(store.shards_opened for store in engine.filter_indexes)
    total = sum(store.num_shards for store in engine.filter_indexes)
    assert 0 < opened < total


DIMENSION = 48

item_sets = st.frozensets(
    st.integers(min_value=0, max_value=DIMENSION - 1), min_size=0, max_size=14
)


@given(
    st.lists(item_sets, min_size=2, max_size=12),
    st.lists(item_sets, min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["first", "best"]),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_mmap_equals_ram_random(tmp_path_factory, dataset, queries, seed, mode):
    """Hypothesis: random universes, datasets and queries — the mapped
    sharded execution and the RAM execution agree on every engine surface."""
    index = SkewAdaptiveIndex(
        np.full(DIMENSION, 0.12),
        config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=seed),
    )
    index.build(dataset)
    path = tmp_path_factory.mktemp("mode-equivalence") / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=4))
    ram = load_index(path)
    mapped = load_index(path, mode="mmap")

    expected_ids = [ram.query(query, mode=mode)[0] for query in queries]
    expected_candidates = [ram.query_candidates(query)[0] for query in queries]
    expected_batch, _ = ram.query_batch(queries, mode=mode, batch_size=4)
    assert [mapped.query(query, mode=mode)[0] for query in queries] == expected_ids
    assert [mapped.query_candidates(query)[0] for query in queries] == expected_candidates
    batched, _stats = mapped.query_batch(queries, mode=mode, batch_size=4)
    assert batched == expected_batch
    candidate_arrays, _astats = mapped.query_candidates_arrays_batch(queries, batch_size=4)
    assert [set(array.tolist()) for array in candidate_arrays] == expected_candidates
