"""Property test: a loaded index is indistinguishable from the saved one.

For every index kind the persistence layer supports, build over a dataset,
apply dynamic updates (inserts and tombstones), run a mixed single/batch
query workload, save, reload, and assert that the loaded index reproduces
the original's results *and* work statistics bit-for-bit — the acceptance
bar of the binary persistence subsystem.
"""

from __future__ import annotations

import numpy as np
import pytest

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


def _make_index(kind: str, distribution):
    if kind == "skew_adaptive":
        return SkewAdaptiveIndex(
            distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=5, seed=41)
        )
    if kind == "correlated":
        return CorrelatedIndex(
            distribution, config=CorrelatedIndexConfig(alpha=0.7, repetitions=5, seed=42)
        )
    return ChosenPathIndex(
        dimension=distribution.dimension, b1=0.6, b2=0.3, repetitions=5, seed=43
    )


@pytest.mark.parametrize("kind", ["skew_adaptive", "correlated", "chosen_path"])
def test_save_load_equivalence_mixed_workload(
    kind, skewed_distribution, skewed_dataset, tmp_path
):
    rng = rng_for(f"tests:save-load:{kind}")
    index = _make_index(kind, skewed_distribution)
    index.build(skewed_dataset[:90])

    # Dynamic updates before saving: inserts extend the postings overlay,
    # removals populate the tombstone set.
    index.insert(skewed_dataset[100])
    index.insert(skewed_dataset[101])
    index.remove(3)
    index.remove(17)

    # A mixed workload: stored vectors, correlated perturbations and fresh
    # draws, queried both one-by-one and in batches.
    workload = list(skewed_dataset[:25])
    workload += [
        skewed_distribution.sample_correlated(skewed_dataset[i], 0.7, rng)
        for i in range(10)
    ]
    workload += [v if v else frozenset({0}) for v in skewed_distribution.sample_many(10, rng)]
    workload.append(frozenset())

    path = tmp_path / f"{kind}.bin"
    save_index(index, path)
    loaded = load_index(path)

    assert type(loaded) is type(index)
    assert loaded.num_indexed == index.num_indexed
    # Every BuildStats field survives but the wall-clock reading, which is
    # not saved (a loaded index reports 0.0).
    assert loaded.build_stats.to_dict() == {**index.build_stats.to_dict(), "build_seconds": 0.0}
    assert loaded.build_stats.repetitions == index.build_stats.repetitions

    # Single-query surface: identical results and identical work stats.
    for mode in ("first", "best"):
        for query in workload:
            original_result, original_stats = index.query(query, mode=mode)
            loaded_result, loaded_stats = loaded.query(query, mode=mode)
            assert loaded_result == original_result
            assert loaded_stats.to_dict() == original_stats.to_dict()

    # Candidate surface (the join primitive).
    for query in workload:
        original_candidates, original_stats = index.query_candidates(query)
        loaded_candidates, loaded_stats = loaded.query_candidates(query)
        assert loaded_candidates == original_candidates
        assert loaded_stats.to_dict() == original_stats.to_dict()

    # Batched surfaces: same results and same per-query work accounting.
    original_results, original_batch = index.query_batch(workload)
    loaded_results, loaded_batch = loaded.query_batch(workload)
    assert loaded_results == original_results
    assert [s.to_dict() for s in loaded_batch.per_query] == [
        s.to_dict() for s in original_batch.per_query
    ]

    original_sets, _ = index.query_candidates_batch(workload)
    loaded_sets, _ = loaded.query_candidates_batch(workload)
    assert loaded_sets == original_sets

    # Tombstones survived: removed ids never reappear on any surface.
    flattened = set().union(*loaded_sets) if loaded_sets else set()
    assert 3 not in flattened and 17 not in flattened

    # The similarity join (a consumer of the batch surface) agrees too.
    predicate = SimilarityPredicate("braun_blanquet", 0.5)
    original_join = similarity_join(index, skewed_dataset[:20], predicate)
    loaded_join = similarity_join(loaded, skewed_dataset[:20], predicate)
    assert loaded_join.pair_set() == original_join.pair_set()


@pytest.mark.parametrize("kind", ["skew_adaptive", "correlated"])
def test_double_round_trip_is_stable(kind, skewed_distribution, skewed_dataset, tmp_path):
    """save → load → save reproduces every stored byte exactly (canonical
    format: nothing drifts through a round trip), for both formats."""
    index = _make_index(kind, skewed_distribution)
    index.build(skewed_dataset[:60])
    first = tmp_path / "first.v3"
    second = tmp_path / "second.v3"
    save_index(index, first)
    save_index(load_index(first), second)
    names_a = sorted(entry.name for entry in first.iterdir())
    names_b = sorted(entry.name for entry in second.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    first_v2 = tmp_path / "first.bin"
    second_v2 = tmp_path / "second.bin"
    v2_config = PersistenceConfig(format_version=2)
    save_index(index, first_v2, config=v2_config)
    save_index(load_index(first_v2), second_v2, config=v2_config)
    with np.load(first_v2, allow_pickle=False) as container_a, np.load(
        second_v2, allow_pickle=False
    ) as container_b:
        assert sorted(container_a.files) == sorted(container_b.files)
        for name in container_a.files:
            array_a, array_b = container_a[name], container_b[name]
            assert array_a.dtype == array_b.dtype, name
            assert np.array_equal(array_a, array_b), name
    loaded = load_index(second)
    rng = np.random.default_rng(9)
    for target in range(10):
        query = skewed_distribution.sample_correlated(skewed_dataset[target], 0.7, rng)
        assert loaded.query(query)[0] == index.query(query)[0]
