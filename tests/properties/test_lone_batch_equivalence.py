"""Property: a batch reports each query's work exactly as a lone query does.

``query`` runs as a one-query chunk of the runner behind ``query_batch``, and
both report the paper's as-if work: in ``mode="first"`` a query's counts end
at its hit, however much of the repetition the chunk verified.  So in both
modes, in RAM and mmap, after removals and for any chunk size, every
per-query entry of a batch equals the lone ``query`` stats of that query
field by field (kernel counters aside: those are the chunk's), and a
duplicate query's entry is its first occurrence's ``cache_hit()``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.serialization import load_index, save_index
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.testing import rng_for

REMOVED = (4, 17, 58)


@pytest.fixture(scope="module")
def indexes(skewed_distribution, skewed_dataset, tmp_path_factory):
    built = SkewAdaptiveIndex(
        skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=6, seed=71)
    )
    built.build(skewed_dataset[:100])
    path = tmp_path_factory.mktemp("lone-batch") / "index.v3"
    save_index(built, path, config=PersistenceConfig(shards=4))
    loaded = {"ram": load_index(path), "mmap": load_index(path, mode="mmap")}
    for index in loaded.values():
        for vector_id in REMOVED:
            index.remove(vector_id)
    return loaded


@pytest.fixture(scope="module")
def pool(skewed_distribution, skewed_dataset):
    """Planted queries (hits at various repetitions, some near removed
    vectors), stored vectors themselves, fresh queries and the empty set."""
    rng = rng_for("tests:lone-batch-pool")
    sources = [*REMOVED, *rng.integers(100, size=13).tolist()]
    planted = [
        skewed_distribution.sample_correlated(skewed_dataset[source], 0.75, rng)
        for source in sources
    ]
    fresh = skewed_distribution.sample_many(10, rng)
    queries = planted + skewed_dataset[20:24] + fresh + [frozenset()]
    assert len(queries) == 31
    return queries


def work(stats) -> dict:
    fields = stats.to_dict()
    del fields["kernel"]
    return fields


@given(
    picks=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=24),
    batch_size=st.integers(min_value=1, max_value=9),
    mode=st.sampled_from(["first", "best"]),
    store=st.sampled_from(["ram", "mmap"]),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_per_query_stats_equal_lone_query_stats(
    indexes, pool, picks, batch_size, mode, store
):
    index = indexes[store]
    # Always a duplicate and an empty query, wherever the draw put them.
    queries = [pool[pick] for pick in picks] + [frozenset(), pool[picks[0]]]
    results, stats = index.query_batch(queries, mode=mode, batch_size=batch_size)
    first_seen = {}
    for query, result, entry in zip(queries, results, stats.per_query):
        if query in first_seen:
            assert entry == first_seen[query].cache_hit()
            continue
        lone_result, lone_stats = index.query(query, mode=mode)
        assert result == lone_result
        assert work(entry) == work(lone_stats)
        first_seen[query] = lone_stats
