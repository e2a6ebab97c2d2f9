"""Shared helpers for the batched query subsystem.

The filter-engine indexes batch natively (vectorised generation, probe
deduplication, array verification — see
:meth:`repro.core.engine.FilterEngine.query_batch`).  The hash-table style
baselines (MinHash, prefix filtering, brute force) expose the same batch
surface through the loop-based executor here, which still amortises what it
can: exact duplicate queries are answered once, and the whole batch is timed
as a unit so harnesses and benchmarks can treat every index uniformly.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.stats import BatchQueryStats, QueryStats

SetLike = Iterable[int]


def run_loop_batch(
    query_function: Callable[[frozenset[int]], tuple[object, QueryStats]],
    queries: Sequence[SetLike],
) -> tuple[list, BatchQueryStats]:
    """Execute a batch through a per-query callable, deduplicating inputs.

    Parameters
    ----------
    query_function:
        Called once per *distinct* query set; must return
        ``(result, QueryStats)``.
    queries:
        The query sets, in answer order; an exact duplicate is answered once
        and the result copied.

    Returns
    -------
    (results, stats):
        Results in input order plus a :class:`BatchQueryStats` whose
        ``per_query`` entries line up with the inputs; a cache hit's entry
        is :meth:`QueryStats.cache_hit` of the first occurrence's.
    """
    start = time.perf_counter()
    query_sets = [frozenset(int(item) for item in query) for query in queries]
    stats = BatchQueryStats(num_queries=len(query_sets))
    cache: dict[frozenset[int], tuple[object, QueryStats]] = {}
    results: list[Any] = []
    for query_set in query_sets:
        if query_set in cache:
            value, cached_stats = cache[query_set]
            stats.queries_deduplicated += 1
            results.append(set(value) if isinstance(value, set) else value)
            stats.per_query.append(cached_stats.cache_hit())
            continue
        value, query_stats = query_function(query_set)
        cache[query_set] = (value, query_stats)
        results.append(set(value) if isinstance(value, set) else value)
        stats.per_query.append(replace(query_stats))
    stats.elapsed_seconds = time.perf_counter() - start
    return results, stats
