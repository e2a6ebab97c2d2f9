"""Batched vs. looped single-query throughput — the batch subsystem's gate.

Builds a skew-adaptive index over ``n`` vectors (``REPRO_BENCH_BATCH_N``,
default 10 000) and answers the same mixed workload (planted correlated
queries + fresh draws) twice: once through the per-query loop, once through
``query_batch``.  The batched execution must answer the identical workload
with identical results at >= 1.5x the looped throughput — this bound is
enforced both here and by ``benchmarks/check_batch_regression.py``, which CI
runs against the exported pytest-benchmark JSON (``BENCH_batch.json``).

CI runs this on a small size (n=2000) as a smoke gate; the acceptance-level
configuration is the default n=10000.
"""

from __future__ import annotations

import os
import time

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.evaluation.reporting import format_table
from repro.testing import rng_for

from conftest import warm_up

#: Minimum batched/looped throughput ratio; keep in sync with
#: benchmarks/check_batch_regression.py (the CI gate).
MIN_SPEEDUP = 1.5


def _workload(distribution, dataset, num_queries, rng):
    """Half planted correlated queries, half fresh draws from the model."""
    planted = [
        distribution.sample_correlated(dataset[index], 0.8, rng)
        for index in range(num_queries // 2)
    ]
    fresh = [
        vector if vector else frozenset({0})
        for vector in distribution.sample_many(num_queries - len(planted), rng)
    ]
    return planted + fresh


def _run(distribution, num_vectors: int, num_queries: int) -> dict:
    rng = rng_for("bench:queries")
    dataset = [
        vector if vector else frozenset({0})
        for vector in distribution.sample_many(num_vectors, rng)
    ]
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=1)
    )
    build_stats = index.build(dataset)
    queries = _workload(distribution, dataset, num_queries, rng)

    # Warm both paths (hash levels, CSR store) before timing.
    warm_up(lambda: index.query(queries[0]), lambda: index.query_batch(queries[:8]))

    loop_start = time.perf_counter()
    looped = [index.query(query)[0] for query in queries]
    loop_seconds = time.perf_counter() - loop_start

    batch_start = time.perf_counter()
    batched, batch_stats = index.query_batch(queries)
    batch_seconds = time.perf_counter() - batch_start

    assert batched == looped, "batched results diverged from the single-query loop"
    return {
        "num_vectors": num_vectors,
        "num_queries": num_queries,
        "build_seconds": build_stats.build_seconds,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "loop_qps": num_queries / loop_seconds,
        "batch_qps": num_queries / batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "dedupe_hit_rate": batch_stats.dedupe_hit_rate,
        "found": sum(1 for result in batched if result is not None),
    }


def test_batched_vs_looped_throughput(benchmark, bench_skewed_distribution):
    num_vectors = int(os.environ.get("REPRO_BENCH_BATCH_N", "10000"))
    num_queries = int(os.environ.get("REPRO_BENCH_BATCH_QUERIES", "300"))

    result = benchmark.pedantic(
        _run,
        kwargs=dict(
            distribution=bench_skewed_distribution,
            num_vectors=num_vectors,
            num_queries=num_queries,
        ),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        format_table(
            [
                {
                    "n": result["num_vectors"],
                    "queries": result["num_queries"],
                    "loop q/s": round(result["loop_qps"], 1),
                    "batch q/s": round(result["batch_qps"], 1),
                    "speedup": round(result["speedup"], 2),
                    "dedupe": round(result["dedupe_hit_rate"], 4),
                }
            ],
            title="Batched vs looped query throughput (identical results)",
        )
    )

    benchmark.extra_info.update(
        {
            "paper_expectation": "batch execution amortises filter hashing, probe "
            "lookups and verification across queries without changing any result",
            "num_vectors": result["num_vectors"],
            "num_queries": result["num_queries"],
            "loop_qps": result["loop_qps"],
            "batch_qps": result["batch_qps"],
            "batched_speedup": result["speedup"],
            "dedupe_hit_rate": result["dedupe_hit_rate"],
            "min_speedup_gate": MIN_SPEEDUP,
        }
    )

    assert result["speedup"] >= MIN_SPEEDUP, (
        f"batched throughput regression: {result['speedup']:.2f}x < {MIN_SPEEDUP}x"
    )
