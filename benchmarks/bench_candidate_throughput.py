"""CSR-native vs set-based candidate throughput — the merge pipeline's gate.

Builds a skew-adaptive index over ``n`` vectors (``REPRO_BENCH_CAND_N``,
default 10 000) and runs the same single-query ``query_candidates`` workload
twice on the *same built index*: once through a per-path set-based reference
loop (reimplemented here — the ``use_csr_merge=False`` engine escape hatch
was removed after its one-release soak, so the benchmark keeps its own
yardstick) and once through the CSR-native probe/merge pipeline.  Both runs
must return identical candidate sets, and the CSR path must deliver >= 1.5x
the reference throughput — the bound is enforced both here and by
``benchmarks/check_batch_regression.py``, which CI runs against the exported
pytest-benchmark JSON (``BENCH_candidates.json``).

CI runs this on a small size (n=2000) as a smoke gate; the acceptance-level
configuration is the default n=10000, where the measured speedup is ~2.5-3x.
"""

from __future__ import annotations

import os
import time

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.evaluation.reporting import format_table
from repro.testing import rng_for

from conftest import warm_up

#: Minimum CSR/reference throughput ratio; keep in sync with
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


def _reference_candidates(index, query) -> set[int]:
    """Pre-refactor execution shape: per-path lookups into Python sets.

    Mirrors what ``use_csr_merge=False`` used to run — per-repetition filter
    generation, one posting-list lookup per path, ``set.add`` per collision
    — so the gated ratio keeps measuring the same modernisation.
    """
    engine = index._engine  # noqa: SLF001 - benchmark reaches into the engine
    query_set = frozenset(int(item) for item in query)
    candidates: set[int] = set()
    if not query_set or not len(engine.vectors):
        return candidates
    members = sorted(query_set)
    for repetition in range(engine.repetitions):
        bound = engine._threshold_policy.bind(members)  # noqa: SLF001
        generation = engine._generator.generate(  # noqa: SLF001
            members, bound, repetition=repetition
        )
        for candidate_id in engine._indexes[repetition].candidates(  # noqa: SLF001
            generation.paths, generation.keys
        ):
            if candidate_id not in engine._removed:  # noqa: SLF001
                candidates.add(candidate_id)
    return candidates


def _run(distribution, num_vectors: int, num_queries: int) -> dict:
    rng = rng_for("bench:candidate-throughput")
    dataset = [
        vector if vector else frozenset({0})
        for vector in distribution.sample_many(num_vectors, rng)
    ]
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=1)
    )
    build_stats = index.build(dataset)
    queries = _workload(distribution, dataset, num_queries, rng)

    # Warm both paths (hash levels, probe tables, kernel JIT) before timing.
    warm_up(
        lambda: _reference_candidates(index, queries[0]),
        lambda: index.query_candidates(queries[0]),
    )

    reference_start = time.perf_counter()
    reference = [_reference_candidates(index, query) for query in queries]
    reference_seconds = time.perf_counter() - reference_start

    csr_start = time.perf_counter()
    merged = [index.query_candidates(query)[0] for query in queries]
    csr_seconds = time.perf_counter() - csr_start

    assert merged == reference, "CSR merge diverged from the set-based reference"
    return {
        "num_vectors": num_vectors,
        "num_queries": num_queries,
        "build_seconds": build_stats.build_seconds,
        "reference_seconds": reference_seconds,
        "csr_seconds": csr_seconds,
        "reference_qps": num_queries / reference_seconds,
        "csr_qps": num_queries / csr_seconds,
        "speedup": reference_seconds / csr_seconds,
        "mean_candidates": sum(len(c) for c in merged) / max(len(merged), 1),
    }


def test_csr_vs_set_candidate_throughput(benchmark, bench_skewed_distribution):
    num_vectors = int(os.environ.get("REPRO_BENCH_CAND_N", "10000"))
    num_queries = int(os.environ.get("REPRO_BENCH_CAND_QUERIES", "300"))

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
                    "set q/s": round(result["reference_qps"], 1),
                    "csr q/s": round(result["csr_qps"], 1),
                    "speedup": round(result["speedup"], 2),
                    "mean cands": round(result["mean_candidates"], 1),
                }
            ],
            title="CSR-native vs set-based candidate throughput (identical results)",
        )
    )

    benchmark.extra_info.update(
        {
            "paper_expectation": "array-native probe/merge keeps candidate "
            "verification cheap without changing any candidate set",
            "num_vectors": result["num_vectors"],
            "num_queries": result["num_queries"],
            "reference_qps": result["reference_qps"],
            "csr_qps": result["csr_qps"],
            "csr_merge_speedup": result["speedup"],
            "min_speedup_gate": MIN_SPEEDUP,
        }
    )

    assert result["speedup"] >= MIN_SPEEDUP, (
        f"CSR merge throughput regression: {result['speedup']:.2f}x < {MIN_SPEEDUP}x"
    )
