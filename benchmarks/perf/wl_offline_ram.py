"""Workload ``offline_ram``: the library user cleaning data in one process.

The RAM index the set-up built answers, from one caller: (A) rounds of
``query_batch`` over mixed query sets, (B) rounds of ``similarity_join`` with
planted probes — the paper's headline join, no early exit — and (C) the
request mix the two serving workloads send (three ``query`` calls to every
``query_batch`` of eight), in process: its ``p50_ms``/``p95_ms`` are the
floor the serving layers add to.  ``core.paths`` + ``core.kernels`` + the
``core.engine`` merge do nearly all the work; ``serve.*``, ``dist.*`` and
``core.mmap_store`` do none.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import layers as layer_metrics
from harness import (
    STREAM_QUERIES,
    THRESHOLD,
    Context,
    Outcome,
    check_match,
    cold_open_ms,
    cold_opens,
    half_planted,
    mixed_queries,
    overhead_share,
    own_peak_rss_mb,
    per_second,
    percentile,
    planted_probe_pool,
    request_mix,
    rng_for,
    tail_percentile,
    timed_rounds,
)
from repro.baselines.brute_force import BruteForceIndex
from repro.core import join
from repro.core.stats import BatchQueryStats
from repro.similarity.predicates import SimilarityPredicate
from spans import SpanSummary

#: Distinct query sets per phase; the rounds cycle through them, and the
#: first pass over a pool is the census that exact counts come from.
BATCH_POOL = 4
JOIN_POOL = 2
REQUEST_POOL = 512
COLD_OPENS = 5
#: Shares of ``--seconds`` the three phases get.
BATCH_SHARE, JOIN_SHARE, REQUEST_SHARE = 0.4, 0.3, 0.2

#: Span names that must fire in a traced run of this workload.
SPANS = (
    "core.engine:query",
    "core.engine:query_batch",
    "core.engine:query_candidates_arrays_batch",
    "core.paths:generate_batch",
    "core.kernels:extend_level",
    "core.kernels:ordered_unique",
    "core.inverted_index:probe_batch_routed",
    "core.join:similarity_join",
)


def answer(index: Any, queries: list[frozenset[int]]) -> list[int | None]:
    """One request of the mix: a lone query through ``query``, more through ``query_batch``."""
    if len(queries) == 1:
        return [index.query(queries[0])[0]]
    return index.query_batch(queries)[0]


def run(context: Context) -> Outcome:
    shared, ledger, tracer = context.shared, context.ledger, context.tracer
    scale, index = shared.scale, shared.index
    predicate = SimilarityPredicate("braun_blanquet", THRESHOLD)

    prep_start = time.perf_counter()
    rng = rng_for(shared.seed, STREAM_QUERIES)
    batch_pool = [
        mixed_queries(
            shared.distribution, shared.vectors, half_planted(scale.batch_queries, rng), rng
        )
        for _ in range(BATCH_POOL)
    ]
    join_pool = planted_probe_pool(shared, rng, JOIN_POOL)
    requests = request_mix(shared.distribution, shared.vectors, REQUEST_POOL, rng)
    index.query_batch(batch_pool[0].queries)
    join.similarity_join(index, join_pool[0].queries[:32], predicate)
    for request in requests[:32]:
        answer(index, request.queries)
    prep_seconds = time.perf_counter() - prep_start

    # -- phase A: query_batch rounds ------------------------------------ #
    first_answers: dict[int, list[int | None]] = {}
    census = BatchQueryStats()
    traced_stats = BatchQueryStats()
    traced_queries = 0
    planted = found = 0

    def batch_round(number: int) -> None:
        nonlocal planted, found, traced_queries
        input_round, under_wrappers = context.paired_round(number)
        slot = input_round % BATCH_POOL
        pool = batch_pool[slot]
        results, stats = index.query_batch(pool.queries)
        if slot not in first_answers:
            first_answers[slot] = results
            census.accumulate(stats, per_query=True)
            for query, match, source in zip(pool.queries, results, pool.planted_from):
                check_match(ledger, query, match, index.get_vector, "query_batch")
                if source is not None:
                    planted += 1
                    found += match is not None
        else:
            ledger.check(
                results == first_answers[slot],
                f"query_batch round {number}: answers differ from the first pass",
                len(results),
            )
        if under_wrappers:
            traced_stats.accumulate(stats)
            traced_queries += len(results)

    # -- phase B: similarity_join rounds -------------------------------- #
    join_census = layer_metrics.JoinCensus()
    first_pairs: dict[int, set[tuple[int, int]]] = {}

    def join_round(number: int) -> None:
        slot = number % JOIN_POOL
        result = join.similarity_join(index, join_pool[slot].queries, predicate)
        pairs = result.pair_set()
        if slot not in first_pairs:
            first_pairs[slot] = pairs
            join_census.add(result.num_probes, result.similarity_evaluations, result.num_pairs)
            ledger.check(
                all(similarity >= THRESHOLD for _, _, similarity in result.pairs),
                "similarity_join: a reported pair is below the threshold",
                result.num_probes,
            )
        else:
            ledger.check(
                pairs == first_pairs[slot],
                f"similarity_join round {number}: pairs differ from the first pass",
                result.num_probes,
            )

    # -- phase C: the serving request mix, in process ------------------- #
    request_latencies: list[float] = []
    request_queries = 0

    def request_round(number: int) -> None:
        nonlocal request_queries
        request = requests[number % REQUEST_POOL]
        start = time.perf_counter()
        matches = answer(index, request.queries)
        request_latencies.append(time.perf_counter() - start)
        request_queries += len(matches)
        if number < REQUEST_POOL:
            for query, match in zip(request.queries, matches):
                check_match(ledger, query, match, index.get_vector, "request mix")

    batch_walls: list[float] = []
    join_walls: list[float] = []
    request_walls: list[float] = []
    window_start = batch_end = window_end = 0
    traced_wall = 0.0
    for _cycle in range(context.cycles):
        window_start = context.mark()
        timed_rounds(
            context.seconds * BATCH_SHARE / context.cycles,
            context.paired(BATCH_POOL),
            batch_round,
            batch_walls,
        )
        batch_end = context.mark()
        context.wrappers(True)
        traced_start = time.perf_counter()
        timed_rounds(
            context.seconds * JOIN_SHARE / context.cycles, JOIN_POOL, join_round, join_walls
        )
        timed_rounds(
            context.seconds * REQUEST_SHARE / context.cycles,
            200,
            request_round,
            request_walls,
        )
        traced_wall = time.perf_counter() - traced_start
        window_end = context.mark()
        context.wrappers(False)

    # -- fixed-count probes and checks ---------------------------------- #
    opens = cold_opens(context, shared.path, "ram", COLD_OPENS, reference=index)
    _check_join_against_oracle(context, join_pool[0].queries, first_pairs[0], predicate)

    if tracer is not None:
        window = SpanSummary(tracer.spans, window_start, window_end)
        batch_window = SpanSummary(tracer.spans, window_start, batch_end)
        after_batch = SpanSummary(tracer.spans, batch_end, window_end)
        join_probes = len(join_walls) * scale.join_probes
        out = context.layers
        layer_metrics.read_path(out, window, traced_queries + join_probes + request_queries)
        layer_metrics.engine_split(out, batch_window, traced_stats, traced_queries)
        layer_metrics.funnel_counts(out, layer_metrics.census_of(census), sharded=False)
        layer_metrics.join_layer(out, window, join_probes, join_census)
        layer_metrics.serialization_layer(
            out,
            shared.save_seconds,
            shared.total_filters,
            shared.disk_bytes,
            load_ram_ms=statistics.median(entry["open_ms"] for entry in opens),
        )
        out.set("trace.overhead_share", overhead_share(batch_walls))
        # Phases B and C ran wholly under root spans, so the layers' self
        # times must add up to their wall; a gap means untraced work.
        ledger.check(
            abs(after_batch.root_seconds - traced_wall) <= 0.1 * traced_wall,
            f"offline_ram: spans cover {after_batch.root_seconds:.3f}s of a "
            f"{traced_wall:.3f}s traced wall",
        )
        ledger.check(
            not window.missing(SPANS), f"offline_ram: dead wrappers {window.missing(SPANS)}"
        )
        batch_walls = batch_walls[1::2]

    return Outcome(
        prep_seconds=prep_seconds,
        metrics={
            "ops_per_s": per_second(scale.batch_queries, batch_walls),
            "join_probes_per_s": per_second(scale.join_probes, join_walls),
            "p50_ms": percentile(request_latencies, 0.50) * 1e3,
            "p95_ms": tail_percentile(request_latencies) * 1e3,
            "recall": found / planted,
            "cold_open_ms": cold_open_ms(opens),
            "peak_rss_mb": own_peak_rss_mb(),
        },
        samples={
            "batch_rounds": len(batch_walls),
            "join_rounds": len(join_walls),
            "requests": len(request_latencies),
            "cold_opens": len(opens),
        },
    )


def _check_join_against_oracle(
    context: Context,
    probes: list[frozenset[int]],
    pairs: set[tuple[int, int]],
    predicate: SimilarityPredicate,
) -> None:
    """Join pairs ⊆ brute-force pairs on a probe sample, pair recall ≥ 0.9."""
    sample = context.shared.scale.oracle_probes
    oracle = BruteForceIndex(predicate)
    oracle.build(context.shared.vectors)
    expected = {
        (probe, vector_id)
        for probe in range(sample)
        for vector_id, _similarity in oracle.all_matches(probes[probe])
    }
    reported = {pair for pair in pairs if pair[0] < sample}
    context.ledger.check(
        reported <= expected, "similarity_join: reported a pair the oracle rejects", sample
    )
    context.ledger.check(
        len(reported) >= 0.9 * len(expected),
        f"similarity_join: pair recall {len(reported)}/{len(expected)} is below 0.9",
        sample,
    )
