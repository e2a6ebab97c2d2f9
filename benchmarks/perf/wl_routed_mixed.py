"""Workload ``routed_mixed``: the multi-process topology, one caller.

``load_routed_index(<v3>, transport="spawn", shard_procs=2)`` answers one
caller issuing ``query_batch`` calls in the serving request mix (three
single-query calls to every batch of eight), closed loop, then rounds of
``similarity_join`` through the same router.  Every result is compared with
the single-process mmap result for the same call.

The engine-side work is identical to an mmap open, so whatever a request
costs above ``serve_http``'s in-process mmap baseline is ``dist.router`` +
``dist.protocol`` + ``dist.transport`` + the worker-side probe; ``serve.*``
does none.  A router, RPD1 or shared-memory change must show here and leave
``offline_ram`` flat.
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
    cold_open_ms,
    cold_opens,
    overhead_share,
    own_peak_rss_mb,
    per_second,
    percentile,
    planted_probe_pool,
    process_peak_rss_mb,
    reference_answers,
    request_mix,
    rng_for,
    tail_percentile,
    timed_rounds,
)
from repro.core import join
from repro.core.stats import BatchQueryStats
from repro.dist import load_routed_index, shard_router_of
from repro.similarity.predicates import SimilarityPredicate
from spans import SpanSummary

SHARD_PROCS = 2
REQUEST_POOL = 512
#: Requests per round of the closed loop (four turns of the 3:1 mix).
ROUND_REQUESTS = 16
#: Rounds whose counts form the census (they always run): 8 × 16 requests.
CENSUS_ROUNDS = 8
JOIN_POOL = 2
#: Cold opens before the router starts and after it closes (spread over the run).
COLD_OPENS_BEFORE, COLD_OPENS_AFTER = 4, 5
WORKER_LEG_REQUESTS = 64
#: Shares of ``--seconds`` the two phases get.
REQUEST_SHARE, JOIN_SHARE = 0.7, 0.2

#: Span names that must fire in a traced run of this workload.
SPANS = (
    "core.engine:query_batch",
    "core.engine:query_candidates_arrays_batch",
    "core.paths:generate_batch",
    "core.kernels:extend_level",
    "core.kernels:ordered_unique",
    "core.join:similarity_join",
    "dist.router:probe_batch_routed",
    "dist.protocol:encode_probe_request",
    "dist.protocol:decode_message",
    "dist.transport:_request",
    "dist.worker:probe",
)


def run(context: Context) -> Outcome:
    shared, ledger, tracer = context.shared, context.ledger, context.tracer
    scale = shared.scale
    predicate = SimilarityPredicate("braun_blanquet", THRESHOLD)

    prep_start = time.perf_counter()
    rng = rng_for(shared.seed, STREAM_QUERIES)
    requests = request_mix(shared.distribution, shared.vectors, REQUEST_POOL, rng)
    join_pool = planted_probe_pool(shared, rng, JOIN_POOL)
    reference = reference_answers(shared, requests, join_pool, predicate)
    prep_seconds = time.perf_counter() - prep_start
    opens = cold_opens(context, shared.path, "mmap", COLD_OPENS_BEFORE, reference=reference.index)

    start_router = time.perf_counter()
    routed = load_routed_index(shared.path, transport="spawn", shard_procs=SHARD_PROCS)
    router = shard_router_of(routed)
    try:
        for request in requests[-ROUND_REQUESTS:]:
            routed.query_batch(request.queries)
        join.similarity_join(routed, join_pool[0].queries[:32], predicate)
        prep_seconds += time.perf_counter() - start_router

        # -- phase A: closed loop of query_batch calls ------------------ #
        latencies: list[float] = []
        census = BatchQueryStats()
        traced_stats = BatchQueryStats()
        traced_queries = 0

        def request_round(number: int) -> None:
            nonlocal traced_queries
            input_round, under_wrappers = context.paired_round(number)
            first = input_round * ROUND_REQUESTS
            for offset in range(ROUND_REQUESTS):
                position = (first + offset) % REQUEST_POOL
                start = time.perf_counter()
                results, stats = routed.query_batch(requests[position].queries)
                if tracer is None or under_wrappers:
                    latencies.append(time.perf_counter() - start)
                ledger.check(
                    results == reference.answers[position],
                    f"routed request {position}: {results}, single-process mmap says "
                    f"{reference.answers[position]}",
                )
                if input_round < CENSUS_ROUNDS and (tracer is None or under_wrappers):
                    census.accumulate(stats, per_query=True)
                if under_wrappers:
                    traced_stats.accumulate(stats)
                    traced_queries += len(results)

        # -- phase B: similarity_join through the router ---------------- #
        join_census = layer_metrics.JoinCensus()

        def join_round(number: int) -> None:
            slot = number % JOIN_POOL
            result = join.similarity_join(routed, join_pool[slot].queries, predicate)
            if number < JOIN_POOL:
                join_census.add(result.num_probes, result.similarity_evaluations, result.num_pairs)
            ledger.check(
                result.pair_set() == reference.pairs[slot],
                f"routed similarity_join round {number}: pairs differ from single-process mmap",
                result.num_probes,
            )

        request_walls: list[float] = []
        join_walls: list[float] = []
        window_start = requests_end = window_end = 0
        for _cycle in range(context.cycles):
            window_start = context.mark()
            timed_rounds(
                context.seconds * REQUEST_SHARE / context.cycles,
                context.paired(CENSUS_ROUNDS),
                request_round,
                request_walls,
            )
            requests_end = context.mark()
            context.wrappers(True)
            timed_rounds(
                context.seconds * JOIN_SHARE / context.cycles, JOIN_POOL, join_round, join_walls
            )
            window_end = context.mark()
            context.wrappers(False)
        workers_rss_mb = sum(
            process_peak_rss_mb(router.transport.pid_of(worker))
            for worker in range(router.num_workers)
        )
    finally:
        router.close()

    opens += cold_opens(context, shared.path, "mmap", COLD_OPENS_AFTER, reference=reference.index)

    if tracer is not None:
        window = SpanSummary(tracer.spans, window_start, window_end)
        request_window = SpanSummary(tracer.spans, window_start, requests_end)
        join_probes = len(join_walls) * scale.join_probes
        out = context.layers
        layer_metrics.read_path(out, window, traced_queries + join_probes)
        layer_metrics.engine_split(out, request_window, traced_stats, traced_queries)
        layer_metrics.funnel_counts(out, layer_metrics.census_of(census), sharded=True)
        layer_metrics.join_layer(out, window, join_probes, join_census)
        layer_metrics.serialization_layer(
            out,
            shared.save_seconds,
            shared.total_filters,
            shared.disk_bytes,
            open_mmap_ms=statistics.median(entry["open_ms"] for entry in opens),
        )
        layer_metrics.dist_layers(
            out,
            request_window,
            traced_queries,
            fanout=census.fanout,
            census_queries=census.num_queries,
            worker_probe_us_per_op=_worker_probe_us_per_op(context, requests, reference.answers),
        )
        out.set("trace.overhead_share", overhead_share(request_walls))
        spans_fired = SpanSummary(tracer.spans, window_start)
        ledger.check(
            not spans_fired.missing(SPANS),
            f"routed_mixed: dead wrappers {spans_fired.missing(SPANS)}",
        )
        request_walls = request_walls[1::2]

    return Outcome(
        prep_seconds=prep_seconds,
        metrics={
            "ops_per_s": per_second(ROUND_REQUESTS, request_walls),
            "join_probes_per_s": per_second(scale.join_probes, join_walls),
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p95_ms": tail_percentile(latencies) * 1e3,
            "recall": reference.recall,
            "cold_open_ms": cold_open_ms(opens),
            "peak_rss_mb": own_peak_rss_mb() + workers_rss_mb,
        },
        samples={
            "requests": len(latencies),
            "join_rounds": len(join_walls),
            "cold_opens": len(opens),
        },
    )


def _worker_probe_us_per_op(
    context: Context, requests: list[Any], expected: list[list[int | None]]
) -> float:
    """Worker-side probe time per query set, from a short in-process leg.

    Spawned children cannot be wrapped from outside, so the same router
    runs once more over a ``transport="inproc"`` worker with a span on
    ``ShardWorkerState.probe`` — the request mix only, after a pass that
    maps the shards, to compare with the spawn round trip of phase A.  One
    worker owns every shard here: two in-process workers would probe on
    two threads and bill each other's hold of the interpreter lock.
    """
    tracer = context.tracer
    inproc = load_routed_index(context.shared.path, transport="inproc", shard_procs=1)
    try:
        for request in requests[:WORKER_LEG_REQUESTS]:
            inproc.query_batch(request.queries)
        tracer.install()
        since = tracer.mark()
        queries = 0
        for position in range(WORKER_LEG_REQUESTS):
            results, _stats = inproc.query_batch(requests[position].queries)
            queries += len(results)
            context.ledger.check(
                results == expected[position],
                f"inproc-routed request {position} differs from single-process mmap",
            )
        tracer.uninstall()
    finally:
        shard_router_of(inproc).close()
    window = SpanSummary(tracer.spans, since)
    return window.seconds.get("dist.worker:probe", 0.0) / queries * 1e6
