"""Workload ``build_churn``: the write side of the layers the others read.

(1) The shared ``index.build`` every invocation times (``build_vectors_per_s``).
(2) On that RAM index, rounds of {32 ``insert``, 16 ``remove`` of the oldest
inserted, ``query_batch`` of 64 mixed queries} — the query after each round
pays the lazy re-compaction, so ``ops_per_s`` (updates per second *including*
the interleaved queries) sees compaction stalls and ``p50_ms``/``p95_ms``
are the latency of one ``insert``.  (3) ``save_index`` of the churned index
(``save_s``).  (4) Fresh subprocesses each timing ``load_index(mode="mmap")``
plus a first query on that save (``cold_open_ms``; imports excluded, warm
page cache).  (5) ``similarity_join`` on the churned index.

``core.paths`` generation, ``core.inverted_index`` add/compact and
``core.serialization`` run here as *writers*, so a read-path gain that costs
build time, insert cost, compaction stalls, disk bytes or cold open cannot
hide behind the three read workloads.
"""

from __future__ import annotations

import statistics
import time

import layers as layer_metrics
from harness import (
    STREAM_CHURN,
    STREAM_QUERIES,
    THRESHOLD,
    Context,
    Outcome,
    cold_open_ms,
    cold_opens,
    half_planted,
    mixed_queries,
    non_empty,
    overhead_share,
    own_peak_rss_mb,
    per_second,
    percentile,
    planted_probe_pool,
    rng_for,
    save_median,
    tail_percentile,
    timed_rounds,
)
from repro.core import join, serialization
from repro.core.stats import BatchQueryStats
from repro.similarity.predicates import SimilarityPredicate
from spans import SpanSummary

#: Churn rounds that always run; their counts form the census.
CENSUS_ROUNDS = 8
JOIN_POOL = 2
COLD_OPENS = 9
#: Shares of ``--seconds`` the two time-boxed phases get.
CHURN_SHARE, JOIN_SHARE = 0.5, 0.2

#: Span names that must fire in a traced run of this workload.
SPANS = (
    "core.engine:query_batch",
    "core.engine:query_candidates_arrays_batch",
    "core.paths:generate",
    "core.paths:generate_batch",
    "core.kernels:extend_level",
    "core.kernels:ordered_unique",
    "core.inverted_index:add",
    "core.inverted_index:compact",
    "core.inverted_index:probe_batch_routed",
    "core.join:similarity_join",
    "core.serialization:save_index",
    "core.serialization:load_index",
)


def run(context: Context) -> Outcome:
    shared, ledger, tracer = context.shared, context.ledger, context.tracer
    scale, index = shared.scale, shared.index
    predicate = SimilarityPredicate("braun_blanquet", THRESHOLD)
    updates_per_round = scale.churn_inserts + scale.churn_removes
    num_base = len(shared.vectors)

    prep_start = time.perf_counter()
    query_rng = rng_for(shared.seed, STREAM_QUERIES)
    # The inserted vectors are the same for every --seed: an insert costs
    # what its vector's filter count costs, which is heavy-tailed, so with
    # a few hundred inserts per run a per-seed draw would make p50/p95 of
    # one insert a property of the draw.  The index they go into, and the
    # interleaved queries, still follow the seed.
    insert_rng = rng_for(0, STREAM_CHURN)
    join_pool = planted_probe_pool(shared, query_rng, JOIN_POOL)
    warm = mixed_queries(
        shared.distribution,
        shared.vectors,
        half_planted(scale.churn_queries, query_rng),
        query_rng,
    )
    index.remove(index.insert(non_empty(shared.distribution.sample(insert_rng))))
    index.query_batch(warm.queries)
    join.similarity_join(index, join_pool[0].queries[:32], predicate)
    prep_seconds = time.perf_counter() - prep_start

    # -- phase 2: insert / remove / query rounds ------------------------ #
    live_inserted: list[int] = []
    removed: set[int] = set()
    insert_latencies: list[float] = []
    round_walls: list[float] = []
    census = BatchQueryStats()
    census_rounds = context.paired(CENSUS_ROUNDS)
    traced_stats = BatchQueryStats()
    traced_queries = traced_updates = 0
    planted = found = 0

    def churn_round(number: int) -> None:
        nonlocal planted, found, traced_queries, traced_updates
        _, under_wrappers = context.paired_round(number)
        fresh = [
            non_empty(vector)
            for vector in shared.distribution.sample_many(scale.churn_inserts, insert_rng)
        ]
        queries = mixed_queries(
            shared.distribution,
            shared.vectors,
            half_planted(scale.churn_queries, query_rng),
            query_rng,
        )
        round_start = time.perf_counter()
        new_ids = []
        for vector in fresh:
            start = time.perf_counter()
            new_ids.append(index.insert(vector))
            insert_latencies.append(time.perf_counter() - start)
        live_inserted.extend(new_ids)
        for vector_id in live_inserted[: scale.churn_removes]:
            index.remove(vector_id)
            removed.add(vector_id)
        del live_inserted[: scale.churn_removes]
        results, stats = index.query_batch(queries.queries)
        round_walls.append(time.perf_counter() - round_start)

        # Checks and bookkeeping, outside the round's wall.
        in_census = number < census_rounds
        for query, match, source in zip(queries.queries, results, queries.planted_from):
            ok = match is None or (
                match not in removed and predicate.accepts(index.get_vector(match), query)
            )
            ledger.check(ok, f"churn round {number}: id {match} is removed or below threshold")
            if source is not None and in_census:
                planted += 1
                found += match is not None
        own, _ = index.query_batch(fresh)
        for vector_id, match in zip(new_ids, own):
            if vector_id not in removed:
                ledger.check(
                    match is not None and match not in removed,
                    f"churn round {number}: inserted vector {vector_id} does not find itself",
                )
        if in_census and (tracer is None or under_wrappers):
            census.accumulate(stats, per_query=True)
        if under_wrappers:
            traced_stats.accumulate(stats)
            traced_queries += len(results)
            traced_updates += updates_per_round

    # -- phase 5 (on the live RAM index, between churn visits): join ---- #
    join_census = layer_metrics.JoinCensus()
    first_pairs: dict[int, set[tuple[int, int]]] = {}

    def join_round(number: int) -> None:
        slot = number % JOIN_POOL
        result = join.similarity_join(index, join_pool[slot].queries, predicate)
        pairs = result.pair_set()
        # Pairs with the built vectors must not change while the index
        # churns: only inserted vectors are ever removed.
        base_pairs = {(probe, stored) for probe, stored in pairs if stored < num_base}
        if slot not in first_pairs:
            first_pairs[slot] = base_pairs
            join_census.add(result.num_probes, result.similarity_evaluations, result.num_pairs)
        ledger.check(
            base_pairs == first_pairs[slot]
            and not any(stored in removed for _, stored in pairs),
            f"join round {number} on the churned index: pairs changed or name a removed id",
            result.num_probes,
        )

    churn_loop_walls: list[float] = []
    join_walls: list[float] = []
    window_start = churn_end = 0
    for _cycle in range(context.cycles):
        window_start = context.mark()
        timed_rounds(
            context.seconds * CHURN_SHARE / context.cycles,
            census_rounds,
            churn_round,
            churn_loop_walls,
        )
        churn_end = context.mark()
        context.wrappers(True)
        timed_rounds(
            context.seconds * JOIN_SHARE / context.cycles, JOIN_POOL, join_round, join_walls
        )

    # -- phases 3 and 4: save the churned index, reopen it cold --------- #
    churned_path, save_seconds = save_median(index, shared.tmp, "churned")
    ram_answers, _ = index.query_batch(warm.queries)
    reopened = serialization.load_index(churned_path, mode="mmap")
    mmap_answers, _ = reopened.query_batch(warm.queries)
    ledger.check(
        mmap_answers == ram_answers,
        "reopened mmap index answers differently from the RAM index it was saved from",
        len(ram_answers),
    )
    window_end = context.mark()
    context.wrappers(False)
    opens = cold_opens(context, churned_path, "mmap", COLD_OPENS, reference=index)

    if tracer is not None:
        window = SpanSummary(tracer.spans, window_start, window_end)
        churn_window = SpanSummary(tracer.spans, window_start, churn_end)
        build_window = SpanSummary(tracer.spans, *shared.build_spans)
        join_probes = len(join_walls) * scale.join_probes
        out = context.layers
        layer_metrics.read_path(out, window, traced_queries + join_probes)
        layer_metrics.engine_split(out, churn_window, traced_stats, traced_queries)
        layer_metrics.funnel_counts(out, layer_metrics.census_of(census), sharded=False)
        layer_metrics.join_layer(out, window, join_probes, join_census)
        layer_metrics.write_path(
            out, build_window, len(shared.vectors), churn_window, traced_updates
        )
        out.set("core.kernels.chain_probes", index.build_stats.kernel.chain_probes)
        layer_metrics.serialization_layer(
            out,
            save_seconds,
            index.total_stored_filters,
            serialization.index_disk_bytes(churned_path),
            open_mmap_ms=statistics.median(entry["open_ms"] for entry in opens),
        )
        out.set("trace.overhead_share", overhead_share(round_walls))
        fired = SpanSummary(tracer.spans)
        ledger.check(not fired.missing(SPANS), f"build_churn: dead wrappers {fired.missing(SPANS)}")
        round_walls = round_walls[1::2]

    return Outcome(
        prep_seconds=prep_seconds,
        metrics={
            "ops_per_s": per_second(updates_per_round, round_walls),
            "join_probes_per_s": per_second(scale.join_probes, join_walls),
            "p50_ms": percentile(insert_latencies, 0.50) * 1e3,
            "p95_ms": tail_percentile(insert_latencies) * 1e3,
            "recall": found / planted,
            "cold_open_ms": cold_open_ms(opens),
            "peak_rss_mb": own_peak_rss_mb(),
            "save_s": save_seconds,
        },
        samples={
            "churn_rounds": len(round_walls),
            "inserts": len(insert_latencies),
            "join_rounds": len(join_walls),
            "cold_opens": len(opens),
        },
    )
