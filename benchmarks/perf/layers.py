"""Per-layer metrics of the traced pass, derived from spans and public stats.

A layer is a module of the program (``core.paths``, ``dist.router``, …).
Times are microseconds of *self* time per operation, so a short traced pass
compares with a long one; counts are per operation too and, where they come
from the fixed census prefix of a workload, repeat exactly for a seed.  A
layer a workload does not exercise reports 0 — that zero is the prediction
("``dist.*`` does none of ``offline_ram``'s work") and the trace checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.stats import BatchQueryStats, ShardFanoutStats
from spans import SpanSummary

class LayerMetrics:
    """The declared per-layer metric names, all 0 until a workload sets them."""

    def __init__(self, declared: Mapping[str, str]) -> None:
        self._values = {name: 0.0 for name in declared}

    def set(self, name: str, value: float) -> None:
        if name not in self._values:
            raise KeyError(f"per-layer metric {name!r} is not declared in BENCHMARK.json")
        self._values[name] = float(value)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)


def _per_op_us(seconds: float, operations: int) -> float:
    return seconds / operations * 1e6 if operations else 0.0


def read_path(layers: LayerMetrics, window: SpanSummary, operations: int) -> None:
    """Self time of every read-path layer over ``operations`` query sets."""
    layers.set(
        "core.paths.generate_us_per_op",
        _per_op_us(window.layer_self_seconds("core.paths"), operations),
    )
    for kernel in ("extend_level", "sorted_unique", "ordered_unique", "merge_labeled"):
        layers.set(
            f"core.kernels.{kernel}_us_per_op",
            _per_op_us(window.self_seconds.get(f"core.kernels:{kernel}", 0.0), operations),
        )
    for layer, span in (
        ("core.inverted_index", "core.inverted_index:probe_batch_routed"),
        ("core.mmap_store", "core.mmap_store:probe_batch_routed"),
    ):
        layers.set(
            f"{layer}.probe_us_per_op",
            _per_op_us(window.self_seconds.get(span, 0.0), operations),
        )


def engine_split(
    layers: LayerMetrics, window: SpanSummary, stats: BatchQueryStats, queries: int
) -> None:
    """Where ``query_batch`` spent its wall, per query of those calls.

    ``stats`` must accumulate exactly the ``query_batch`` calls inside
    ``window``.  The engine's ``merge_seconds`` includes the store probe
    (RAM, mmap or routed — never nested in one another); the probe spans
    under ``query_batch`` are taken back out of it.
    """
    inclusive = window.seconds.get("core.engine:query_batch", 0.0)
    under = window.under.get("core.engine:query_batch", {})
    probes = sum(
        seconds for name, seconds in under.items() if name.endswith(":probe_batch_routed")
    )
    layers.set("core.engine.query_batch_us_per_op", _per_op_us(inclusive, queries))
    layers.set("core.engine.merge_us_per_op", _per_op_us(stats.merge_seconds - probes, queries))
    layers.set("core.engine.verify_us_per_op", _per_op_us(stats.verification_seconds, queries))
    layers.set(
        "core.engine.self_us_per_op",
        _per_op_us(
            inclusive
            - stats.generation_seconds
            - stats.merge_seconds
            - stats.verification_seconds,
            queries,
        ),
    )
    layers.set("core.mmap_store.minor_faults_per_op", stats.minor_page_faults / max(queries, 1))
    layers.set("core.mmap_store.major_faults_per_op", stats.major_page_faults / max(queries, 1))


def funnel_counts(layers: LayerMetrics, census: Mapping[str, Any], sharded: bool) -> None:
    """Work counts per query from a ``BatchQueryStats.summary()``-shaped census.

    ``census`` carries the summary plus ``filters``, ``candidates``,
    ``unique_candidates`` and ``similarity_evaluations`` totals; taken from
    the fixed census prefix they repeat exactly for a seed.
    """
    queries = max(int(census["num_queries"]), 1)
    kernel = census["kernel"]
    layers.set("core.paths.filters_per_query", census["filters"] / queries)
    for counter in ("paths_extended", "keys_folded", "merge_rows", "dedupe_hits"):
        layers.set(f"core.kernels.{counter}", kernel[counter] / queries)
    layers.set("core.inverted_index.distinct_probes", census["distinct_filter_probes"] / queries)
    layers.set(
        "core.inverted_index.duplicate_probes", census["duplicate_filter_probes"] / queries
    )
    if sharded:
        layers.set("core.mmap_store.shards_probed_per_op", census["shards_probed"] / queries)
    layers.set("core.engine.candidates_per_query", census["candidates"] / queries)
    layers.set("core.engine.unique_candidates_per_query", census["unique_candidates"] / queries)
    layers.set(
        "core.engine.similarity_evals_per_query", census["similarity_evaluations"] / queries
    )
    if census["candidates"]:
        layers.set(
            "core.engine.unique_candidate_ratio",
            census["unique_candidates"] / census["candidates"],
        )


def census_of(stats: BatchQueryStats) -> dict[str, Any]:
    """Flatten an accumulated ``BatchQueryStats`` (with ``per_query``) to a census."""
    census = stats.summary()
    census["filters"] = sum(entry.filters_generated for entry in stats.per_query)
    census["candidates"] = sum(entry.candidates_examined for entry in stats.per_query)
    census["unique_candidates"] = sum(entry.unique_candidates for entry in stats.per_query)
    census["similarity_evaluations"] = sum(
        entry.similarity_evaluations for entry in stats.per_query
    )
    return census


@dataclass
class JoinCensus:
    """Join work over the census rounds (the first pass over the probe pool)."""

    probes: int = 0
    evaluations: int = 0
    pairs: int = 0

    def add(self, probes: int, evaluations: int, pairs: int) -> None:
        self.probes += probes
        self.evaluations += evaluations
        self.pairs += pairs


def join_layer(
    layers: LayerMetrics, window: SpanSummary, probes: int, census: JoinCensus
) -> None:
    """Join wall and verification self time per probe; census counts per probe."""
    span = "core.join:similarity_join"
    layers.set("core.join.join_us_per_op", _per_op_us(window.seconds.get(span, 0.0), probes))
    layers.set(
        "core.join.verify_self_us_per_op", _per_op_us(window.self_seconds.get(span, 0.0), probes)
    )
    layers.set("core.join.similarity_evaluations", census.evaluations / max(census.probes, 1))
    layers.set("core.join.pairs", census.pairs / max(census.probes, 1))


def serialization_layer(
    layers: LayerMetrics,
    save_seconds: float,
    postings: int,
    index_bytes: int,
    open_mmap_ms: float = 0.0,
    load_ram_ms: float = 0.0,
) -> None:
    layers.set("core.serialization.save_us_per_posting", save_seconds / postings * 1e6)
    layers.set("core.serialization.index_bytes", index_bytes)
    layers.set("core.serialization.open_mmap_ms", open_mmap_ms)
    layers.set("core.serialization.load_ram_ms", load_ram_ms)


def write_path(
    layers: LayerMetrics,
    build: SpanSummary,
    built_vectors: int,
    churn: SpanSummary,
    updates: int,
) -> None:
    """Build and update cost: generation per built vector, add/compact per update."""
    layers.set(
        "core.paths.build_generate_us_per_op",
        _per_op_us(build.self_seconds.get("core.paths:generate_batch", 0.0), built_vectors),
    )
    layers.set(
        "core.kernels.chain_resolve_us_per_op",
        _per_op_us(build.self_seconds.get("core.kernels:chain_resolve", 0.0), built_vectors),
    )
    layers.set(
        "core.inverted_index.add_us_per_op",
        _per_op_us(churn.self_seconds.get("core.inverted_index:add", 0.0), updates),
    )
    layers.set(
        "core.inverted_index.compact_us_per_op",
        _per_op_us(churn.self_seconds.get("core.inverted_index:compact", 0.0), updates),
    )


def dist_layers(
    layers: LayerMetrics,
    window: SpanSummary,
    operations: int,
    fanout: ShardFanoutStats,
    census_queries: int,
    worker_probe_us_per_op: float,
) -> None:
    """Router, wire protocol and transport cost per query set routed.

    Times are over the ``operations`` query sets of the request mix inside
    ``window``; the fan-out counts come from the census calls'
    ``ShardFanoutStats``.
    """
    router = "dist.router:probe_batch_routed"
    request = "dist.transport:_request"
    encode = "dist.protocol:encode_probe_request"
    decode = "dist.protocol:decode_message"
    wait_us = _per_op_us(window.seconds.get(request, 0.0), operations)
    layers.set(
        "dist.router.probe_us_per_op", _per_op_us(window.seconds.get(router, 0.0), operations)
    )
    layers.set(
        "dist.router.self_us_per_op", _per_op_us(window.self_seconds.get(router, 0.0), operations)
    )
    layers.set("dist.router.fanout_requests_per_op", fanout.total_requests / census_queries)
    layers.set("dist.router.fanout_rows_per_op", fanout.total_rows / census_queries)
    layers.set(
        "dist.protocol.encode_us_per_op", _per_op_us(window.seconds.get(encode, 0.0), operations)
    )
    layers.set(
        "dist.protocol.decode_us_per_op", _per_op_us(window.seconds.get(decode, 0.0), operations)
    )
    layers.set("dist.protocol.request_bytes_per_op", window.values.get(encode, 0) / operations)
    layers.set("dist.protocol.response_bytes_per_op", window.values.get(decode, 0) / operations)
    layers.set("dist.transport.wait_us_per_op", wait_us)
    layers.set("dist.transport.ipc_us_per_op", wait_us - worker_probe_us_per_op)
    layers.set("dist.transport.failures", sum(fanout.failures))
    layers.set("dist.transport.respawns", sum(fanout.respawns))
    layers.set("dist.worker.probe_us_per_op", worker_probe_us_per_op)
