"""Workload ``serve_http``: the operator's view through a real ``repro serve``.

A ``python -m repro serve <v3> --port 0 --load-mode mmap`` subprocess with
the default batching flags answers one asyncio client process holding
``CLIENTS`` keep-alive connections.  The request mix is three ``POST
/query`` to every ``POST /query-batch`` of eight.  Phase A is a closed loop
(requests back to back, ``ops_per_s``); phase B is an **open loop** on a
fixed schedule of 40 req/s (one request due every 25 ms whatever the server
does), latency taken from each request's *scheduled* send time
(``p50_ms``/``p95_ms``); phase C posts the planted probe sets to
``/similarity-join``.  Every answer is compared with the in-process mmap
answer for the same query; any non-200 is a failure.

Per query the engine does the work ``offline_ram`` does, but through
``core.mmap_store``, plus ``serve.http`` parse/encode, the ``serve.batcher``
admission window and ``serve.service``; ``dist.*`` does none.  With
``CLIENTS`` ≤ 4 cross-client coalescing is barely exercised — that is
``bench_serving.py``'s job at 32 clients.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import layers as layer_metrics
from bootstrap import PERF_DIR
from harness import (
    CLIENTS,
    STREAM_QUERIES,
    THRESHOLD,
    Context,
    Ledger,
    Outcome,
    cold_open_ms,
    cold_opens,
    per_second,
    percentile,
    planted_probe_pool,
    process_peak_rss_mb,
    reference_answers,
    request_mix,
    rng_for,
    tail_percentile,
)
from repro.core.stats import BatchQueryStats
from repro.similarity.predicates import SimilarityPredicate
from spans import SpanSummary, load_spans

#: Fixed offered rate of the open loop, requests per second.
OPEN_LOOP_RATE = 40.0
REQUEST_POOL = 600
JOIN_POOL = 2
WARM_UP_REQUESTS = 24
MIN_CLOSED_REQUESTS = 100
#: Cold opens before the server starts and after it stops (spread over the run).
COLD_OPENS_BEFORE, COLD_OPENS_AFTER = 4, 5
#: Shares of ``--seconds`` the three phases get.
CLOSED_SHARE, OPEN_SHARE, JOIN_SHARE = 0.25, 0.5, 0.2

#: Span names that must fire inside a traced server.
SPANS = (
    "core.engine:query_batch",
    "core.engine:query_candidates_arrays_batch",
    "core.paths:generate_batch",
    "core.kernels:extend_level",
    "core.kernels:ordered_unique",
    "core.mmap_store:probe_batch_routed",
    "core.join:similarity_join",
    "core.serialization:load_index",
)

_READY = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """A ``repro serve`` subprocess on an ephemeral port (default batching flags)."""

    def __init__(self, index_path: Path, span_file: Path | None = None) -> None:
        launcher = (
            ["-m", "repro"] if span_file is None
            else [str(PERF_DIR / "traced_serve.py"), str(span_file)]
        )
        self.process = subprocess.Popen(
            [sys.executable, *launcher, "serve", str(index_path), "--port", "0",
             "--load-mode", "mmap"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert self.process.stdout is not None
        ready_line = self.process.stdout.readline()
        match = _READY.search(ready_line)
        if match is None:
            self.process.kill()
            rest = self.process.stdout.read()
            self.process.wait()
            raise RuntimeError(f"server did not come up: {ready_line!r} {rest!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class Prepared:
    """One request of the pool: endpoint, wire bytes, the expected answer."""

    path: str
    body: bytes
    expected: list[int | None]


@dataclass
class Reply:
    request: int
    status: int
    latency: float
    raw: bytes
    late: float = 0.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _closed_loop(
    pool: list[Connection], prepared: list[Prepared], budget: float, minimum: int, first: int = 0
) -> tuple[list[Reply], float]:
    """Every connection sends its next request as soon as the last one answered."""
    replies: list[Reply] = []
    issued = 0
    start = time.perf_counter()
    deadline = start + budget

    async def client(connection: Connection) -> None:
        nonlocal issued
        while issued < minimum or time.perf_counter() < deadline:
            number = first + issued
            issued += 1
            request = prepared[number % len(prepared)]
            sent = time.perf_counter()
            status, raw = await connection.request("POST", request.path, request.body)
            replies.append(Reply(number, status, time.perf_counter() - sent, raw))

    await asyncio.gather(*(client(connection) for connection in pool))
    return replies, time.perf_counter() - start


async def _open_loop(
    pool: list[Connection], prepared: list[Prepared], budget: float, first: int
) -> list[Reply]:
    """Send on a fixed schedule whatever the server does; latency from the due time.

    One request is due every ``1 / OPEN_LOOP_RATE`` seconds.  Evenly spaced
    on purpose: with the ~240 requests a run has room for, a Poisson
    schedule's own bursts set the tail (17-20 % run-to-run spread in p50 and
    p95 measured, against 5-8 %); an even schedule is still open loop and
    leaves the tail to the server.
    """
    schedule = [(k + 1) / OPEN_LOOP_RATE for k in range(int(budget * OPEN_LOOP_RATE))]
    free: asyncio.Queue[Connection] = asyncio.Queue()
    for connection in pool:
        free.put_nowait(connection)
    replies: list[Reply] = []

    async def one(number: int, due: float, late: float) -> None:
        request = prepared[number % len(prepared)]
        connection = await free.get()
        try:
            status, raw = await connection.request("POST", request.path, request.body)
        finally:
            free.put_nowait(connection)
        replies.append(Reply(number, status, time.perf_counter() - due, raw, late))

    start = time.perf_counter()
    tasks = []
    for offset, arrival in enumerate(schedule):
        due = start + arrival
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(first + offset, due, time.perf_counter() - due)))
    await asyncio.gather(*tasks)
    return replies


def _check_replies(ledger: Ledger, prepared: list[Prepared], replies: list[Reply]) -> None:
    for reply in replies:
        request = prepared[reply.request % len(prepared)]
        if reply.status != 200:
            ledger.check(False, f"{request.path} answered {reply.status}")
            continue
        payload = json.loads(reply.raw)
        matches = payload["results"] if "results" in payload else [payload["match"]]
        ledger.check(
            matches == request.expected,
            f"{request.path} request {reply.request}: served {matches}, "
            f"in-process mmap says {request.expected}",
        )


def _funnel_totals(replies: list[Reply]) -> dict[str, int]:
    """Per-query work counts summed over each pool request's first 200 reply."""
    totals = dict.fromkeys(
        ("num_queries", "filters", "candidates", "unique_candidates", "similarity_evaluations"),
        0,
    )
    seen: set[int] = set()
    for reply in replies:
        if reply.status != 200 or reply.request in seen:
            continue
        seen.add(reply.request)
        payload = json.loads(reply.raw)
        stats = payload["stats"]
        for entry in stats["per_query"] if "per_query" in stats else [stats]:
            totals["num_queries"] += 1
            totals["filters"] += entry["filters_generated"]
            totals["candidates"] += entry["candidates_examined"]
            totals["unique_candidates"] += entry["unique_candidates"]
            totals["similarity_evaluations"] += entry["similarity_evaluations"]
    return totals


def run(context: Context) -> Outcome:
    shared, ledger = context.shared, context.ledger
    scale = shared.scale
    predicate = SimilarityPredicate("braun_blanquet", THRESHOLD)

    prep_start = time.perf_counter()
    rng = rng_for(shared.seed, STREAM_QUERIES)
    requests = request_mix(shared.distribution, shared.vectors, REQUEST_POOL, rng)
    join_pool = planted_probe_pool(shared, rng, JOIN_POOL)
    reference = reference_answers(shared, requests, join_pool, predicate)
    prepared = []
    for request, expected in zip(requests, reference.answers):
        if len(request) == 1:
            path, body = "/query", {"query": sorted(request.queries[0])}
        else:
            path, body = "/query-batch", {"queries": [sorted(q) for q in request.queries]}
        prepared.append(Prepared(path, json.dumps(body).encode(), expected))
    join_bodies = [
        json.dumps(
            {
                "probes": [sorted(probe) for probe in pool.queries],
                "measure": "braun_blanquet",
                "threshold": THRESHOLD,
            }
        ).encode()
        for pool in join_pool
    ]
    prep_seconds = time.perf_counter() - prep_start
    opens = cold_opens(context, shared.path, "mmap", COLD_OPENS_BEFORE, reference=reference.index)

    reference_rate = 0.0
    if context.traced:
        # Reference leg of trace.overhead_share: the same closed loop
        # against a server started without the wrappers.
        plain = Server(shared.path)
        try:
            reference_rate = asyncio.run(
                _reference_leg(plain.port, prepared, join_bodies, context.seconds * CLOSED_SHARE)
            )
        finally:
            plain.stop()

    span_file = shared.tmp / "serve_spans.json" if context.traced else None
    start_server = time.perf_counter()
    server = Server(shared.path, span_file)
    try:
        session = asyncio.run(
            _session(server.port, prepared, join_bodies, context.seconds, context.cycles)
        )
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    prep_seconds += session.warm_at - start_server

    # -- checks (outside every timed region) ---------------------------- #
    _check_replies(ledger, prepared, session.closed + session.open)
    for number, (status, raw) in enumerate(session.joins):
        pairs = (
            {(r, s) for r, s, _similarity in json.loads(raw)["pairs"]} if status == 200 else None
        )
        ledger.check(
            pairs == reference.pairs[number % JOIN_POOL],
            f"/similarity-join round {number}: status {status} or pairs differ from in-process",
            scale.join_probes,
        )
    opens += cold_opens(context, shared.path, "mmap", COLD_OPENS_AFTER, reference=reference.index)

    open_latencies = [
        reply.latency for reply in sorted(session.open, key=lambda reply: reply.request)
    ]
    if context.traced:
        assert span_file is not None
        _per_layer(context, session, span_file, reference_rate, opens)

    return Outcome(
        prep_seconds=prep_seconds,
        metrics={
            "ops_per_s": len(session.closed) / session.closed_wall,
            "join_probes_per_s": per_second(scale.join_probes, session.join_walls),
            "p50_ms": percentile(open_latencies, 0.50) * 1e3,
            "p95_ms": tail_percentile(open_latencies) * 1e3,
            "recall": reference.recall,
            "cold_open_ms": cold_open_ms(opens),
            "peak_rss_mb": peak_rss_mb,
        },
        samples={
            "closed_requests": len(session.closed),
            "open_requests": len(session.open),
            "join_rounds": len(session.join_walls),
            "cold_opens": len(opens),
        },
    )


@dataclass
class Session:
    """Everything one client session against one server observed."""

    warm_at: float
    query_latencies: list[float]
    stats_warm: dict[str, Any]
    closed: list[Reply]
    closed_wall: float
    stats_closed: dict[str, Any]
    open: list[Reply]
    joins: list[tuple[int, bytes]]
    join_walls: list[float]
    stats_end: dict[str, Any]


async def _warm(
    port: int, prepared: list[Prepared], join_bodies: list[bytes]
) -> tuple[list[Connection], list[float]]:
    """Open the connections and touch every timed surface once."""
    pool = [await Connection.open(port) for _ in range(CLIENTS)]
    query_latencies = []
    for number in range(WARM_UP_REQUESTS):
        request = prepared[-1 - number]
        sent = time.perf_counter()
        await pool[number % CLIENTS].request("POST", request.path, request.body)
        if request.path == "/query":
            query_latencies.append(time.perf_counter() - sent)
    await pool[0].request("POST", "/similarity-join", join_bodies[0])
    return pool, query_latencies


async def _stats(connection: Connection) -> dict[str, Any]:
    _status, raw = await connection.request("GET", "/stats")
    return json.loads(raw)


async def _reference_leg(
    port: int, prepared: list[Prepared], join_bodies: list[bytes], budget: float
) -> float:
    pool, _ = await _warm(port, prepared, join_bodies)
    replies, wall = await _closed_loop(pool, prepared, budget, MIN_CLOSED_REQUESTS)
    for connection in pool:
        await connection.close()
    return len(replies) / wall


async def _session(
    port: int, prepared: list[Prepared], join_bodies: list[bytes], seconds: float, cycles: int
) -> Session:
    """Warm up, then visit the three phases ``cycles`` times."""
    pool, query_latencies = await _warm(port, prepared, join_bodies)
    warm_at = time.perf_counter()
    stats_warm = stats_closed = await _stats(pool[0])
    closed: list[Reply] = []
    closed_wall = 0.0
    opened: list[Reply] = []
    joins: list[tuple[int, bytes]] = []
    join_walls: list[float] = []
    for cycle in range(cycles):
        replies, wall = await _closed_loop(
            pool,
            prepared,
            seconds * CLOSED_SHARE / cycles,
            MIN_CLOSED_REQUESTS // cycles,
            first=len(closed) + len(opened),
        )
        closed += replies
        closed_wall += wall
        if cycle == 0:
            stats_closed = await _stats(pool[0])
        opened += await _open_loop(
            pool, prepared, seconds * OPEN_SHARE / cycles, first=len(closed) + len(opened)
        )
        deadline = time.perf_counter() + seconds * JOIN_SHARE / cycles
        while len(joins) < JOIN_POOL or time.perf_counter() < deadline:
            sent = time.perf_counter()
            joins.append(
                await pool[0].request(
                    "POST", "/similarity-join", join_bodies[len(joins) % JOIN_POOL]
                )
            )
            join_walls.append(time.perf_counter() - sent)
    stats_end = await _stats(pool[0])
    for connection in pool:
        await connection.close()
    query_latencies += [
        reply.latency
        for reply in closed
        if prepared[reply.request % len(prepared)].path == "/query"
    ]
    return Session(
        warm_at=warm_at,
        query_latencies=query_latencies,
        stats_warm=stats_warm,
        closed=closed,
        closed_wall=closed_wall,
        stats_closed=stats_closed,
        open=opened,
        joins=joins,
        join_walls=join_walls,
        stats_end=stats_end,
    )


def _per_layer(
    context: Context,
    session: Session,
    span_file: Path,
    reference_rate: float,
    opens: list[dict[str, Any]],
) -> None:
    """Engine layers from the server's own spans, serving layers from ``/stats``."""
    shared, out = context.shared, context.layers
    window = SpanSummary(load_spans(span_file))
    served = session.stats_end["indexes"]["default"]
    engine = served["engine"]
    join_probes = (len(session.joins) + 1) * shared.scale.join_probes
    layer_metrics.read_path(out, window, served["queries_executed"] + join_probes)
    layer_metrics.engine_split(
        out,
        window,
        BatchQueryStats(
            generation_seconds=engine["generation_seconds"],
            merge_seconds=engine["merge_seconds"],
            verification_seconds=engine["verification_seconds"],
            minor_page_faults=engine["minor_page_faults"],
            major_page_faults=engine["major_page_faults"],
        ),
        served["queries_executed"],
    )
    # Work counts: per-query funnel totals from the replies themselves,
    # engine-wide counters from /stats scaled to the same query count.
    # Coalescing depends on timing, so unlike the in-process workloads
    # these need not repeat exactly for a seed.
    totals = _funnel_totals(session.closed + session.open)
    scale_to = totals["num_queries"] / max(served["queries_executed"], 1)
    census: dict[str, Any] = dict(totals)
    for key in ("distinct_filter_probes", "duplicate_filter_probes", "shards_probed"):
        census[key] = engine[key] * scale_to
    census["kernel"] = {key: value * scale_to for key, value in engine["kernel"].items()}
    layer_metrics.funnel_counts(out, census, sharded=True)
    join_census = layer_metrics.JoinCensus()
    for status, raw in session.joins[:JOIN_POOL]:
        if status == 200:
            reply = json.loads(raw)
            join_census.add(
                reply["num_probes"], reply["similarity_evaluations"], reply["num_pairs"]
            )
    layer_metrics.join_layer(out, window, join_probes, join_census)
    layer_metrics.serialization_layer(
        out,
        shared.save_seconds,
        shared.total_filters,
        shared.disk_bytes,
        open_mmap_ms=statistics.median(entry["open_ms"] for entry in opens),
    )

    endpoints = session.stats_end["endpoints"]
    query_endpoint = endpoints["/query"]["latency"]
    out.set(
        "serve.http.overhead_ms_p50",
        percentile(session.query_latencies, 0.50) * 1e3 - query_endpoint["p50_ms"],
    )
    for counter in ("requests", "errors", "shed"):
        out.set(f"serve.http.{counter}", sum(entry[counter] for entry in endpoints.values()))
    out.set("serve.batcher.mean_occupancy", served["mean_batch_occupancy"])
    out.set("serve.batcher.engine_calls", served["engine_calls"])
    out.set(
        "serve.batcher.admission_wait_ms_mean",
        query_endpoint["mean_ms"] - served["engine_seconds"] / served["engine_calls"] * 1e3,
    )
    busy = (
        session.stats_closed["indexes"]["default"]["engine_seconds"]
        - session.stats_warm["indexes"]["default"]["engine_seconds"]
    )
    out.set("serve.service.engine_busy_share", busy / session.closed_wall)
    out.set(
        "loadgen.late_ms_p95", percentile([reply.late for reply in session.open], 0.95) * 1e3
    )
    out.set(
        "trace.overhead_share", reference_rate / (len(session.closed) / session.closed_wall) - 1.0
    )
    context.ledger.check(
        not window.missing(SPANS), f"serve_http: dead wrappers {window.missing(SPANS)}"
    )
