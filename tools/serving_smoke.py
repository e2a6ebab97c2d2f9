#!/usr/bin/env python
"""CI serving smoke: boot `repro serve`, hammer it, assert real coalescing.

Starts a real server subprocess on an ephemeral port over the given saved
index, fires concurrent single-query requests at it from a thread pool,
and then asserts — via ``/stats`` — that server-side micro-batching
actually coalesced them:

* every request answered 200 and every response carries a match field;
* ``engine_calls`` < requests (fewer engine calls than requests);
* ``coalesced_calls`` >= 1 and ``mean_batch_occupancy`` > 1.0;
* ``/healthz`` reports ok before and after the burst.

With ``--shard-procs N`` the server runs in router-backed multi-process
mode (one shard router fanning probes out to N spawned shard workers) and
the smoke additionally asserts the per-shard surface:

* ``/stats`` carries a ``shards`` entry with exactly N workers, all alive,
  and a positive total request count after the burst;
* probes are wave-fused: at most one fan-out frame per worker per engine
  call (16 clients coalesce into batches of at most 16 queries, which at
  the smoke index's 4 repetitions is one generation wave, hence one
  fan-out — per-repetition probing sends a second frame for every batch
  holding a query that misses repetition 0);
* ``/metrics`` exposes the ``repro_shard_*`` families.

With ``--fault-spec SPEC`` (requires ``--shard-procs``) the smoke becomes a
chaos scenario instead of a coalescing burst: the server boots with the
fault schedule armed (e.g. the ``crash-one-worker`` preset) and the client
drives ``allow_partial`` batches through the failure, asserting that

* the service *degrades* — at least one 200 arrives with
  ``completeness < 1`` and ``shards_missing`` set — and never answers 5xx
  to a partial-tolerant request;
* the service *recovers* — completeness returns to 1.0 once the breaker's
  half-open probe succeeds, with every worker's breaker closed and at
  least one recovery probe counted in ``/stats``;
* ``/metrics`` exposes the ``repro_shard_breaker_state`` and
  ``repro_shard_retries_total`` families.

Usage::

    PYTHONPATH=src python tools/serving_smoke.py INDEX_PATH QUERIES_FILE \
        [--shard-procs N] [--fault-spec SPEC]
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

NUM_REQUESTS = 64
NUM_CLIENTS = 16

_READY_PATTERN = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def _read_queries(path: Path, count: int) -> list[list[int]]:
    queries: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            items = sorted({int(token) for token in line.split()})
            if items:
                queries.append(items)
    if not queries:
        raise SystemExit(f"no queries in {path}")
    return [queries[i % len(queries)] for i in range(count)]


def _get(port: int, path: str) -> tuple[int, dict]:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _get_text(port: int, path: str) -> tuple[int, str]:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode()
    finally:
        connection.close()


def _post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload).encode()
        connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _post_query(port: int, query: list[int]) -> tuple[int, dict]:
    return _post(port, "/query", {"query": query})


def _run_chaos(port: int, queries: list[list[int]], shard_procs: int) -> int:
    """Drive allow_partial batches through the fault schedule: the service
    must degrade (partial 200s), recover (completeness back to 1.0), and
    never answer 5xx to a partial-tolerant client."""
    batch = {"queries": queries[:8], "allow_partial": True}
    saw_partial = False
    recovered = False
    responses = 0
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, payload = _post(port, "/query-batch", batch)
        assert status < 500, f"5xx under chaos (response {responses}): {payload}"
        assert status == 200, (status, payload)
        responses += 1
        completeness = payload.get("completeness", 1.0)
        if completeness < 1.0:
            saw_partial = True
            assert payload["shards_missing"], payload
            assert len(payload["results"]) == len(batch["queries"]), payload
        elif saw_partial:
            recovered = True
            assert payload.get("shards_missing", []) == [], payload
            break
        time.sleep(0.1)
    assert saw_partial, "fault injection never degraded a response"
    assert recovered, "completeness never returned to 1.0 (no recovery)"

    status, stats = _get(port, "/stats")
    assert status == 200, status
    (index_stats,) = stats["indexes"].values()
    per_worker = index_stats["shards"]["per_worker"]
    assert len(per_worker) == shard_procs, per_worker
    assert all(
        entry["breaker"]["state"] == "closed" for entry in per_worker
    ), per_worker
    retries = sum(entry["retries"] for entry in per_worker)
    assert retries >= 1, f"no half-open recovery probe was ever admitted: {per_worker}"
    failures = sum(entry["failures"] for entry in per_worker)
    assert failures >= 1, per_worker

    status, metrics = _get_text(port, "/metrics")
    assert status == 200, status
    assert "repro_shard_breaker_state" in metrics, "breaker gauge missing"
    assert "repro_shard_retries_total" in metrics, "retries counter missing"

    print(
        f"OK: chaos degraded and recovered over {responses} partial-tolerant "
        f"batches ({failures} worker failures, {retries} recovery probes, "
        f"0 server errors)"
    )
    return 0


def main(argv: list[str]) -> int:
    shard_procs = None
    fault_spec = None
    positional: list[str] = []
    arguments = list(argv)
    while arguments:
        argument = arguments.pop(0)
        if argument == "--shard-procs":
            if not arguments:
                print(__doc__)
                return 2
            shard_procs = int(arguments.pop(0))
        elif argument == "--fault-spec":
            if not arguments:
                print(__doc__)
                return 2
            fault_spec = arguments.pop(0)
        else:
            positional.append(argument)
    if len(positional) != 2 or (fault_spec is not None and shard_procs is None):
        print(__doc__)
        return 2
    index_path, queries_file = positional
    queries = _read_queries(Path(queries_file), NUM_REQUESTS)

    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        index_path,
        "--port",
        "0",
        "--batch-window-ms",
        "5",
        "--max-batch-size",
        "64",
    ]
    if shard_procs is not None:
        command += ["--shard-procs", str(shard_procs)]
    if fault_spec is not None:
        command += ["--fault-spec", fault_spec]
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        port = None
        assert server.stdout is not None
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                raise SystemExit("server exited before printing the ready line")
            match = _READY_PATTERN.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise SystemExit("server never printed the ready line")

        status, payload = _get(port, "/healthz")
        assert status == 200 and payload["status"] == "ok", (status, payload)

        if fault_spec is not None:
            assert shard_procs is not None
            return _run_chaos(port, queries, shard_procs)

        with ThreadPoolExecutor(max_workers=NUM_CLIENTS) as pool:
            responses = list(pool.map(lambda q: _post_query(port, q), queries))
        bad = [(s, p) for s, p in responses if s != 200 or "match" not in p]
        assert not bad, f"{len(bad)} bad responses, first: {bad[0]}"

        status, stats = _get(port, "/stats")
        assert status == 200, status
        (index_stats,) = stats["indexes"].values()
        engine_calls = index_stats["engine_calls"]
        coalesced = index_stats["coalesced_calls"]
        occupancy = index_stats["mean_batch_occupancy"]
        assert index_stats["queries_executed"] == NUM_REQUESTS, index_stats
        assert engine_calls < NUM_REQUESTS, (
            f"no coalescing: {engine_calls} engine calls for {NUM_REQUESTS} requests"
        )
        assert coalesced >= 1, f"coalesced_calls={coalesced}"
        assert occupancy > 1.0, f"mean_batch_occupancy={occupancy}"
        query_metrics = stats["endpoints"]["/query"]
        assert query_metrics["requests"] == NUM_REQUESTS, query_metrics
        assert query_metrics["errors"] == 0, query_metrics

        shard_note = ""
        if shard_procs is not None:
            shards = index_stats.get("shards")
            assert shards is not None, "routed serve exported no shards stats"
            per_worker = shards["per_worker"]
            assert len(per_worker) == shard_procs, per_worker
            assert all(entry["alive"] for entry in per_worker), per_worker
            shard_requests = sum(entry["requests"] for entry in per_worker)
            assert shard_requests > 0, per_worker
            assert shard_requests <= shard_procs * engine_calls, (
                f"{shard_requests} fan-out frames for {engine_calls} engine calls on "
                f"{shard_procs} workers: more than one fan-out per call, so probes "
                "are not wave-fused"
            )
            assert shards["transport"] == "spawn", shards
            shard_note = (
                f", {shard_procs} shard workers alive "
                f"({shard_requests} fan-out requests)"
            )

        status, payload = _get(port, "/healthz")
        assert status == 200, (status, payload)

        print(
            f"OK: {NUM_REQUESTS} requests -> {engine_calls} engine calls "
            f"({coalesced} coalesced, mean occupancy {occupancy:.1f}), "
            f"p99 {query_metrics['latency']['p99_ms']:.1f} ms{shard_note}"
        )
        return 0
    finally:
        server.terminate()
        server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
