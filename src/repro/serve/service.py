"""The query service: named indexes, coalesced execution, stats, reload.

:class:`QueryService` is the transport-independent core of the serving
layer: it owns one or more indexes loaded via
:func:`~repro.core.serialization.load_index` (mmap mode by default — open,
don't load), routes query traffic through one
:class:`~repro.serve.batcher.MicroBatcher` per index, and answers the
observability and lifecycle requests (``/healthz``, ``/stats``,
``/reload``).  The HTTP layer in :mod:`repro.serve.http` is a thin JSON
adapter over these methods, so tests and embedding applications can drive
the service without a socket.

Request execution guarantees:

* results are **bit-identical** to un-coalesced single queries — the
  micro-batcher hands whole batches to ``query_batch``, whose contract is
  exactly ``[query(q, mode)[0] for q in queries]``;
* a request shed with 429 never executed — there are no partial results;
* a reload swaps the index atomically between engine calls: in-flight
  batches finish on the old index, later batches see the new one, and
  ``/healthz`` reports the index as reloading (503) for the duration.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from typing import Any, Mapping, Sequence

from repro.core.engine import DeadlineExceededError
from repro.core.join import similarity_join
from repro.core.stats import BatchQueryStats
from repro.dist.transport import ShardUnavailableError
from repro.serve.batcher import MicroBatcher, Overloaded
from repro.serve.config import IndexSpec, ServeConfig
from repro.serve.metrics import ServiceMetrics
from repro.similarity.predicates import SimilarityPredicate

#: Index name used when a request omits the ``"index"`` field.
DEFAULT_INDEX_NAME = "default"


class ApiError(Exception):
    """A request failure with an HTTP status and optional extra headers."""

    def __init__(self, status: int, message: str, headers: Mapping[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


def _router_of(index: Any) -> Any:
    """The ShardRouter behind a routed index instance (None otherwise)."""
    if index is None:
        return None
    from repro.dist import shard_router_of

    return shard_router_of(index)


def _close_router_of(index: Any) -> None:
    """Stop the shard workers behind a routed index instance (if any)."""
    router = _router_of(index)
    if router is not None:
        router.close()


class _ServedIndex:
    """One index the service owns: spec, loaded instance, batcher, status."""

    def __init__(self, spec: IndexSpec, config: ServeConfig):
        self.spec = spec
        self.config = config
        # The concrete index class varies by file (skewed / correlated /
        # chosen-path); the service only relies on the shared query surface.
        self.index: Any = None
        self.status = "loading"
        self.load_seconds = 0.0
        self.loaded_at: float | None = None
        self.reloads = 0
        self.batcher = MicroBatcher(
            self._run_batch,
            window_seconds=config.batch_window_seconds,
            max_batch_queries=config.max_batch_queries,
            max_pending_queries=config.max_pending_queries,
        )

    def _run_batch(
        self,
        queries: Sequence[frozenset[int]],
        mode: str,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[Any], BatchQueryStats]:
        """The engine call the batcher runs on its worker thread.

        Reads ``self.index`` at call time, so a reload's swap takes effect
        for every batch dispatched after it.  ``allow_partial`` and
        ``deadline`` come from the coalesced jobs (the batcher groups by
        the flag and takes the loosest member deadline).
        """
        return self.index.query_batch(
            queries,
            mode=mode,
            batch_size=self.config.max_batch_queries,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def load_sync(self) -> Any:
        """Open the index as specced (runs on an executor thread)."""
        start = time.perf_counter()
        if self.spec.routed:
            from repro.dist import load_routed_index

            index = load_routed_index(
                self.spec.path,
                transport="socket" if self.spec.shard_addrs else "spawn",
                shard_procs=self.spec.shard_procs,
                shard_addrs=self.spec.shard_addrs,
                fault_spec=self.spec.fault_spec,
            )
        else:
            from repro.core.serialization import load_index

            index = load_index(self.spec.path, mode=self.spec.load_mode)
        self.load_seconds = time.perf_counter() - start
        return index

    def describe(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "path": self.spec.path,
            "load_mode": self.spec.load_mode,
            "status": self.status,
            "load_seconds": self.load_seconds,
            "reloads": self.reloads,
        }
        if self.spec.routed:
            payload["shard_procs"] = self.spec.shard_procs
            payload["shard_addrs"] = (
                list(self.spec.shard_addrs) if self.spec.shard_addrs else None
            )
            payload["fault_spec"] = self.spec.fault_spec
        if self.index is not None:
            build = self.index.build_stats
            payload["num_vectors"] = build.num_vectors
            payload["repetitions"] = build.repetitions
        return payload


class QueryService:
    """Serve one or more saved indexes with server-side micro-batching."""

    def __init__(self, specs: Sequence[IndexSpec], config: ServeConfig | None = None):
        if not specs:
            raise ValueError("the service needs at least one IndexSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate index names: {sorted(names)}")
        self.config = config if config is not None else ServeConfig()
        self._indexes = {
            spec.name: _ServedIndex(spec, self.config) for spec in specs
        }
        self.metrics = ServiceMetrics(self.config.latency_window)
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Load every index (concurrently, off the event loop)."""
        loop = asyncio.get_running_loop()

        async def load_one(served: _ServedIndex) -> None:
            served.index = await loop.run_in_executor(None, served.load_sync)
            served.status = "ok"

        await asyncio.gather(*(load_one(s) for s in self._indexes.values()))

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for every in-flight batch to finish; ``False`` on timeout."""
        results = await asyncio.gather(
            *(served.batcher.drain(timeout) for served in self._indexes.values())
        )
        return all(results)

    async def close(self) -> None:
        for served in self._indexes.values():
            await served.batcher.close()
        for served in self._indexes.values():
            _close_router_of(served.index)

    @property
    def specs(self) -> list[IndexSpec]:
        """The (current) spec of every served index."""
        return [served.spec for served in self._indexes.values()]

    def _resolve(self, payload: Mapping[str, Any]) -> _ServedIndex:
        name = payload.get("index", DEFAULT_INDEX_NAME)
        if not isinstance(name, str):
            raise ApiError(400, f"'index' must be a string, got {type(name).__name__}")
        if name == DEFAULT_INDEX_NAME and name not in self._indexes and len(self._indexes) == 1:
            # A single-index service answers index-less requests regardless
            # of what the one index is called.
            return next(iter(self._indexes.values()))
        served = self._indexes.get(name)
        if served is None:
            raise ApiError(
                404, f"unknown index {name!r}; serving {sorted(self._indexes)}"
            )
        if served.status != "ok":
            raise ApiError(
                503,
                f"index {name!r} is {served.status}; retry shortly",
                headers={"Retry-After": "1"},
            )
        return served

    # ------------------------------------------------------------------ #
    # Request payload validation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _parse_query(value: Any, what: str = "query") -> frozenset[int]:
        if not isinstance(value, (list, tuple)) or not value:
            raise ApiError(400, f"'{what}' must be a non-empty list of item ids")
        try:
            return frozenset(int(item) for item in value)
        except (TypeError, ValueError):
            raise ApiError(400, f"'{what}' must contain only integers") from None

    @staticmethod
    def _parse_mode(payload: Mapping[str, Any]) -> str:
        mode = payload.get("mode", "first")
        if mode not in ("first", "best"):
            raise ApiError(400, f"'mode' must be 'first' or 'best', got {mode!r}")
        return mode

    def _shed(self, error: Overloaded) -> ApiError:
        retry_after = (
            self.config.retry_after_seconds
            if self.config.retry_after_seconds is not None
            else error.retry_after_seconds
        )
        return ApiError(
            429,
            str(error),
            headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
        )

    @staticmethod
    def _shard_unavailable(name: str, error: ShardUnavailableError) -> ApiError:
        """503 for an unavailable shard worker, with an honest retry hint.

        When the router attached its circuit breaker's backoff the hint is
        that backoff (rounded up to whole seconds, the ``Retry-After``
        granularity); the fixed 1 s only remains for errors raised below
        the breaker layer.
        """
        retry_after = "1"
        if error.retry_after is not None:
            retry_after = str(max(1, math.ceil(error.retry_after)))
        return ApiError(
            503,
            f"index {name!r}: {error}",
            headers={"Retry-After": retry_after},
        )

    @staticmethod
    def _parse_allow_partial(payload: Mapping[str, Any]) -> bool:
        flag = payload.get("allow_partial", False)
        if not isinstance(flag, bool):
            raise ApiError(400, f"'allow_partial' must be a boolean, got {flag!r}")
        return flag

    def _deadline_from(self, headers: Mapping[str, str] | None) -> float | None:
        """The request's absolute deadline (``time.time()`` epoch), or None.

        ``X-Repro-Deadline-Ms`` (a per-request millisecond budget) wins;
        without the header the configured ``default_deadline_ms`` applies.
        """
        raw = (headers or {}).get("x-repro-deadline-ms")
        if raw is None:
            budget_ms = self.config.default_deadline_ms
        else:
            try:
                budget_ms = float(raw)
            except ValueError:
                raise ApiError(
                    400,
                    f"X-Repro-Deadline-Ms must be a number of milliseconds, got {raw!r}",
                ) from None
            if budget_ms <= 0:
                raise ApiError(
                    400, f"X-Repro-Deadline-Ms must be positive, got {raw!r}"
                )
        if budget_ms is None:
            return None
        return time.time() + budget_ms / 1000.0

    def _deadline_expired(self, served: _ServedIndex) -> ApiError:
        """504 for an expired deadline, with a backlog-derived retry hint."""
        retry_after = max(1, math.ceil(served.batcher.estimate_retry_after()))
        return ApiError(
            504,
            f"index {served.spec.name!r}: request deadline expired before the "
            "result was ready",
            headers={"Retry-After": str(retry_after)},
        )

    async def _await_result(
        self, served: _ServedIndex, future: asyncio.Future[Any], deadline: float | None
    ) -> Any:
        """Await a request's future, mapping failures to API errors.

        ``asyncio.wait_for`` is the backstop for a worker hanging past the
        propagated deadline: this request is released with 504 (its future
        cancelled — the batcher tolerates that) even though the engine call
        has not yet noticed the expiry.  Peers coalesced into the same batch
        are untouched; only this request's slice is abandoned.
        """
        try:
            if deadline is None:
                return await future
            remaining = deadline - time.time()
            if remaining <= 0:
                future.cancel()
                raise self._deadline_expired(served)
            return await asyncio.wait_for(future, timeout=remaining)
        except (DeadlineExceededError, asyncio.TimeoutError):
            raise self._deadline_expired(served) from None
        except ShardUnavailableError as error:
            raise self._shard_unavailable(served.spec.name, error) from None

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    async def query(
        self, payload: Mapping[str, Any], headers: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """``POST /query`` — one query through the micro-batcher."""
        served = self._resolve(payload)
        query = self._parse_query(payload.get("query"))
        mode = self._parse_mode(payload)
        deadline = self._deadline_from(headers)
        try:
            future = served.batcher.submit([query], mode, deadline=deadline)
        except Overloaded as error:
            raise self._shed(error) from None
        results, per_query, _fanout = await self._await_result(served, future, deadline)
        stats = per_query[0]
        return {
            "index": served.spec.name,
            "match": results[0],
            "found": stats.found,
            "stats": stats.to_dict(),
        }

    async def query_batch(
        self, payload: Mapping[str, Any], headers: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """``POST /query-batch`` — many queries as one atomic job."""
        served = self._resolve(payload)
        raw = payload.get("queries")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ApiError(400, "'queries' must be a non-empty list of query sets")
        queries = [self._parse_query(entry, what=f"queries[{i}]") for i, entry in enumerate(raw)]
        mode = self._parse_mode(payload)
        allow_partial = self._parse_allow_partial(payload)
        deadline = self._deadline_from(headers)
        try:
            future = served.batcher.submit(
                queries, mode, allow_partial=allow_partial, deadline=deadline
            )
        except Overloaded as error:
            raise self._shed(error) from None
        results, per_query, fanout = await self._await_result(served, future, deadline)
        response: dict[str, Any] = {
            "index": served.spec.name,
            "results": results,
            "num_found": sum(1 for stats in per_query if stats.found),
            "stats": {"per_query": [stats.to_dict() for stats in per_query]},
        }
        if allow_partial:
            response["completeness"] = fanout.completeness
            response["shards_missing"] = list(fanout.shards_missing)
        return response

    async def similarity_join_endpoint(
        self, payload: Mapping[str, Any], headers: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """``POST /similarity-join`` — join a probe collection against an index.

        The join is already a batched consumer of the engine, so it bypasses
        the admission window but runs on the same single engine lane as the
        coalesced batches (its executor), keeping the CPU story honest.
        """
        served = self._resolve(payload)
        raw = payload.get("probes")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ApiError(400, "'probes' must be a non-empty list of probe sets")
        probes = [self._parse_query(entry, what=f"probes[{i}]") for i, entry in enumerate(raw)]
        if served.batcher.inflight_queries + len(probes) > self.config.max_pending_queries:
            raise self._shed(
                Overloaded(
                    f"{served.batcher.inflight_queries} queries in flight; a join of "
                    f"{len(probes)} probes would exceed max_pending_queries="
                    f"{self.config.max_pending_queries}",
                    retry_after_seconds=served.batcher.estimate_retry_after(),
                )
            )
        measure = payload.get("measure", "braun_blanquet")
        threshold = payload.get("threshold", 0.5)
        try:
            predicate = SimilarityPredicate(measure=str(measure), threshold=float(threshold))
        except (KeyError, TypeError, ValueError) as error:
            raise ApiError(400, f"invalid join predicate: {error}") from None
        allow_partial = self._parse_allow_partial(payload)
        deadline = self._deadline_from(headers)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            served.batcher._executor,  # noqa: SLF001 - same engine lane by design
            lambda: similarity_join(
                served.index,
                probes,
                predicate,
                batch_size=self.config.max_batch_queries,
                allow_partial=allow_partial,
                deadline=deadline,
            ),
        )
        result = await self._await_result(served, future, deadline)
        response: dict[str, Any] = {
            "index": served.spec.name,
            "pairs": [[r, s, sim] for r, s, sim in result.pairs],
            "num_pairs": result.num_pairs,
            "num_probes": result.num_probes,
            "candidates_examined": result.candidates_examined,
            "similarity_evaluations": result.similarity_evaluations,
        }
        if allow_partial:
            response["completeness"] = result.fanout.completeness
            response["shards_missing"] = list(result.fanout.shards_missing)
        return response

    def healthz(self) -> tuple[int, dict[str, Any]]:
        """``GET /healthz`` — 200 when every index is serving, 503 otherwise."""
        statuses = {name: served.status for name, served in self._indexes.items()}
        healthy = all(status == "ok" for status in statuses.values())
        return (
            200 if healthy else 503,
            {"status": "ok" if healthy else "unavailable", "indexes": statuses},
        )

    def stats(self) -> dict[str, Any]:
        """``GET /stats`` — counters, latency percentiles, engine aggregates."""
        indexes: dict[str, Any] = {}
        for name, served in self._indexes.items():
            entry = served.describe()
            entry["queue_depth"] = served.batcher.queue_depth
            entry["inflight_queries"] = served.batcher.inflight_queries
            entry.update(served.batcher.stats.snapshot())
            router = _router_of(served.index)
            if router is not None:
                entry["shards"] = router.snapshot()
            indexes[name] = entry
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "config": {
                "batch_window_ms": self.config.batch_window_ms,
                "max_batch_queries": self.config.max_batch_queries,
                "max_pending_queries": self.config.max_pending_queries,
            },
            "endpoints": self.metrics.snapshot(),
            "indexes": indexes,
        }

    def metrics_text(self) -> str:
        """``GET /metrics`` — the whole service in Prometheus text format."""
        from repro.core.kernels import COUNTER_NAMES
        from repro.serve.metrics import MetricFamily

        up: list[tuple[Mapping[str, str], float]] = []
        queue_depth: list[tuple[Mapping[str, str], float]] = []
        inflight: list[tuple[Mapping[str, str], float]] = []
        reloads: list[tuple[Mapping[str, str], float]] = []
        engine_calls: list[tuple[Mapping[str, str], float]] = []
        coalesced: list[tuple[Mapping[str, str], float]] = []
        executed: list[tuple[Mapping[str, str], float]] = []
        found: list[tuple[Mapping[str, str], float]] = []
        shed_jobs: list[tuple[Mapping[str, str], float]] = []
        engine_seconds: list[tuple[Mapping[str, str], float]] = []
        kernel_ops: list[tuple[Mapping[str, str], float]] = []
        shard_up: list[tuple[Mapping[str, str], float]] = []
        shard_requests: list[tuple[Mapping[str, str], float]] = []
        shard_rows: list[tuple[Mapping[str, str], float]] = []
        shard_latency: list[tuple[Mapping[str, str], float]] = []
        shard_failures: list[tuple[Mapping[str, str], float]] = []
        shard_respawns: list[tuple[Mapping[str, str], float]] = []
        shard_retries: list[tuple[Mapping[str, str], float]] = []
        shard_breaker: list[tuple[Mapping[str, str], float]] = []
        for name, served in self._indexes.items():
            label = {"index": name}
            stats = served.batcher.stats
            up.append((label, 1.0 if served.status == "ok" else 0.0))
            queue_depth.append((label, served.batcher.queue_depth))
            inflight.append((label, served.batcher.inflight_queries))
            reloads.append((label, served.reloads))
            engine_calls.append((label, stats.engine_calls))
            coalesced.append((label, stats.coalesced_calls))
            executed.append((label, stats.queries_executed))
            found.append((label, stats.queries_found))
            shed_jobs.append((label, stats.jobs_shed))
            engine_seconds.append((label, stats.engine_seconds))
            kernel = stats.engine_stats.kernel
            for counter_name in COUNTER_NAMES:
                kernel_ops.append(
                    (
                        {"index": name, "stage": counter_name},
                        float(getattr(kernel, counter_name)),
                    )
                )
            router = _router_of(served.index)
            if router is not None:
                for worker_entry in router.snapshot()["per_worker"]:
                    shard_label = {"index": name, "shard": str(worker_entry["worker"])}
                    shard_up.append(
                        (shard_label, 1.0 if worker_entry.get("alive") else 0.0)
                    )
                    shard_requests.append((shard_label, float(worker_entry["requests"])))
                    shard_rows.append((shard_label, float(worker_entry["rows"])))
                    shard_latency.append((shard_label, float(worker_entry["seconds"])))
                    shard_failures.append((shard_label, float(worker_entry["failures"])))
                    shard_respawns.append((shard_label, float(worker_entry["respawns"])))
                    shard_retries.append((shard_label, float(worker_entry["retries"])))
                    shard_breaker.append(
                        (shard_label, float(worker_entry["breaker"]["state_code"]))
                    )
        extra: list[MetricFamily] = [
            (
                "repro_uptime_seconds",
                "gauge",
                "Seconds since the service started.",
                [({}, time.monotonic() - self._started_at)],
            ),
            ("repro_index_up", "gauge", "1 when the index is serving queries.", up),
            (
                "repro_index_queue_depth",
                "gauge",
                "Jobs waiting for batch admission.",
                queue_depth,
            ),
            (
                "repro_index_inflight_queries",
                "gauge",
                "Queries queued plus executing.",
                inflight,
            ),
            (
                "repro_index_reloads_total",
                "counter",
                "Completed index reloads.",
                reloads,
            ),
            (
                "repro_engine_calls_total",
                "counter",
                "Batched engine calls dispatched.",
                engine_calls,
            ),
            (
                "repro_engine_coalesced_calls_total",
                "counter",
                "Engine calls that coalesced more than one query.",
                coalesced,
            ),
            (
                "repro_engine_queries_total",
                "counter",
                "Queries executed by the engine.",
                executed,
            ),
            (
                "repro_engine_queries_found_total",
                "counter",
                "Executed queries that found a match.",
                found,
            ),
            (
                "repro_engine_jobs_shed_total",
                "counter",
                "Jobs refused by admission control.",
                shed_jobs,
            ),
            (
                "repro_engine_seconds_total",
                "counter",
                "Seconds spent inside engine calls.",
                engine_seconds,
            ),
            (
                "repro_kernel_ops_total",
                "counter",
                "Per-stage hot-path kernel work counts (label 'stage' is the "
                "kernel counter name).",
                kernel_ops,
            ),
        ]
        if shard_requests:
            extra.extend(
                [
                    (
                        "repro_shard_up",
                        "gauge",
                        "1 when the shard worker is alive (label 'shard' is the "
                        "worker index).",
                        shard_up,
                    ),
                    (
                        "repro_shard_requests_total",
                        "counter",
                        "Probe RPCs dispatched to the shard worker.",
                        shard_requests,
                    ),
                    (
                        "repro_shard_rows_total",
                        "counter",
                        "Posting rows returned by the shard worker.",
                        shard_rows,
                    ),
                    (
                        "repro_shard_latency_seconds",
                        "counter",
                        "Cumulative seconds spent waiting on the shard worker.",
                        shard_latency,
                    ),
                    (
                        "repro_shard_failures_total",
                        "counter",
                        "Transport failures (dead or timed-out worker round-trips).",
                        shard_failures,
                    ),
                    (
                        "repro_shard_respawns_total",
                        "counter",
                        "Automatic worker respawns / reconnects after a failure.",
                        shard_respawns,
                    ),
                    (
                        "repro_shard_retries_total",
                        "counter",
                        "Half-open probe requests admitted through the worker's "
                        "circuit breaker.",
                        shard_retries,
                    ),
                    (
                        "repro_shard_breaker_state",
                        "gauge",
                        "Circuit breaker state of the shard worker "
                        "(0=closed, 1=half-open, 2=open).",
                        shard_breaker,
                    ),
                ]
            )
        return self.metrics.prometheus_text(extra)

    async def reload(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /reload`` — re-open an index from disk and swap it in.

        The canonical consumer is an external compactor: write a new index
        generation (the staged-rename save guarantees the directory is never
        half-written), then ``POST /reload``.  While the load runs the index
        reports 503 on ``/healthz`` and sheds its query traffic; the swap
        itself is a single reference assignment between engine calls.
        """
        name = payload.get("index", DEFAULT_INDEX_NAME)
        served = self._indexes.get(name)
        if served is None and name == DEFAULT_INDEX_NAME and len(self._indexes) == 1:
            served = next(iter(self._indexes.values()))
        if served is None:
            raise ApiError(404, f"unknown index {name!r}; serving {sorted(self._indexes)}")
        if served.status == "reloading":
            raise ApiError(409, f"index {served.spec.name!r} is already reloading")
        path = payload.get("path")
        if path is not None:
            served.spec = dataclasses.replace(served.spec, path=str(path))
        served.status = "reloading"
        loop = asyncio.get_running_loop()
        try:
            index = await loop.run_in_executor(None, served.load_sync)
        except (ValueError, OSError, ShardUnavailableError) as error:
            served.status = "ok" if served.index is not None else "error"
            raise ApiError(
                500, f"reload of {served.spec.path!r} failed: {error}"
            ) from None
        old_index = served.index
        served.index = index
        served.reloads += 1
        served.loaded_at = time.monotonic()
        served.status = "ok"
        if old_index is not None and old_index is not index and _router_of(old_index):
            # Let in-flight batches on the old index finish before stopping
            # its workers; new batches already see the new index.
            await served.batcher.drain(timeout=5.0)
            _close_router_of(old_index)
        return {
            "index": served.spec.name,
            "path": served.spec.path,
            "load_seconds": served.load_seconds,
            "reloads": served.reloads,
        }
