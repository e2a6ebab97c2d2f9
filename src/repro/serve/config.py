"""Configuration of the asyncio query service.

One frozen dataclass per concern: :class:`IndexSpec` names an on-disk index
the service should own, :class:`ServeConfig` bundles the network, admission
and load-shedding knobs.  Both are plain data so the CLI, tests and embedding
applications construct them directly; validation happens in ``__post_init__``
so a bad flag fails before a socket is ever bound.

The admission knobs are the heart of the service (see ``docs/serving.md``
for tuning guidance):

* ``batch_window_ms`` — how long the admission loop holds the first request
  of a forming batch while more requests coalesce behind it.  ``0`` disables
  coalescing entirely: every request becomes its own engine call (the
  baseline the serving benchmark compares against).
* ``max_batch_queries`` — a forming batch is dispatched as soon as it holds
  this many queries, window notwithstanding.
* ``max_pending_queries`` — bound on queued + executing queries per index;
  beyond it new requests are shed with ``429 Too Many Requests`` and a
  ``Retry-After`` hint instead of growing an unbounded queue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DEFAULT_BATCH_SIZE

#: Endpoint paths the service exposes (the router and the docs share this).
ENDPOINTS = (
    "/query",
    "/query-batch",
    "/similarity-join",
    "/healthz",
    "/stats",
    "/reload",
)


@dataclass(frozen=True)
class IndexSpec:
    """One index the service owns: a name and how to open it.

    Attributes
    ----------
    name:
        The name requests address the index by (``"index"`` field of the
        JSON body; ``"default"`` when omitted).
    path:
        A saved index — a format v3 directory for ``load_mode="mmap"``
        (the serving default), or any readable format for ``"ram"``.
    load_mode:
        ``"mmap"`` (default) opens lazily mapped shards — cold start is
        O(manifest) and resident memory tracks what queries touch; ``"ram"``
        materialises the whole index for maximum throughput.
    shard_procs:
        When set, the index is opened in router-backed multi-process mode
        (``repro.dist.load_routed_index``): this many spawned shard worker
        processes each mmap only their own shard files, and probes fan out
        over real processes.  Requires
        ``load_mode="mmap"`` (the router's own store view is mmap-backed).
    shard_addrs:
        Addresses of pre-started ``repro shard-worker`` servers
        (``host:port``, a unix socket path, or ``unix:PATH``) — the socket
        variant of router-backed mode.  Mutually exclusive with
        ``shard_procs``.
    fault_spec:
        Chaos schedule for router-backed indexes: a fault-spec string or
        preset name (see :mod:`repro.dist.faults`) that wraps the shard
        transport in a fault-injecting proxy.  Test/smoke tooling only —
        leave unset in production.  Requires a routed spec.
    """

    name: str
    path: str
    load_mode: str = "mmap"
    shard_procs: int | None = None
    shard_addrs: tuple[str, ...] | None = None
    fault_spec: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("index name must be non-empty")
        if self.load_mode not in ("ram", "mmap"):
            raise ValueError(
                f"load_mode must be 'ram' or 'mmap', got {self.load_mode!r}"
            )
        if self.shard_procs is not None and self.shard_procs <= 0:
            raise ValueError(
                f"shard_procs must be positive, got {self.shard_procs}"
            )
        if self.shard_procs is not None and self.shard_addrs:
            raise ValueError(
                "shard_procs and shard_addrs are mutually exclusive: spawn "
                "local workers or connect to remote ones, not both"
            )
        if self.routed and self.load_mode != "mmap":
            raise ValueError(
                "router-backed serving requires load_mode='mmap' (the v3 "
                "shard layout is the partition contract the router fans "
                "out over)"
            )
        if self.fault_spec is not None and not self.routed:
            raise ValueError(
                "fault_spec injects faults into the shard transport, which "
                "only exists for router-backed specs (shard_procs or "
                "shard_addrs)"
            )

    @property
    def routed(self) -> bool:
        """Whether this spec opens through the shard router (repro.dist)."""
        return self.shard_procs is not None or bool(self.shard_addrs)


@dataclass(frozen=True)
class ServeConfig:
    """Network, admission and shedding parameters of the query service.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (the chosen port
        is printed on startup and available as ``HttpServer.port``).
    batch_window_ms:
        Micro-batching admission window in milliseconds (default 2.0).
        ``0`` disables coalescing: each request runs as its own engine call.
    max_batch_queries:
        Maximum queries per coalesced engine call; a forming batch is
        dispatched early once it reaches this size (default
        :data:`~repro.core.config.DEFAULT_BATCH_SIZE`).
    max_pending_queries:
        Load-shedding bound on in-flight work per index — queued plus
        currently executing queries.  Requests that would exceed it are
        refused with ``429`` and ``Retry-After`` (default 4096).
    retry_after_seconds:
        Fixed ``Retry-After`` hint for shed requests.  ``None`` (default)
        estimates one from the current backlog and the observed per-query
        service time.
    max_body_bytes:
        Reject request bodies larger than this with ``413`` (default 8 MiB).
    latency_window:
        Per-endpoint ring-buffer size the p50/p99 latency percentiles on
        ``/stats`` are computed over (default 2048 most recent requests).
    default_deadline_ms:
        Per-request deadline applied when a request carries no
        ``X-Repro-Deadline-Ms`` header.  The deadline is propagated down
        to the shard workers (they stop working, not just the router
        waiting) and an expired request answers ``504``.  ``None``
        (default) means requests without the header have no deadline.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    batch_window_ms: float = 2.0
    max_batch_queries: int = DEFAULT_BATCH_SIZE
    max_pending_queries: int = 4096
    retry_after_seconds: float | None = None
    max_body_bytes: int = 8 << 20
    latency_window: int = 2048
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be non-negative, got {self.batch_window_ms}"
            )
        if self.max_batch_queries <= 0:
            raise ValueError(
                f"max_batch_queries must be positive, got {self.max_batch_queries}"
            )
        if self.max_pending_queries <= 0:
            raise ValueError(
                f"max_pending_queries must be positive, got {self.max_pending_queries}"
            )
        if self.retry_after_seconds is not None and self.retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be positive, got {self.retry_after_seconds}"
            )
        if self.max_body_bytes <= 0:
            raise ValueError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}"
            )
        if self.latency_window <= 0:
            raise ValueError(
                f"latency_window must be positive, got {self.latency_window}"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )

    @property
    def batch_window_seconds(self) -> float:
        """The admission window in seconds (what the event loop works in)."""
        return self.batch_window_ms / 1000.0
