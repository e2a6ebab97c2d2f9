"""Pluggable transports between the shard router and its workers.

One small interface, three implementations:

* :class:`InprocTransport` — workers are plain objects in the router's
  process.  Zero copies, zero frames; the degenerate case that makes the
  cross-transport equivalence suite cheap and exact.
* :class:`SpawnTransport` — ``multiprocessing`` *spawn* children, one per
  worker, each mmap-loading only its own shard files.  Frames travel as
  raw buffers over pipes (``send_bytes``/``recv_bytes`` — pickle-free),
  requests are bounded by a timeout, and a worker that dies or hangs is
  killed and respawned once before :class:`ShardUnavailableError` escapes.
* :class:`SocketTransport` — pre-started ``repro shard-worker`` servers
  reached over TCP or unix-domain sockets with length-prefixed frames.
  Same bounded timeout; recovery is one reconnect instead of a respawn.

The router never knows which one it holds: every transport exposes
``probe``/``describe``/``close``, per-worker shard
assignments, and cumulative failure/recovery counters.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import threading
import time
from pathlib import Path as FilePath
from typing import Any, Sequence

import numpy as np

from repro.core.engine import DeadlineExceededError
from repro.dist import protocol
from repro.dist.worker import ShardWorkerState, pipe_worker_main

#: Default bound on one worker round-trip; generous because a cold worker
#: may be faulting in its first shard pages, but finite so a dead worker
#: surfaces as an error instead of a hang.
DEFAULT_TIMEOUT_SECONDS = 30.0


class ShardWorkerError(RuntimeError):
    """The worker answered, but with an application error (a bug, not an outage)."""


class ShardUnavailableError(RuntimeError):
    """A shard worker is gone (died, hung past the timeout, or unreachable).

    The serving layer maps this to ``503`` + ``Retry-After``: the request
    may succeed on retry once the worker is respawned or reconnected.
    ``retry_after`` carries the worker's actual backoff state in seconds
    when the router's circuit breaker produced (or annotated) the error;
    ``None`` means "no schedule known — retry whenever".
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def worker_shard_ranges(num_shards: int, num_workers: int) -> list[tuple[int, ...]]:
    """Contiguous shard assignment: worker ``w`` owns ``[wS/N, (w+1)S/N)``.

    Contiguous ranges keep each worker's key space an interval, so its mmap
    page locality matches the single-process layout.  ``num_workers`` above
    ``num_shards`` is clamped (a worker with zero shards would be dead
    weight).
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    num_workers = min(num_workers, num_shards)
    return [
        tuple(range((worker * num_shards) // num_workers, ((worker + 1) * num_shards) // num_workers))
        for worker in range(num_workers)
    ]


def shard_to_worker_map(
    assignments: Sequence[Sequence[int]], num_shards: int
) -> np.ndarray:
    """Invert per-worker shard lists into a dense shard→worker array.

    Validates the assignment is a disjoint cover of ``range(num_shards)``:
    a missing shard would silently drop its postings, an overlap would
    double-count them.
    """
    owner = np.full(num_shards, -1, dtype=np.int64)
    for worker, shards in enumerate(assignments):
        for shard in shards:
            if not 0 <= shard < num_shards:
                raise ValueError(f"shard {shard} out of range (num_shards={num_shards})")
            if owner[shard] != -1:
                raise ValueError(
                    f"shard {shard} assigned to both worker {owner[shard]} and "
                    f"worker {worker}"
                )
            owner[shard] = worker
    missing = np.flatnonzero(owner == -1)
    if missing.size:
        raise ValueError(
            f"shards {missing.tolist()} are assigned to no worker; the "
            "assignment must cover every shard"
        )
    return owner


class ShardTransport:
    """Shared request/response plumbing; subclasses provide `_request`."""

    kind = "abstract"

    def __init__(self, assignments: Sequence[Sequence[int]]) -> None:
        self._assignments = tuple(tuple(int(s) for s in shards) for shards in assignments)
        self._counter_lock = threading.Lock()
        self._failures = [0] * len(self._assignments)
        self._recoveries = [0] * len(self._assignments)

    @property
    def num_workers(self) -> int:
        return len(self._assignments)

    @property
    def assignments(self) -> tuple[tuple[int, ...], ...]:
        return self._assignments

    # -- counters ------------------------------------------------------- #

    def _record_failure(self, worker: int, recovered: bool) -> None:
        with self._counter_lock:
            self._failures[worker] += 1
            if recovered:
                self._recoveries[worker] += 1

    def counters(self) -> tuple[list[int], list[int]]:
        """Cumulative per-worker ``(failures, recoveries)`` snapshots."""
        with self._counter_lock:
            return list(self._failures), list(self._recoveries)

    # -- request plumbing ----------------------------------------------- #

    def _request(self, worker: int, payload: bytes) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _decode_response(payload: bytes) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        meta, arrays = protocol.decode_message(payload)
        if meta.get("status") != protocol.STATUS_OK:
            message = str(meta.get("error", "worker reported an error"))
            if meta.get("code") == protocol.ERROR_CODE_DEADLINE:
                # The worker aborted because the request's own budget ran
                # out — not a worker fault, so it must not look like one.
                raise DeadlineExceededError(message)
            raise ShardWorkerError(message)
        return meta, arrays

    def probe(
        self,
        worker: int,
        repetitions: int | np.ndarray,
        keys: np.ndarray,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One probe round trip: ``(lengths, ids)`` in probe order.

        ``repetitions`` is the per-probe repetition column (an int is
        broadcast), so one round trip can carry a whole wave of repetitions.
        """
        if deadline is not None and time.time() >= deadline:
            raise DeadlineExceededError(
                f"deadline expired before the probe request to worker {worker} "
                "was sent"
            )
        payload = protocol.encode_probe_request(
            repetitions, keys, probe_items, probe_offsets, deadline=deadline
        )
        _meta, arrays = self._decode_response(self._request(worker, payload))
        return arrays["lengths"], arrays["ids"]

    def describe(self, worker: int) -> dict[str, Any]:
        payload = protocol.encode_message({"kind": protocol.MESSAGE_DESCRIBE})
        meta, _arrays = self._decode_response(self._request(worker, payload))
        return meta

    def health(self) -> list[dict[str, Any]]:
        """Per-worker liveness + counters (shape shared by every transport)."""
        failures, recoveries = self.counters()
        return [
            {
                "worker": worker,
                "shards": list(self._assignments[worker]),
                "alive": self._alive(worker),
                "failures": failures[worker],
                "recoveries": recoveries[worker],
            }
            for worker in range(self.num_workers)
        ]

    def _alive(self, worker: int) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class InprocTransport(ShardTransport):
    """Workers as in-process objects: the zero-copy degenerate case."""

    kind = "inproc"

    def __init__(self, path: str | FilePath, assignments: Sequence[Sequence[int]]) -> None:
        super().__init__(assignments)
        self._states = [ShardWorkerState(path, shards) for shards in self.assignments]

    def probe(
        self,
        worker: int,
        repetitions: int | np.ndarray,
        keys: np.ndarray,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._states[worker].probe(
            protocol.repetition_column(repetitions, len(keys)),
            keys,
            probe_items,
            probe_offsets,
            deadline=deadline,
        )

    def describe(self, worker: int) -> dict[str, Any]:
        return self._states[worker].describe()

    def _alive(self, worker: int) -> bool:
        return True

    def close(self) -> None:
        self._states = []


class SpawnTransport(ShardTransport):
    """One spawned child process per worker, frames over pipes.

    Each request holds the worker's lock (workers answer sequentially; the
    router's fan-out parallelism is *across* workers), sends one frame, and
    waits at most ``timeout`` seconds.  A broken pipe, EOF, or timeout
    marks the worker dead: it is killed, respawned up to ``max_respawns``
    times per request, and the request retried; past that the caller gets
    :class:`ShardUnavailableError`.
    """

    kind = "spawn"

    def __init__(
        self,
        path: str | FilePath,
        assignments: Sequence[Sequence[int]],
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        max_respawns: int = 1,
    ) -> None:
        super().__init__(assignments)
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._path = str(path)
        self._timeout = float(timeout)
        self._max_respawns = int(max_respawns)
        self._ctx = multiprocessing.get_context("spawn")
        count = self.num_workers
        self._locks = [threading.Lock() for _ in range(count)]
        self._procs: list[Any] = [None] * count
        self._conns: list[Any] = [None] * count
        self._closed = False
        try:
            for worker in range(count):
                self._start_worker(worker)
        except BaseException:
            self.close()
            raise

    def _start_worker(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=pipe_worker_main,
            args=(child_conn, self._path, self.assignments[worker]),
            daemon=True,
            name=f"repro-shard-worker-{worker}",
        )
        process.start()
        child_conn.close()
        self._procs[worker] = process
        self._conns[worker] = parent_conn

    def _kill_worker(self, worker: int) -> None:
        connection = self._conns[worker]
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
        process = self._procs[worker]
        if process is not None:
            process.kill()
            process.join(timeout=5.0)
        self._conns[worker] = None
        self._procs[worker] = None

    def _request(self, worker: int, payload: bytes) -> bytes:
        with self._locks[worker]:
            respawns_left = self._max_respawns
            while True:
                connection = self._conns[worker]
                try:
                    if connection is None:
                        raise OSError("worker connection is down")
                    connection.send_bytes(payload)
                    if not connection.poll(self._timeout):
                        raise OSError(
                            f"no response within {self._timeout:g}s "
                            "(worker hung or died mid-request)"
                        )
                    return bytes(connection.recv_bytes())
                except (BrokenPipeError, EOFError, OSError) as error:
                    recovered = respawns_left > 0 and not self._closed
                    self._record_failure(worker, recovered)
                    self._kill_worker(worker)
                    if not recovered:
                        raise ShardUnavailableError(
                            f"shard worker {worker} (shards "
                            f"{list(self.assignments[worker])}) is unavailable: {error}"
                        ) from error
                    respawns_left -= 1
                    self._start_worker(worker)

    def _alive(self, worker: int) -> bool:
        process = self._procs[worker]
        return process is not None and bool(process.is_alive())

    def pid_of(self, worker: int) -> int | None:
        """The worker's current OS pid (None while down); for fault tests."""
        process = self._procs[worker]
        return None if process is None else process.pid

    def close(self) -> None:
        self._closed = True
        for worker in range(self.num_workers):
            with self._locks[worker]:
                connection = self._conns[worker]
                if connection is not None:
                    try:
                        connection.send_bytes(
                            protocol.encode_message({"kind": protocol.MESSAGE_SHUTDOWN})
                        )
                    except (BrokenPipeError, OSError):
                        pass
                self._kill_worker(worker)


class SocketTransport(ShardTransport):
    """Pre-started shard servers reached over TCP or unix-domain sockets.

    ``addresses`` entries are ``host:port``, a filesystem path, or
    ``unix:PATH`` (anything containing ``/`` is treated as a unix socket).
    Shard assignments are discovered from each server's ``describe``
    response, so the router needs no out-of-band topology file.  Failure
    recovery is one reconnect per request; the remote process's lifecycle
    is not ours to manage.
    """

    kind = "socket"

    def __init__(
        self,
        addresses: Sequence[str],
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        max_reconnects: int = 1,
    ) -> None:
        if not addresses:
            raise ValueError("at least one shard worker address is required")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._addresses = [str(address) for address in addresses]
        self._timeout = float(timeout)
        self._max_reconnects = int(max_reconnects)
        count = len(self._addresses)
        self._locks = [threading.Lock() for _ in range(count)]
        self._socks: list[socket.socket | None] = [None] * count
        # Assignments come from the live workers; ask before wiring counters.
        super().__init__([[] for _ in range(count)])
        try:
            described = [self.describe(worker) for worker in range(count)]
        except BaseException:
            self.close()
            raise
        self._assignments = tuple(
            tuple(int(shard) for shard in info["shards"]) for info in described
        )
        self._described = described

    @property
    def addresses(self) -> list[str]:
        return list(self._addresses)

    def _connect(self, worker: int) -> socket.socket:
        address = self._addresses[worker]
        target: Any
        if address.startswith("unix:"):
            family, target = socket.AF_UNIX, address[len("unix:") :]
        elif "/" in address:
            family, target = socket.AF_UNIX, address
        else:
            host, _sep, port = address.rpartition(":")
            if not _sep:
                raise ValueError(
                    f"address {address!r} is neither host:port nor a unix socket path"
                )
            family, target = socket.AF_INET, (host or "127.0.0.1", int(port))
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        sock.connect(target)
        return sock

    def _request(self, worker: int, payload: bytes) -> bytes:
        with self._locks[worker]:
            reconnects_left = self._max_reconnects
            while True:
                try:
                    sock = self._socks[worker]
                    if sock is None:
                        sock = self._connect(worker)
                        self._socks[worker] = sock
                    protocol.send_frame(sock, payload)
                    return protocol.recv_frame(sock)
                except (protocol.ConnectionClosed, ConnectionError, OSError) as error:
                    self._drop_connection(worker)
                    recovered = reconnects_left > 0
                    self._record_failure(worker, recovered)
                    if not recovered:
                        raise ShardUnavailableError(
                            f"shard worker {worker} at {self._addresses[worker]} "
                            f"is unavailable: {error}"
                        ) from error
                    reconnects_left -= 1

    def _drop_connection(self, worker: int) -> None:
        sock = self._socks[worker]
        self._socks[worker] = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _alive(self, worker: int) -> bool:
        # A live cached connection is the best cheap signal we have; a
        # worker with no cached connection is probed on next use.
        return self._socks[worker] is not None

    def close(self) -> None:
        for worker in range(len(self._addresses)):
            with self._locks[worker]:
                self._drop_connection(worker)


def build_transport(
    path: str | FilePath,
    name: str,
    num_shards: int,
    shard_procs: int,
    shard_addrs: Sequence[str] | None = None,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
) -> ShardTransport:
    """Construct a transport by name (the loader/CLI entry point)."""
    if name == "socket":
        if not shard_addrs:
            raise ValueError("transport 'socket' requires shard worker addresses")
        return SocketTransport(shard_addrs, timeout=timeout)
    assignments = worker_shard_ranges(num_shards, shard_procs)
    if name == "inproc":
        return InprocTransport(path, assignments)
    if name == "spawn":
        return SpawnTransport(path, assignments, timeout=timeout)
    raise ValueError(
        f"unknown shard transport {name!r}; expected 'inproc', 'spawn', or 'socket'"
    )
