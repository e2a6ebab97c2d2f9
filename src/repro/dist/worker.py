"""Shard worker: owns a subset of a v3 index's shards and answers probes.

A worker is the *data plane* of the distributed layer.  It mmap-loads only
the shard files it owns (lazily, via the same container cache the
single-process mmap loader uses), resolves probe batches with the resolver
every store runs (:func:`~repro.core.inverted_index.probe_by_label` and
:func:`~repro.core.inverted_index.scatter_parts`), and returns per-probe
CSR slices.  Because the resolution code is shared — not reimplemented —
results are bit-identical to single-process mmap mode by construction.

The same :class:`ShardWorkerState` backs all three transports:

* ``inproc`` calls :meth:`ShardWorkerState.probe` directly (zero copy);
* ``spawn`` runs :func:`pipe_worker_main` in a spawned child, exchanging
  :mod:`repro.dist.protocol` frames over a multiprocessing pipe
  (``send_bytes``/``recv_bytes`` — raw buffers, never pickle);
* ``tcp``/unix-socket runs :class:`ShardServer`, which frames the same
  messages with a length prefix (``repro shard-worker`` is its CLI face).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path as FilePath
from typing import Any

import numpy as np

from repro.core.dtypes import REPETITION_DTYPE
from repro.core.engine import DeadlineExceededError
from repro.core.inverted_index import ShardSlice, probe_by_label, scatter_parts
from repro.core.mmap_store import route_keys
from repro.core.serialization import (
    _read_manifest,
    _shard_slice_from_container,
    _ShardContainerCache,
)
from repro.dist import protocol


class ShardWorkerState:
    """One worker's owned shards of a saved v3 index, opened lazily.

    ``shards`` is the set of shard indices this worker answers for; a probe
    whose keys route outside that set is a router bug and fails loudly.
    """

    def __init__(self, path: str | FilePath, shards: list[int] | tuple[int, ...]) -> None:
        self._path = FilePath(path)
        manifest = _read_manifest(self._path)
        self._num_shards = int(manifest["num_shards"])
        self._repetitions = int(manifest["repetitions"])
        owned = sorted(int(shard) for shard in shards)
        for shard in owned:
            if not 0 <= shard < self._num_shards:
                raise ValueError(
                    f"shard {shard} out of range for an index with "
                    f"{self._num_shards} shards"
                )
        if not owned:
            raise ValueError("a shard worker must own at least one shard")
        self._owned = frozenset(owned)
        self._shards = tuple(owned)
        self._fences = np.asarray(manifest["fences"], dtype=np.uint64)
        self._counts = [
            [shard_entry["repetitions"][rep] for rep in range(self._repetitions)]
            for shard_entry in manifest["shards"]
        ]
        self._containers = _ShardContainerCache(self._path, list(manifest["shard_files"]))
        self._slices: dict[tuple[int, int], ShardSlice] = {}
        self._lock = threading.Lock()

    @property
    def shards(self) -> tuple[int, ...]:
        return self._shards

    @property
    def repetitions(self) -> int:
        return self._repetitions

    def _slice(self, repetition: int, shard: int) -> ShardSlice:
        if shard not in self._owned:
            raise ValueError(
                f"worker owns shards {sorted(self._owned)} but was asked for "
                f"shard {shard}; the router's worker map is inconsistent"
            )
        if not 0 <= repetition < self._repetitions:
            raise ValueError(
                f"repetition {repetition} out of range (index has "
                f"{self._repetitions})"
            )
        key = (repetition, shard)
        # Double-checked locking: slices are add-only, so a racy hit returns
        # the same immutable ShardSlice the locked path would.
        cached = self._slices.get(key)  # repro-lint: disable=RPL002 -- double-checked fast path; re-read under the lock below
        if cached is not None:
            return cached
        with self._lock:
            cached = self._slices.get(key)
            if cached is None:
                cached = _shard_slice_from_container(
                    self._containers.arrays(shard),
                    self._containers.path_of(shard),
                    repetition,
                    self._counts[shard][repetition],
                )
                self._slices[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Request handlers
    # ------------------------------------------------------------------ #

    def probe(
        self,
        repetitions: np.ndarray,
        keys: np.ndarray,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a CSR probe batch against the owned shards.

        Probe ``k`` is resolved in repetition ``repetitions[k]`` (the
        column may mix repetitions freely: a whole generation wave travels
        as one batch).  Returns ``(lengths, ids)``: per-probe posting counts
        plus the concatenated posting ids in probe order — the worker-local
        half of the scatter-merge that ``probe_batch_routed`` performs
        globally, and exactly what one call per repetition would return,
        concatenated.

        The column arrives from outside the process, so it is checked — its
        dtype, its length against ``keys``, its values against the index's
        repetition count — before anything is allocated or any slice opened.

        ``deadline`` is an absolute wall-clock epoch; it is checked before
        any work and again between (repetition, shard) groups, so a spent
        budget stops the worker working, not just the router waiting.
        """
        if deadline is not None and time.time() >= deadline:
            raise DeadlineExceededError(
                "request deadline expired before the worker started probing"
            )
        keys_arr = np.ascontiguousarray(keys, dtype=np.uint64)
        num_probes = keys_arr.size
        column = np.asarray(repetitions)
        if column.dtype != REPETITION_DTYPE or column.shape != (num_probes,):
            raise ValueError(
                f"repetition column is {column.dtype.name}{list(column.shape)} but "
                f"{num_probes} keys need {np.dtype(REPETITION_DTYPE).name}[{num_probes}]"
            )
        if num_probes == 0:
            return np.zeros(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if int(column.min()) < 0 or int(column.max()) >= self._repetitions:
            raise ValueError(
                f"repetition column spans [{int(column.min())}, {int(column.max())}] "
                f"but the index has repetitions [0, {self._repetitions})"
            )
        items = np.ascontiguousarray(probe_items, dtype=np.int64)
        offsets = np.ascontiguousarray(probe_offsets, dtype=np.int64)
        if offsets.size != num_probes + 1:
            raise ValueError(
                f"probe_offsets has {offsets.size} entries for {num_probes} keys"
            )

        def table_of(label: int) -> ShardSlice:
            repetition, shard = divmod(label, self._num_shards)
            if deadline is not None and time.time() >= deadline:
                raise DeadlineExceededError(
                    "request deadline expired mid-probe (before repetition "
                    f"{repetition}, shard {shard})"
                )
            return self._slice(repetition, shard)

        # One resolution per (repetition, shard) slice the batch touches.
        labels = column.astype(np.int64) * self._num_shards + route_keys(
            self._fences, keys_arr
        )
        ids, out_offsets = scatter_parts(
            num_probes, probe_by_label(labels, table_of, keys_arr, items, offsets)
        )
        return np.diff(out_offsets), ids

    def describe(self) -> dict[str, Any]:
        """Topology and liveness facts for router validation and /stats."""
        return {
            "path": str(self._path),
            "shards": list(self._shards),
            "num_shards": self._num_shards,
            "repetitions": self._repetitions,
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
        }

    # ------------------------------------------------------------------ #
    # Frame dispatch (shared by the pipe and socket servers)
    # ------------------------------------------------------------------ #

    def handle_frame(self, payload: bytes) -> tuple[bytes, bool]:
        """Decode one request frame, run it, encode the response.

        Never raises: every failure becomes a status-``error`` response so a
        malformed request cannot take the worker down.  The second element
        is ``True`` when the request was a clean shutdown.
        """
        kind = "unknown"
        try:
            meta, arrays = protocol.decode_message(payload)
            kind = str(meta.get("kind", "unknown"))
            if kind == protocol.MESSAGE_PROBE:
                if "repetitions" not in arrays:
                    found = (
                        "a version 1 frame (one repetition, in the header)"
                        if "repetition" in meta
                        else "no repetition column"
                    )
                    return (
                        protocol.encode_error(
                            kind,
                            f"this worker speaks probe schema version "
                            f"{protocol.PROTOCOL_VERSION} (a per-probe repetitions "
                            f"column) but received {found}; upgrade the router",
                            code=protocol.ERROR_CODE_PROTOCOL_VERSION,
                        ),
                        False,
                    )
                raw_deadline = meta.get("deadline")
                lengths, ids = self.probe(
                    arrays["repetitions"],
                    arrays["keys"],
                    arrays["probe_items"],
                    arrays["probe_offsets"],
                    deadline=None if raw_deadline is None else float(raw_deadline),
                )
                return protocol.encode_probe_response(lengths, ids), False
            if kind == protocol.MESSAGE_DESCRIBE:
                meta_out = {"kind": kind, "status": protocol.STATUS_OK}
                meta_out.update(self.describe())
                return protocol.encode_message(meta_out), False
            if kind == protocol.MESSAGE_SHUTDOWN:
                return (
                    protocol.encode_message(
                        {"kind": kind, "status": protocol.STATUS_OK}
                    ),
                    True,
                )
            return protocol.encode_error(kind, f"unknown message kind {kind!r}"), False
        except DeadlineExceededError as error:
            # Deadline-coded so the transport re-raises it as a deadline,
            # not as a worker fault — the breaker must not trip on it.
            return (
                protocol.encode_error(
                    kind, str(error), code=protocol.ERROR_CODE_DEADLINE
                ),
                False,
            )
        except Exception as error:  # noqa: BLE001 - worker must answer, not die
            return protocol.encode_error(kind, f"{type(error).__name__}: {error}"), False


def pipe_worker_main(connection: Any, path: str, shards: tuple[int, ...]) -> None:
    """Entry point of a spawned shard worker (module-level for spawn pickling).

    Loops over request frames on the pipe until the parent closes its end,
    the process is killed, or a clean ``shutdown`` message arrives.  Frames
    travel via ``send_bytes``/``recv_bytes``, so no pickle is ever involved
    in the data path — only the (str, tuple) arguments of this function
    cross via the spawn machinery.
    """
    state = ShardWorkerState(path, shards)
    try:
        while True:
            try:
                payload = connection.recv_bytes()
            except (EOFError, OSError):
                break
            response, shutdown = state.handle_frame(payload)
            try:
                connection.send_bytes(response)
            except (BrokenPipeError, OSError):
                break
            if shutdown:
                break
    finally:
        connection.close()


class ShardServer:
    """Length-prefix-framed socket front end around a shard worker.

    Listens on TCP (``host``/``port``, port 0 picks a free one) or a unix
    domain socket (``socket_path``), one thread per connection, each
    connection a sequential request/response loop over the same frames the
    pipe transport uses.  This is what ``repro shard-worker`` runs.
    """

    def __init__(
        self,
        state: ShardWorkerState,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
    ) -> None:
        self._state = state
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._listener: socket.socket | None = None
        self._closed = threading.Event()

    def start(self) -> str:
        """Bind and listen; returns the resolved address string."""
        if self._socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self._socket_path)
            address = self._socket_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
            address = f"{self._host}:{self._port}"
        listener.listen()
        self._listener = listener
        return address

    @property
    def address(self) -> str:
        if self._listener is None:
            raise RuntimeError("server not started")
        if self._socket_path is not None:
            return self._socket_path
        return f"{self._host}:{self._port}"

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`; blocks the calling thread."""
        listener = self._listener
        if listener is None:
            raise RuntimeError("call start() before serve_forever()")
        while not self._closed.is_set():
            try:
                connection, _peer = listener.accept()
            except OSError:
                break  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            )
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            while not self._closed.is_set():
                try:
                    payload = protocol.recv_frame(connection)
                except (protocol.ConnectionClosed, OSError):
                    return
                response, shutdown = self._state.handle_frame(payload)
                try:
                    protocol.send_frame(connection, response)
                except OSError:
                    return
                if shutdown:
                    self.close()
                    return

    def close(self) -> None:
        """Stop accepting; in-flight connections finish their current frame."""
        self._closed.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass
