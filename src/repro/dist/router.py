"""Shard router: fan probe batches out to shard workers, merge CSR slices.

:class:`ShardRouter` owns the v3 manifest's partition contract — the
key-range fences plus a shard→worker map — and a transport.  For each
probe batch it routes every folded key **once** (one ``searchsorted``
over the fences, exactly as single-process mmap mode does), groups the
probes by owning worker, sends each worker one compact CSR sub-request,
and scatter-merges the returned ``(lengths, ids)`` slices back into
probe order.  A batch names a repetition *per probe*, so one fan-out —
one round trip per touched worker — carries as many repetitions as the
caller has filters for; the engine hands it a whole generation wave.  The
merged output is bit-identical to one
:meth:`ShardedInvertedFilterIndex.probe_batch_routed` per repetition,
concatenated, because the resolution *and* the scatter are the same
functions (:mod:`repro.core.inverted_index`) over the same arrays — only
the process boundary moved.

:class:`RouterBackedFilterIndex` wraps one repetition of the routed index
in the store interface the per-repetition callers speak (tuple lookups,
``in``, statistics); the engine's query surfaces call the router itself
and only change *when* a repetition's probes are resolved, so the
pipeline above the probe layer (dedupe, merges, verification, stats) is
untouched — that is what makes all five query surfaces equivalent for
free.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

import numpy as np

from repro.core.engine import DeadlineExceededError
from repro.core.inverted_index import ProbePart, _segment_gather, scatter_parts
from repro.core.mmap_store import MmapReadOnlyError, route_keys
from repro.core.paths import paths_to_csr
from repro.core.stats import ShardFanoutStats
from repro.dist import protocol
from repro.dist.breaker import CircuitBreaker
from repro.dist.transport import (
    ShardTransport,
    ShardUnavailableError,
    ShardWorkerError,
)
from repro.hashing.pairwise import fold_path

Path = tuple[int, ...]

_ROUTER_READ_ONLY_ERROR = (
    "a router-backed index is read-only: shard workers serve mmap views and "
    "cannot accept postings; reload the index with load_index(path, "
    "mode='ram') to insert (removals are fine — tombstones overlay at the "
    "engine level in the router process and never reach the workers)"
)


class ShardRouter:
    """Routes probe batches across shard workers and accounts the fan-out.

    One router serves every repetition of a loaded index (repetitions
    share fences, so the routing table is repetition-independent): every
    probe of a batch carries its own repetition number, and a fan-out sends
    each touched worker one request whatever repetitions the batch mixes.
    ``ShardFanoutStats.requests`` therefore counts frames sent and ``rows``
    the postings shipped — including those of repetitions an early exit
    upstream never reads.

    Fan-out accounting is two-tier: ``take_fanout_stats`` drains a pending
    delta (folded into each ``BatchQueryStats`` by the engine), while
    ``snapshot`` reports lifetime totals plus transport health for
    ``/stats`` and ``/metrics``.
    """

    def __init__(
        self,
        transport: ShardTransport,
        fences: np.ndarray,
        shard_to_worker: np.ndarray,
    ) -> None:
        self._transport = transport
        self._fences = np.ascontiguousarray(fences, dtype=np.uint64)
        self._shard_to_worker = np.ascontiguousarray(shard_to_worker, dtype=np.int64)
        if self._shard_to_worker.size != self._fences.size + 1:
            raise ValueError(
                f"shard_to_worker maps {self._shard_to_worker.size} shards but the "
                f"fences define {self._fences.size + 1}"
            )
        workers = transport.num_workers
        self._stats_lock = threading.Lock()
        self._pending = ShardFanoutStats.sized(workers)
        self._lifetime = ShardFanoutStats.sized(workers)
        self._seen_failures = [0] * workers
        self._seen_recoveries = [0] * workers
        # One breaker per worker, seeded by index: jitter schedules are
        # reproducible but the workers never back off in lockstep.
        self._breakers = [CircuitBreaker(seed=worker) for worker in range(workers)]
        self._retries = [0] * workers
        self._pool = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-router")
            if workers > 1
            else None
        )
        self._closed = False

    @property
    def transport(self) -> ShardTransport:
        return self._transport

    @property
    def num_workers(self) -> int:
        return self._transport.num_workers

    @property
    def num_shards(self) -> int:
        return self._shard_to_worker.size

    @property
    def fences(self) -> np.ndarray:
        return self._fences

    @property
    def breakers(self) -> list[CircuitBreaker]:
        """Per-worker circuit breakers (index-aligned with workers)."""
        return self._breakers

    # ------------------------------------------------------------------ #
    # Fan-out accounting
    # ------------------------------------------------------------------ #

    def _record(self, worker: int, rows: int, seconds: float) -> None:
        with self._stats_lock:
            for record in (self._pending, self._lifetime):
                record.requests[worker] += 1
                record.rows[worker] += rows
                record.seconds[worker] += seconds

    def _record_abort(self, worker: int) -> None:
        with self._stats_lock:
            for record in (self._pending, self._lifetime):
                record.aborts[worker] += 1

    def _record_missing(self, shards: np.ndarray) -> None:
        """Mark shards whose postings are absent from the current batch."""
        shard_list = [int(shard) for shard in np.unique(shards)]
        with self._stats_lock:
            merged = set(self._pending.shards_missing)
            merged.update(shard_list)
            self._pending.shards_missing = sorted(merged)

    def _record_retry(self, worker: int) -> None:
        with self._stats_lock:
            self._retries[worker] += 1

    def _fold_transport_counters(self) -> None:
        """Fold new transport failures/recoveries into both accumulators."""
        failures, recoveries = self._transport.counters()
        for worker in range(len(failures)):
            new_failures = failures[worker] - self._seen_failures[worker]
            new_recoveries = recoveries[worker] - self._seen_recoveries[worker]
            if new_failures:
                self._pending.failures[worker] += new_failures  # repro-lint: disable=RPL002 -- private helper, every caller already holds _stats_lock
                self._lifetime.failures[worker] += new_failures
                self._seen_failures[worker] = failures[worker]
            if new_recoveries:
                self._pending.respawns[worker] += new_recoveries  # repro-lint: disable=RPL002 -- private helper, every caller already holds _stats_lock
                self._lifetime.respawns[worker] += new_recoveries
                self._seen_recoveries[worker] = recoveries[worker]

    def take_fanout_stats(self) -> ShardFanoutStats:
        """Drain the pending per-worker delta since the previous take.

        The engine calls this once per batch and folds the result into that
        batch's ``BatchQueryStats.fanout``; lifetime totals are unaffected.
        """
        with self._stats_lock:
            self._fold_transport_counters()
            taken = self._pending
            self._pending = ShardFanoutStats.sized(self.num_workers)
        if taken.shards_missing:
            taken.completeness = 1.0 - len(taken.shards_missing) / self.num_shards
        return taken

    def snapshot(self) -> dict[str, Any]:
        """Lifetime fan-out totals + per-worker transport health (/stats)."""
        with self._stats_lock:
            self._fold_transport_counters()
            lifetime = ShardFanoutStats()
            lifetime.add(self._lifetime)
        with self._stats_lock:
            retries = list(self._retries)
        health = self._transport.health()
        per_worker = []
        for worker in range(self.num_workers):
            entry = dict(health[worker]) if worker < len(health) else {"worker": worker}
            entry.update(
                requests=lifetime.requests[worker],
                rows=lifetime.rows[worker],
                seconds=lifetime.seconds[worker],
                failures=lifetime.failures[worker],
                respawns=lifetime.respawns[worker],
                aborts=lifetime.aborts[worker],
                retries=retries[worker],
                breaker=self._breakers[worker].snapshot(),
            )
            per_worker.append(entry)
        return {
            "transport": self._transport.kind,
            "workers": self.num_workers,
            "num_shards": self.num_shards,
            "per_worker": per_worker,
        }

    # ------------------------------------------------------------------ #
    # The probe fan-out itself
    # ------------------------------------------------------------------ #

    def probe_batch_routed(
        self,
        repetitions: int | np.ndarray,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        keys: Sequence[int] | np.ndarray,
        *,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route, fan out, and merge one probe batch in one round of requests.

        ``repetitions`` names the repetition each probe is resolved in: a
        per-probe column, or an int for a batch within one repetition.  The
        probes arrive in CSR form (exactly what each worker sub-request
        ships) and the result is ``(ids, offsets, route)`` in probe order
        with the identical contract — including the *shard-level* route
        array — as the single-process
        :meth:`ShardedInvertedFilterIndex.probe_batch_routed` called once
        per repetition and concatenated, so every stats counter derived
        from the route (``shards_probed``) agrees bit-for-bit across
        execution modes.

        The request's scope is this call's arguments: ``deadline`` (absolute
        ``time.time()`` epoch) is checked before each worker's request and
        forwarded in its frame; with ``allow_partial`` a worker whose breaker
        is open, or whose request fails, is skipped — its probes answer zero
        postings and its shards are reported missing — instead of failing
        the batch.  The scope, each worker's breaker slot and the failure
        handling all apply once per fan-out, so a skipped worker drops out
        of every repetition of the batch.
        """
        num_probes = len(probe_offsets) - 1
        empty = np.empty(0, dtype=np.int64)
        if num_probes == 0:
            return empty, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        column = protocol.repetition_column(repetitions, num_probes)
        keys_arr = np.ascontiguousarray(keys, dtype=np.uint64)
        probe_starts = probe_offsets[:-1]
        probe_lengths = np.diff(probe_offsets)
        route = route_keys(self._fences, keys_arr)
        worker_route = self._shard_to_worker[route]
        touched = np.unique(worker_route).tolist()

        def skip(worker: int, members: np.ndarray) -> ProbePart:
            """A degraded part: this worker's probes answer zero postings."""
            self._record_missing(route[members])
            return members, np.zeros(members.size, dtype=np.int64), empty

        def call(worker: int) -> ProbePart:
            members = np.flatnonzero(worker_route == worker)
            if deadline is not None and time.time() >= deadline:
                self._record_abort(worker)
                raise DeadlineExceededError(
                    f"deadline expired before the fan-out to worker {worker}"
                )
            breaker = self._breakers[worker]
            if not breaker.acquire():
                if allow_partial:
                    return skip(worker, members)
                raise ShardUnavailableError(
                    f"shard worker {worker} circuit breaker is "
                    f"{breaker.state}: failing fast instead of waiting on a "
                    "known-bad worker",
                    retry_after=breaker.retry_after(),
                )
            if breaker.probing:
                # This admission is a half-open recovery probe.
                self._record_retry(worker)
            sub_keys = keys_arr[members]
            sub_lengths = probe_lengths[members]
            sub_items = _segment_gather(probe_items, probe_starts[members], sub_lengths)
            sub_offsets = np.zeros(members.size + 1, dtype=np.int64)
            np.cumsum(sub_lengths, out=sub_offsets[1:])
            started = time.perf_counter()
            try:
                lengths, gathered = self._transport.probe(
                    worker, column[members], sub_keys, sub_items, sub_offsets,
                    deadline=deadline,
                )
            except DeadlineExceededError:
                # The request's budget ran out, which says nothing about
                # the worker's health: release the breaker slot untouched.
                breaker.record_neutral()
                self._record_abort(worker)
                raise
            except ShardWorkerError:
                # The worker answered (an application error): it is alive,
                # so the incident streak resets before the error surfaces.
                breaker.record_success()
                raise
            except (ShardUnavailableError, protocol.ProtocolError) as error:
                breaker.record_failure()
                if allow_partial:
                    return skip(worker, members)
                if isinstance(error, ShardUnavailableError):
                    if error.retry_after is None:
                        error.retry_after = breaker.retry_after()
                    raise
                raise ShardUnavailableError(
                    f"shard worker {worker} answered an undecodable frame: "
                    f"{error}",
                    retry_after=breaker.retry_after(),
                ) from error
            breaker.record_success()
            self._record(
                worker, rows=int(gathered.size), seconds=time.perf_counter() - started
            )
            lengths = np.ascontiguousarray(lengths, dtype=np.int64)
            gathered = np.ascontiguousarray(gathered, dtype=np.int64)
            return members, lengths, gathered

        if self._pool is not None and len(touched) > 1:
            parts = list(self._pool.map(call, touched))
        else:
            parts = [call(worker) for worker in touched]

        ids, offsets = scatter_parts(num_probes, parts)
        return ids, offsets, route.astype(np.int64, copy=False)

    def contains(self, repetition: int, path: Path) -> bool:
        """Exact stored-path check, answered by the owning worker."""
        key = fold_path(path)
        shard = int(route_keys(self._fences, np.asarray([key], dtype=np.uint64))[0])
        worker = int(self._shard_to_worker[shard])
        return self._transport.contains(
            worker, repetition, key, np.asarray(path, dtype=np.int64)
        )

    def close(self) -> None:
        """Shut the transport down (idempotent); workers stop or disconnect."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        self._transport.close()


class RouterBackedFilterIndex:
    """One repetition of a routed index, speaking the store contract.

    Drop-in for :class:`~repro.core.mmap_store.ShardedInvertedFilterIndex`
    on the read path; statistics answer from the manifest counts exactly as
    the mmap store does, and mutation raises the same read-only error
    family.  A probe through this view is a fan-out of its own, for one
    repetition — right for lookups and diagnostics; the engine's query
    surfaces resolve whole waves of repetitions through the router itself.
    """

    def __init__(
        self,
        router: ShardRouter,
        repetition: int,
        slot_counts: Sequence[int],
        posting_counts: Sequence[int],
    ) -> None:
        self._router = router
        self._repetition = int(repetition)
        self._slot_counts = [int(count) for count in slot_counts]
        self._posting_counts = [int(count) for count in posting_counts]

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def fences(self) -> np.ndarray:
        return self._router.fences

    def probe_batch(
        self,
        paths: Sequence[Path],
        keys: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe_batch_routed` for tuple paths, without the routes."""
        probe_items, probe_offsets = paths_to_csr(paths)
        ids, offsets, _route = self.probe_batch_routed(probe_items, probe_offsets, keys)
        return ids, offsets

    def probe_batch_routed(
        self,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        keys: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many CSR probes across the shard workers; slices + route."""
        return self._router.probe_batch_routed(
            self._repetition, probe_items, probe_offsets, keys
        )

    def lookup(self, path: Path) -> list[int]:
        """Vector ids that chose ``path`` (empty list if none)."""
        path = tuple(path)
        return self.lookup_keyed(path, fold_path(path))

    def lookup_keyed(self, path: Path, key: int) -> list[int]:
        """:meth:`lookup` with the path's folded key already in hand."""
        ids, _offsets = self.probe_batch([tuple(path)], [int(key)])
        return ids.tolist()

    def __contains__(self, path: Path) -> bool:
        return self._router.contains(self._repetition, tuple(path))

    # ------------------------------------------------------------------ #
    # Mutation (rejected) and compaction (no-op)
    # ------------------------------------------------------------------ #

    def add(self, *_args: Any, **_kwargs: Any) -> int:
        raise MmapReadOnlyError(_ROUTER_READ_ONLY_ERROR)

    def add_many(self, *_args: Any, **_kwargs: Any) -> int:
        raise MmapReadOnlyError(_ROUTER_READ_ONLY_ERROR)

    def add_postings(self, *_args: Any, **_kwargs: Any) -> None:
        raise MmapReadOnlyError(_ROUTER_READ_ONLY_ERROR)

    def compact(self) -> None:
        """No-op: the workers' mapped shards are always compact."""

    # ------------------------------------------------------------------ #
    # Statistics and serialisation
    # ------------------------------------------------------------------ #

    @property
    def num_filters(self) -> int:
        """Number of distinct filters stored (from the manifest counts)."""
        return sum(self._slot_counts)

    @property
    def total_entries(self) -> int:
        """Total number of (filter, vector) postings (manifest counts)."""
        return sum(self._posting_counts)

    def __len__(self) -> int:
        return self.num_filters

    def to_state(self) -> dict[str, np.ndarray]:
        raise TypeError(
            "a router-backed index cannot be materialised: its shards live in "
            "worker processes; reload with load_index(path, mode='mmap') or "
            "mode='ram' to export or convert"
        )

    def to_sorted_state(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        raise TypeError(
            "a router-backed index cannot be materialised: its shards live in "
            "worker processes; reload with load_index(path, mode='mmap') or "
            "mode='ram' to export or convert"
        )

    def __repr__(self) -> str:
        return (
            f"RouterBackedFilterIndex(repetition={self._repetition}, "
            f"num_shards={self.num_shards}, workers={self._router.num_workers}, "
            f"num_filters={self.num_filters}, total_entries={self.total_entries})"
        )
