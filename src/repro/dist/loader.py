"""Open a saved v3 index in router-backed (multi-process) execution mode.

:func:`load_routed_index` is the distributed sibling of
``load_index(path, mode="mmap")``: the router process mmaps only the
*store* container (vectors, tombstones, probabilities — verification and
the engine run here), while the postings shards are served by shard
workers behind a pluggable transport.  Everything above the probe layer
is the standard engine, so results are bit-identical to single-process
modes on every query surface.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.mmap_store import LazyVectorStore
from repro.core.serialization import (
    _construct_index,
    _read_manifest,
    _read_raw_container,
    _restore_engine,
)
from repro.core.stats import BuildStats
from repro.dist import protocol
from repro.dist.faults import FaultSpec, FaultyTransport, fault_spec_from_env
from repro.dist.router import RouterBackedFilterIndex, ShardRouter
from repro.dist.transport import (
    DEFAULT_TIMEOUT_SECONDS,
    build_transport,
    shard_to_worker_map,
)


def default_shard_procs(num_shards: int) -> int:
    """Default fan-out width: one worker per core, capped at the shard count."""
    cores = os.cpu_count() or 1
    return max(1, min(num_shards, cores))


def load_routed_index(
    path: str | Path,
    transport: str = "spawn",
    shard_procs: int | None = None,
    shard_addrs: Sequence[str] | None = None,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    fault_spec: str | FaultSpec | None = None,
) -> Any:
    """Load a v3 index with probes fanned out to shard workers.

    Parameters
    ----------
    path:
        A format v3 index directory (v1/v2 files have no shard layout to
        distribute; convert them first).
    transport:
        ``"spawn"`` (default) starts ``shard_procs`` worker processes,
        ``"inproc"`` keeps the workers in-process (useful for equivalence
        testing — same code path, no IPC), ``"socket"`` connects to
        pre-started ``repro shard-worker`` servers at ``shard_addrs``.
    shard_procs:
        Worker count for ``spawn``/``inproc``; defaults to
        ``min(num_shards, cpu_count)``.  Ignored for ``socket``, where the
        worker set is the address list.
    shard_addrs:
        Worker addresses for ``socket`` (``host:port``, a unix socket
        path, or ``unix:PATH``).  Shard ownership is discovered from each
        worker's ``describe`` response and validated to cover every shard
        exactly once.
    timeout:
        Bound on one worker round-trip; a worker that exceeds it is
        treated as dead (killed + respawned once for ``spawn``,
        reconnected once for ``socket``) before
        :class:`~repro.dist.transport.ShardUnavailableError` escapes.
    fault_spec:
        Optional chaos schedule (a :class:`~repro.dist.faults.FaultSpec`,
        a spec string, or a preset name like ``"crash-one-worker"``) that
        wraps the transport in a
        :class:`~repro.dist.faults.FaultyTransport`.  When unset, the
        ``REPRO_FAULTS`` environment variable is consulted, so chaos
        smoke runs can break an unmodified serving process from outside.

    Returns the same index type ``load_index`` would, with its engine's
    ``shard_router`` set; close the router (``shard_router_of(index).close()``)
    to stop the workers.  Every worker is asked to ``describe`` itself first:
    one that reports an older probe schema than this build sends (or none)
    is refused with :class:`~repro.dist.protocol.ProtocolVersionError`, one
    serving a different index geometry with ``ValueError``.
    """
    path = Path(path)
    if not path.is_dir():
        raise ValueError(
            f"{path} is not a v3 index directory; router-backed loading needs "
            "the sharded v3 layout (use `repro convert` to upgrade v1/v2 files)"
        )
    if shard_addrs is not None and transport != "socket":
        if transport == "spawn":  # the implied default; addresses win
            transport = "socket"
        else:
            raise ValueError(
                f"shard_addrs were given but transport is {transport!r}; "
                "addresses are only meaningful for the 'socket' transport"
            )
    manifest = _read_manifest(path)
    num_shards = int(manifest["num_shards"])
    repetitions = int(manifest["repetitions"])
    num_vectors = int(manifest["num_vectors"])
    fences = np.asarray([int(fence) for fence in manifest["fences"]], dtype=np.uint64)
    if shard_procs is None:
        shard_procs = default_shard_procs(num_shards)

    transport_obj = build_transport(
        path,
        transport,
        num_shards=num_shards,
        shard_procs=shard_procs,
        shard_addrs=shard_addrs,
        timeout=timeout,
    )
    spec = FaultSpec.from_spec(fault_spec)
    if spec is None:
        spec = fault_spec_from_env()
    if spec is not None:
        transport_obj = FaultyTransport(transport_obj, spec)
    try:
        # Every worker, on every transport, must speak this build's probe
        # schema and serve a compatible index.
        for worker in range(transport_obj.num_workers):
            info = transport_obj.describe(worker)
            spoken = info.get("protocol")
            if not isinstance(spoken, int) or spoken < protocol.PROTOCOL_VERSION:
                raise protocol.ProtocolVersionError(
                    f"shard worker {worker} speaks probe schema version "
                    f"{'1 (it reports none)' if spoken is None else spoken} but this "
                    f"router sends version {protocol.PROTOCOL_VERSION} (a per-probe "
                    "repetitions column); restart the worker from this build"
                )
            if int(info["num_shards"]) != num_shards or int(
                info["repetitions"]
            ) != repetitions:
                raise ValueError(
                    f"shard worker {worker} serves an index with "
                    f"{info['num_shards']} shards / {info['repetitions']} "
                    f"repetitions but {path} has {num_shards} / {repetitions}; "
                    "the worker was started on a different index"
                )
        owner = shard_to_worker_map(transport_obj.assignments, num_shards)
        router = ShardRouter(transport_obj, fences, owner)
    except BaseException:
        transport_obj.close()
        raise

    try:
        store = _read_raw_container(path / str(manifest["store_file"]), "mmap")
        missing_store = [
            name
            for name in ("vector_items", "vector_offsets", "removed")
            if name not in store
        ]
        if missing_store:
            raise ValueError(f"{path} store file is missing arrays {missing_store}")
        probabilities = (
            np.asarray(store["probabilities"], dtype=np.float64)
            if "probabilities" in store
            else None
        )
        index = _construct_index(manifest["config"], probabilities)
        build_stats = BuildStats.from_dict(manifest["build_stats"], strict=True)
        vector_items = store["vector_items"]
        vector_offsets = np.asarray(store["vector_offsets"], dtype=np.int64)
        if (
            vector_offsets.size != num_vectors + 1
            or (vector_offsets.size and int(vector_offsets[0]) != 0)
            or np.any(np.diff(vector_offsets) < 0)
            or int(vector_offsets[-1]) != vector_items.size
        ):
            raise ValueError(f"{path} has a malformed stored-vector layout")
        removed = np.asarray(store["removed"]).tolist()
        vectors = LazyVectorStore(vector_items, store["vector_offsets"])

        counts_by_rep = [
            [
                manifest["shards"][shard]["repetitions"][repetition]
                for shard in range(num_shards)
            ]
            for repetition in range(repetitions)
        ]
        filter_indexes = [
            RouterBackedFilterIndex(
                router,
                repetition,
                slot_counts=[
                    int(counts["num_slots"]) for counts in counts_by_rep[repetition]
                ],
                posting_counts=[
                    int(counts["num_postings"]) for counts in counts_by_rep[repetition]
                ],
            )
            for repetition in range(repetitions)
        ]

        restored = _restore_engine(
            index,
            int(manifest["num_vectors_hint"]),
            vectors,
            removed,
            build_stats,
            filter_indexes,
        )
        engine = restored._engine  # noqa: SLF001 - loader is a friend of the engine
        assert engine is not None
        engine.shard_router = router
        return restored
    except BaseException:
        router.close()
        raise


def shard_router_of(index: Any) -> ShardRouter | None:
    """The :class:`ShardRouter` behind a routed index (None otherwise)."""
    engine = getattr(index, "_engine", None)
    if engine is None:
        return None
    router = getattr(engine, "shard_router", None)
    return router if isinstance(router, ShardRouter) else None
