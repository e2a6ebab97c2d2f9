"""Failure semantics: dead workers, bounded respawn, the 503 surface, and
hostile or out-of-date probe frames."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.dtypes import REPETITION_DTYPE
from repro.dist import (
    InprocTransport,
    ShardTransport,
    ShardUnavailableError,
    ShardWorkerState,
    SpawnTransport,
    load_routed_index,
    protocol,
    shard_router_of,
    worker_shard_ranges,
)
from repro.serve.config import IndexSpec, ServeConfig
from repro.serve.service import ApiError, QueryService

# Mirror the conftest fixture geometry (pytest imports conftest outside a
# package, so the constants cannot be imported from it directly).
NUM_SHARDS = 4
NUM_WORKERS = 2


@pytest.fixture
def killable_index(dist_index):
    """A private spawn-routed index the test is allowed to damage."""
    index = load_routed_index(
        dist_index.path, transport="spawn", shard_procs=NUM_WORKERS, timeout=60.0
    )
    yield index
    shard_router_of(index).close()


def test_killed_worker_respawns_and_answers(mmap_index, killable_index, dist_index):
    expected_arrays, _stats = mmap_index.query_candidates_arrays_batch(
        dist_index.queries
    )
    router = shard_router_of(killable_index)
    router.take_fanout_stats()

    pid = router.transport.pid_of(0)
    assert pid is not None
    os.kill(pid, signal.SIGKILL)
    time.sleep(0.2)

    arrays, stats = killable_index.query_candidates_arrays_batch(dist_index.queries)
    for expected, actual in zip(expected_arrays, arrays):
        assert np.array_equal(expected, actual)
    assert stats.fanout.failures[0] >= 1
    assert stats.fanout.respawns[0] >= 1
    # The respawned worker has a new pid and stays healthy afterwards.
    assert router.transport.pid_of(0) != pid
    health = router.snapshot()["per_worker"]
    assert all(entry["alive"] for entry in health)


def test_exhausted_respawns_raise_shard_unavailable(dist_index):
    transport = SpawnTransport(
        dist_index.path,
        worker_shard_ranges(NUM_SHARDS, 1),
        timeout=30.0,
        max_respawns=0,
    )
    try:
        keys = np.array([123], dtype=np.uint64)
        items = np.array([1, 2], dtype=np.int64)
        offsets = np.array([0, 2], dtype=np.int64)
        transport.probe(0, 0, keys, items, offsets)  # the worker is healthy
        os.kill(transport.pid_of(0), signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ShardUnavailableError):
            transport.probe(0, 0, keys, items, offsets)
        failures, recoveries = transport.counters()
        assert failures[0] >= 1
        assert recoveries[0] == 0
    finally:
        transport.close()


def test_dead_shard_worker_surfaces_as_503_with_retry_after(dist_index):
    """A ShardUnavailableError escaping the engine maps to 503 + Retry-After."""

    async def scenario() -> None:
        spec = IndexSpec(
            name="default", path=str(dist_index.path), shard_procs=NUM_WORKERS
        )
        service = QueryService([spec], ServeConfig(batch_window_ms=0.0))
        await service.start()
        try:
            query_payload = {"query": sorted(dist_index.dataset[0])}
            response = await service.query(query_payload)
            assert response["index"] == "default"

            router = shard_router_of(service._indexes["default"].index)
            assert router is not None

            def dead_probe(*_args, **_kwargs):
                raise ShardUnavailableError(
                    "shard worker 0 (shards [0, 1]) is unavailable"
                )

            router.probe_batch_routed = dead_probe
            with pytest.raises(ApiError) as excinfo:
                await service.query(query_payload)
            assert excinfo.value.status == 503
            assert excinfo.value.headers.get("Retry-After") == "1"

            with pytest.raises(ApiError) as excinfo:
                await service.query_batch(
                    {"queries": [sorted(v) for v in dist_index.dataset[:4]]}
                )
            assert excinfo.value.status == 503

            with pytest.raises(ApiError) as excinfo:
                await service.similarity_join_endpoint(
                    {"probes": [sorted(v) for v in dist_index.dataset[:4]]}
                )
            assert excinfo.value.status == 503
            assert excinfo.value.headers.get("Retry-After") == "1"

            # A breaker-annotated error carries its backoff; the header is
            # the ceiling of that, never less than one second.
            def backing_off_probe(*_args, **_kwargs):
                raise ShardUnavailableError(
                    "shard worker 0 is unavailable", retry_after=3.2
                )

            router.probe_batch_routed = backing_off_probe
            with pytest.raises(ApiError) as excinfo:
                await service.query(query_payload)
            assert excinfo.value.status == 503
            assert excinfo.value.headers.get("Retry-After") == "4"
        finally:
            await service.close()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# The probe schema: versioned, and its one new field distrusted
# --------------------------------------------------------------------- #


@pytest.fixture
def worker_state(dist_index):
    return ShardWorkerState(dist_index.path, worker_shard_ranges(NUM_SHARDS, 1)[0])


def _probe_frame(repetitions):
    """A well-formed two-probe request frame around a chosen column."""
    return protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE},
        {
            "repetitions": np.asarray(repetitions),
            "keys": np.arange(2, dtype=np.uint64),
            "probe_items": np.arange(2, dtype=np.int64),
            "probe_offsets": np.arange(3, dtype=np.int64),
        },
    )


def _error_of(state, frame):
    """The worker's answer to ``frame``: it must be an error, with no work done."""
    response, shutdown = state.handle_frame(frame)
    meta, arrays = protocol.decode_message(response)
    assert meta["status"] == protocol.STATUS_ERROR and not arrays and not shutdown
    assert state._slices == {}  # refused before any slice was opened
    return meta


def test_worker_answers_a_well_formed_column(worker_state):
    response, _shutdown = worker_state.handle_frame(
        _probe_frame(np.array([0, 2], dtype=REPETITION_DTYPE))
    )
    meta, arrays = protocol.decode_message(response)
    assert meta["status"] == protocol.STATUS_OK
    assert arrays["lengths"].tolist() == [0, 0]


def test_worker_rejects_repetition_column_of_wrong_length(worker_state):
    meta = _error_of(worker_state, _probe_frame(np.zeros(3, dtype=REPETITION_DTYPE)))
    assert "2 keys need int32[2]" in meta["error"]


def test_worker_rejects_repetition_column_of_wrong_dtype(worker_state):
    meta = _error_of(worker_state, _probe_frame(np.zeros(2, dtype=np.int64)))
    assert "repetition column is int64[2]" in meta["error"]


@pytest.mark.parametrize("value", [-1, 3, 2**31 - 1])
def test_worker_rejects_repetition_out_of_range(worker_state, value):
    meta = _error_of(worker_state, _probe_frame(np.array([0, value], dtype=REPETITION_DTYPE)))
    assert "the index has repetitions [0, 3)" in meta["error"]


def test_declared_but_absent_repetition_column_is_refused_undecoded(worker_state):
    frame = _probe_frame(np.zeros(2, dtype=REPETITION_DTYPE))
    _magic, header_len = protocol._PREFIX.unpack_from(frame)
    data_start = protocol._PREFIX.size + header_len
    header = json.loads(frame[protocol._PREFIX.size : data_start])
    # The header promises a gigabyte of column; the bytes never arrive.
    header["arrays"]["repetitions"]["shape"] = [1 << 28]
    raw = json.dumps(header).encode("utf-8")
    hostile = protocol._PREFIX.pack(protocol._MAGIC, len(raw)) + raw + frame[data_start:]
    meta = _error_of(worker_state, hostile)
    assert "ProtocolError" in meta["error"]


def test_worker_answers_a_version_1_probe_frame_with_a_coded_error(worker_state):
    legacy = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE, "repetition": 0},
        {
            "keys": np.arange(2, dtype=np.uint64),
            "probe_items": np.arange(2, dtype=np.int64),
            "probe_offsets": np.arange(3, dtype=np.int64),
        },
    )
    meta = _error_of(worker_state, legacy)
    assert meta["code"] == protocol.ERROR_CODE_PROTOCOL_VERSION
    assert "version 1 frame" in meta["error"] and "KeyError" not in meta["error"]
    assert f"version {protocol.PROTOCOL_VERSION}" in meta["error"]


def test_describe_reports_the_probe_schema_version(worker_state):
    assert worker_state.describe()["protocol"] == protocol.PROTOCOL_VERSION == 2


@pytest.mark.parametrize("reported", [None, 1])
@pytest.mark.parametrize("transport", ["inproc", "spawn", "socket"])
def test_loader_refuses_a_worker_speaking_an_older_schema(
    dist_index, shard_servers, monkeypatch, transport, reported
):
    def describe_as_old_build(describe):
        def describe_old(self, worker):
            info = dict(describe(self, worker))
            del info["protocol"]
            if reported is not None:
                info["protocol"] = reported
            return info

        return describe_old

    # Every transport's describe() answers like a worker built before the
    # column schema; the loader must refuse before a probe is ever sent.
    for owner in (ShardTransport, InprocTransport):
        monkeypatch.setattr(owner, "describe", describe_as_old_build(owner.describe))
    with pytest.raises(protocol.ProtocolVersionError) as excinfo:
        load_routed_index(
            dist_index.path,
            transport=transport,
            shard_procs=NUM_WORKERS,
            shard_addrs=shard_servers if transport == "socket" else None,
        )
    message = str(excinfo.value)
    assert f"version {protocol.PROTOCOL_VERSION}" in message
    assert ("version 1" in message) and isinstance(excinfo.value, protocol.ProtocolError)
