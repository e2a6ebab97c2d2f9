"""Fixtures for the distributed (shard-router) execution tests.

One small skew-adaptive index is built and saved in the sharded v3 format
once per session; the transport tests open it through every execution mode
(single-process mmap, in-process router, spawned worker processes, socket
servers) and assert the results are bit-identical.  Spawn and socket
transports are session-scoped because starting processes/servers dominates
the test runtime.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from repro import SkewAdaptiveIndex, load_index, save_index
from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.dtypes import REPETITION_DTYPE
from repro.core.paths import paths_to_csr
from repro.dist import (
    ShardServer,
    ShardWorkerState,
    load_routed_index,
    shard_router_of,
    worker_shard_ranges,
)
from repro.hashing.pairwise import fold_path
from repro.testing import rng_for

#: Shard count the fixture index is saved with (enough for a 2-worker split).
NUM_SHARDS = 4

#: Worker count every multi-worker transport fixture uses.
NUM_WORKERS = 2


@dataclass
class DistIndex:
    """The saved fixture index plus the traffic the tests replay against it."""

    path: Path
    dataset: list[frozenset[int]]
    queries: list[frozenset[int]]


@pytest.fixture(scope="session")
def dist_index(tmp_path_factory, skewed_distribution, skewed_dataset) -> DistIndex:
    index = SkewAdaptiveIndex(
        skewed_distribution,
        config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=11),
    )
    index.build(skewed_dataset)
    path = tmp_path_factory.mktemp("dist") / "index.v3"
    save_index(index, path, config=PersistenceConfig(shards=NUM_SHARDS))
    rng = rng_for("tests:dist-queries")
    sampled = skewed_distribution.sample_many(24, rng)
    queries = [query if query else frozenset({0}) for query in sampled]
    # Mix in stored vectors so a good fraction of queries actually match.
    queries.extend(skewed_dataset[:16])
    return DistIndex(path=path, dataset=skewed_dataset, queries=queries)


@pytest.fixture(scope="session")
def probe_wave():
    """Real probe traffic for a multi-repetition fan-out, as one batch.

    ``probe_wave(index, queries, plan)`` returns ``(column, probe_items,
    probe_offsets, keys)``: for each ``(probed_in, filters_of)`` pair of
    ``plan``, the engine's filters of ``queries`` in repetition
    ``filters_of``, probed in repetition ``probed_in``.
    """

    def build(index, queries, plan):
        paths, column = [], []
        for probed_in, filters_of in plan:
            found = [
                path
                for query in queries
                for path in index._engine.query_filters(query, filters_of)
            ]
            paths += found
            column += [probed_in] * len(found)
        keys = np.asarray([fold_path(path) for path in paths], dtype=np.uint64)
        return (np.asarray(column, dtype=REPETITION_DTYPE), *paths_to_csr(paths), keys)

    return build


@pytest.fixture(scope="session")
def mmap_index(dist_index: DistIndex):
    """The single-process mmap baseline every transport is compared against."""
    return load_index(dist_index.path, mode="mmap")


@pytest.fixture(scope="session")
def shard_servers(dist_index: DistIndex, tmp_path_factory) -> Iterator[list[str]]:
    """Two in-process socket servers (one TCP, one unix) covering the shards."""
    assignments = worker_shard_ranges(NUM_SHARDS, NUM_WORKERS)
    servers: list[ShardServer] = []
    threads: list[threading.Thread] = []
    addresses: list[str] = []
    socket_dir = tmp_path_factory.mktemp("shard-sockets")
    for worker, shards in enumerate(assignments):
        state = ShardWorkerState(dist_index.path, shards)
        if worker % 2:
            server = ShardServer(state, socket_path=str(socket_dir / f"w{worker}.sock"))
        else:
            server = ShardServer(state, host="127.0.0.1", port=0)
        addresses.append(server.start())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    yield addresses
    for server in servers:
        server.close()
    for thread in threads:
        thread.join(timeout=10)


def _close_routed(index) -> None:
    router = shard_router_of(index)
    assert router is not None
    router.close()


@pytest.fixture(scope="session")
def inproc_index(dist_index: DistIndex):
    index = load_routed_index(
        dist_index.path, transport="inproc", shard_procs=NUM_WORKERS
    )
    yield index
    _close_routed(index)


@pytest.fixture(scope="session")
def spawn_index(dist_index: DistIndex):
    index = load_routed_index(
        dist_index.path, transport="spawn", shard_procs=NUM_WORKERS, timeout=60.0
    )
    yield index
    _close_routed(index)


@pytest.fixture(scope="session")
def socket_index(dist_index: DistIndex, shard_servers: list[str]):
    index = load_routed_index(
        dist_index.path, transport="socket", shard_addrs=shard_servers, timeout=60.0
    )
    yield index
    _close_routed(index)


@pytest.fixture(
    scope="session", params=["inproc", "spawn", "socket"], ids=lambda name: name
)
def routed_index(request):
    """Every router transport, as the same loaded-index interface."""
    return request.getfixturevalue(f"{request.param}_index")
