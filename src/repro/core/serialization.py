"""Saving and loading built indexes (sharded format v3, legacy v2/v1).

Building the filter structure is the expensive step (``O(d n^{1+ρ})``), so a
production deployment wants to build once and reload across processes — and,
past a certain scale, to *open* rather than *load*: an index bigger than RAM
must still answer its first query promptly.

**Format v3 (default)** is a directory, sharded by folded-key range::

    index.v3/
      manifest.json        # version, config, BuildStats, fences, counts
      store.bin            # vectors (CSR), probabilities, tombstones
      shard_0000.bin ...   # per shard: every repetition's postings slice

Each ``.bin`` file is a self-describing raw container: a small JSON header
followed by little-endian numpy arrays at page-aligned offsets — exactly
the layout ``np.memmap`` can serve zero-copy.  Every repetition's postings
store is written with slots in ascending folded-key order and split at the
manifest's key-range *fences*, so a shard's slice of any repetition is
itself key-sorted: the mapped key array doubles as the probe table and
nothing is rebuilt at open time.  Unlike v2, the folded ``path_keys`` *are*
stored (8 bytes per slot buys skipping both the re-fold and the argsort on
load — and in mmap mode makes lazy probing possible at all), offsets are
stored directly rather than delta-encoded (random access must not cumsum),
and nothing is compressed (deflate and ``memmap`` are mutually exclusive).

:func:`load_index` takes ``mode="ram"`` (default) or ``mode="mmap"``:

* RAM mode reads the shard files — concurrently, on a small thread pool —
  concatenates each repetition's slices (shards are ascending key ranges,
  so concatenation *is* the sorted store) and adopts the arrays into
  ordinary :class:`~repro.core.inverted_index.InvertedFilterIndex` stores.
* mmap mode opens ``np.memmap`` views lazily per shard and serves queries
  through :class:`~repro.core.mmap_store.ShardedInvertedFilterIndex` and
  :class:`~repro.core.mmap_store.LazyVectorStore` — cold start is
  O(manifest), resident memory is proportional to the slots a workload
  actually touches, and results are bit-identical to RAM mode on every
  query surface.

**Format v2** (single-file compressed ``.npz`` container) remains fully
readable and writable (``PersistenceConfig(format_version=2)``), serving as
the downgrade path; **format v1** (the original JSON dump) remains readable.
:func:`convert_index_file` rewrites any readable format as any writable one.
Malformed input of every format — bad zip data, corrupt manifests,
truncated shard files, out-of-range postings — is rejected with
:class:`ValueError` carrying an actionable message before it can affect
query results, and v2 containers are still loaded with
``allow_pickle=False`` so files are safe to accept from untrusted sources.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines.chosen_path import ChosenPathIndex
from repro.core.config import (
    CorrelatedIndexConfig,
    PersistenceConfig,
    SkewAdaptiveIndexConfig,
)
from repro.core.correlated_index import CorrelatedIndex
from repro.core.engine import FilterEngine
from repro.core.inverted_index import InvertedFilterIndex, ShardSlice, _permute_slots
from repro.core.mmap_store import (
    LazyVectorStore,
    ShardedInvertedFilterIndex,
    concatenate_shard_slices,
    shard_key_ranges,
)
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.core.stats import BuildStats
from repro.data.distributions import ItemDistribution

#: Format version written by default; bumped on incompatible changes.
FORMAT_VERSION = 3

#: The single-file ``.npz`` container format (still written on request —
#: the v3 → v2 downgrade path — and always readable).
V2_FORMAT_VERSION = 2

#: The legacy all-JSON format this module can still read (and convert).
LEGACY_JSON_VERSION = 1

AnyIndex = SkewAdaptiveIndex | CorrelatedIndex | ChosenPathIndex

_INDEX_KINDS = ("skew_adaptive", "correlated", "chosen_path")

_ZIP_MAGIC = b"PK\x03\x04"

#: Raw-container prefix of every v3 ``.bin`` file: magic, container
#: revision, JSON header length, data start (all little-endian uint32
#: after the 4-byte magic).
_V3_MAGIC = b"RPV3"
_V3_CONTAINER_REVISION = 1
_V3_PREFIX = struct.Struct("<4sIII")

#: Arrays inside a v3 container start at multiples of this (one page), so
#: ``np.memmap`` views fall on page boundaries and lazy paging is clean.
_V3_PAGE = 4096

_MANIFEST_NAME = "manifest.json"
_STORE_NAME = "store.bin"

#: Per-repetition arrays inside each v3 shard file.
_V3_SHARD_ARRAYS = (
    "path_keys",
    "path_items",
    "path_offsets",
    "posting_ids",
    "posting_offsets",
)

#: Per-repetition array names as stored on disk (offsets are delta-encoded
#: to lengths there; :data:`repro.core.inverted_index.STATE_ARRAY_NAMES` is
#: the in-memory contract).
_DISK_POSTINGS_NAMES = ("path_items", "path_lengths", "posting_ids", "posting_lengths")


# --------------------------------------------------------------------- #
# Configuration payloads
# --------------------------------------------------------------------- #


def _config_payload(index: AnyIndex) -> dict[str, Any]:
    if isinstance(index, SkewAdaptiveIndex):
        config = index.config
        return {
            "kind": "skew_adaptive",
            "b1": config.b1,
            "repetitions": config.repetitions,
            "max_depth": config.max_depth,
            "max_paths_per_vector": config.max_paths_per_vector,
            "seed": config.seed,
        }
    if isinstance(index, CorrelatedIndex):
        config = index.config
        return {
            "kind": "correlated",
            "alpha": config.alpha,
            "acceptance_divisor": config.acceptance_divisor,
            "boost_delta": config.boost_delta,
            "repetitions": config.repetitions,
            "max_depth": config.max_depth,
            "max_paths_per_vector": config.max_paths_per_vector,
            "seed": config.seed,
        }
    return {
        "kind": "chosen_path",
        "dimension": index.dimension,
        "b1": index.b1,
        "b2": index.b2,
        "repetitions": index._repetitions,  # noqa: SLF001 - friend module
        "max_paths_per_vector": index._max_paths_per_vector,  # noqa: SLF001
        "seed": index._seed,  # noqa: SLF001
    }


def _construct_index(
    config_payload: dict[str, Any], probabilities: np.ndarray | None
) -> AnyIndex:
    if not isinstance(config_payload, dict):
        raise ValueError("malformed configuration block in saved file")
    kind = config_payload.get("kind")
    if kind not in _INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r} in saved file")
    try:
        return _construct_index_checked(kind, config_payload, probabilities)
    except KeyError as error:
        raise ValueError(
            f"saved {kind} configuration is missing field {error.args[0]!r}"
        ) from error


def _construct_index_checked(
    kind: str, config_payload: dict[str, Any], probabilities: np.ndarray | None
) -> AnyIndex:
    if kind == "chosen_path":
        return ChosenPathIndex(
            dimension=config_payload["dimension"],
            b1=config_payload["b1"],
            b2=config_payload["b2"],
            repetitions=config_payload["repetitions"],
            max_paths_per_vector=config_payload["max_paths_per_vector"],
            seed=config_payload["seed"],
        )
    if probabilities is None:
        raise ValueError(f"saved {kind} index is missing its item probabilities")
    distribution = ItemDistribution(np.asarray(probabilities, dtype=np.float64))
    if kind == "skew_adaptive":
        config: SkewAdaptiveIndexConfig | CorrelatedIndexConfig = SkewAdaptiveIndexConfig(
            b1=config_payload["b1"],
            repetitions=config_payload["repetitions"],
            max_depth=config_payload["max_depth"],
            max_paths_per_vector=config_payload["max_paths_per_vector"],
            seed=config_payload["seed"],
        )
        return SkewAdaptiveIndex(distribution, config=config)
    config = CorrelatedIndexConfig(
        alpha=config_payload["alpha"],
        acceptance_divisor=config_payload["acceptance_divisor"],
        boost_delta=config_payload["boost_delta"],
        repetitions=config_payload["repetitions"],
        max_depth=config_payload["max_depth"],
        max_paths_per_vector=config_payload["max_paths_per_vector"],
        seed=config_payload["seed"],
    )
    return CorrelatedIndex(distribution, config=config)


def _require_engine(index: AnyIndex) -> FilterEngine:
    engine = index._engine  # noqa: SLF001 - serialization is a trusted friend module
    if engine is None:
        raise ValueError("only a built index can be saved; call build() first")
    return engine


# --------------------------------------------------------------------- #
# Save (format v2)
# --------------------------------------------------------------------- #


def _compact_ints(array: np.ndarray) -> np.ndarray:
    """Narrow a non-negative integer array to the smallest unsigned dtype.

    Item ids, vector ids and per-row lengths are far below ``2^64`` in any
    realistic dataset, so this shrinks the dominant arrays of the file by
    2–8×; loading widens them back to int64.
    """
    peak = int(array.max()) if array.size else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if peak < np.iinfo(dtype).max + 1:
            return array.astype(dtype)
    return array


def _lengths_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Delta-encode a CSR offsets array for storage (lengths compress well)."""
    return _compact_ints(np.diff(offsets))


def _offsets_from_lengths(lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_lengths_from_offsets`, rejecting negative lengths.

    (A negative length would make the reconstructed offsets non-monotone and
    silently scramble the rows; files we write store unsigned lengths, so
    this only fires on corrupted or hand-crafted input.)
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1:
        raise ValueError("length arrays must be one-dimensional")
    if lengths.size and int(lengths.min()) < 0:
        raise ValueError("negative row length in saved index; the file is corrupted")
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _locality_order(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reorder a postings state's slots lexicographically by path content.

    The in-memory store keeps slots in folded-*key* order (fast probes), but
    64-bit hashes are a random shuffle of the paths, which costs deflate
    dearly — paths sharing prefixes end up far apart.  The on-disk format
    does not constrain slot order (loading permutes the slots back into key
    order), so saving reorders slots so that prefix-sharing paths are
    adjacent again; at n=10k this shrinks the compressed container by ~40%.
    Implemented as one ``lexsort`` over a depth-padded item matrix — no
    per-slot Python work.
    """
    path_offsets = state["path_offsets"]
    path_items = state["path_items"]
    num_slots = path_offsets.size - 1
    lengths = np.diff(path_offsets)
    max_depth = int(lengths.max()) if num_slots else 0
    if num_slots <= 1 or max_depth == 0:
        return state
    padded = np.full((num_slots, max_depth), -1, dtype=np.int64)
    for level in range(max_depth):
        rows = np.flatnonzero(lengths > level)
        padded[rows, level] = path_items[path_offsets[rows] + level]
    order = np.lexsort(tuple(padded[:, column] for column in range(max_depth - 1, -1, -1)))
    items, offsets = _permute_slots(path_items, path_offsets, order)
    ids, id_offsets = _permute_slots(state["posting_ids"], state["posting_offsets"], order)
    return {
        "path_items": items,
        "path_offsets": offsets,
        "posting_ids": ids,
        "posting_offsets": id_offsets,
    }


def _vectors_csr(vectors: Any) -> tuple[np.ndarray, np.ndarray]:
    """The stored vectors as (flat sorted items, per-vector lengths)."""
    lengths = np.fromiter(
        (len(vector) for vector in vectors), dtype=np.int64, count=len(vectors)
    )
    items = np.fromiter(
        (item for vector in vectors for item in sorted(vector)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return items, lengths


def save_index(
    index: AnyIndex, path: str | Path, config: PersistenceConfig | None = None
) -> None:
    """Serialise a built index in the configured on-disk format.

    Parameters
    ----------
    index:
        A built :class:`SkewAdaptiveIndex`, :class:`CorrelatedIndex` or
        :class:`~repro.baselines.chosen_path.ChosenPathIndex` — including
        one loaded in ``mode="mmap"`` (its mapped shards are materialised
        while writing).
    path:
        Destination path (overwritten if it exists).  Format v3 writes a
        *directory* of shard files here; format v2 a single file.
    config:
        Optional :class:`~repro.core.config.PersistenceConfig`; the default
        writes format v3 with 8 shards.  ``format_version=2`` selects the
        legacy single-file container (the downgrade path).
    """
    if not isinstance(index, (SkewAdaptiveIndex, CorrelatedIndex, ChosenPathIndex)):
        raise TypeError(f"cannot serialise index of type {type(index).__name__}")
    persistence = config if config is not None else PersistenceConfig()
    engine = _require_engine(index)
    if persistence.format_version == V2_FORMAT_VERSION:
        _save_v2(index, engine, Path(path), persistence)
    else:
        _save_v3(index, engine, Path(path), persistence)


def _index_meta(index: AnyIndex, engine: FilterEngine, format_version: int) -> dict[str, Any]:
    """The JSON metadata block shared by the v2 and v3 writers."""
    return {
        "format_version": format_version,
        "config": _config_payload(index),
        "num_vectors": len(engine.vectors),
        "num_vectors_hint": engine.num_vectors_hint,
        "repetitions": engine.repetitions,
        "build_stats": engine.build_stats.to_dict(),
    }


def _save_v2(
    index: AnyIndex, engine: FilterEngine, path: Path, persistence: PersistenceConfig
) -> None:
    """Write the single-file compressed ``.npz`` container (format v2)."""
    if path.is_dir():
        raise ValueError(
            f"cannot write a format v2 single-file container at {path}: it is a "
            "directory (a v3 index?); pick a different destination path"
        )
    meta = _index_meta(index, engine, V2_FORMAT_VERSION)
    arrays: dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    if not isinstance(index, ChosenPathIndex):
        arrays["probabilities"] = np.asarray(
            index.distribution.probabilities, dtype=np.float64
        )
    vector_items, vector_lengths = _vectors_csr(engine.vectors)
    arrays["vector_items"] = _compact_ints(vector_items)
    arrays["vector_lengths"] = _compact_ints(vector_lengths)
    arrays["removed"] = _compact_ints(np.asarray(sorted(engine.removed_ids), dtype=np.int64))
    for repetition, inverted in enumerate(engine.filter_indexes):
        state = _locality_order(dict(inverted.to_state()))
        prefix = f"rep{repetition:04d}_"
        arrays[prefix + "path_items"] = _compact_ints(state["path_items"])
        arrays[prefix + "path_lengths"] = _lengths_from_offsets(state["path_offsets"])
        arrays[prefix + "posting_ids"] = _compact_ints(state["posting_ids"])
        arrays[prefix + "posting_lengths"] = _lengths_from_offsets(state["posting_offsets"])

    writer = np.savez_compressed if persistence.compress else np.savez
    # Write through an open handle so numpy cannot append an ``.npz`` suffix
    # behind the caller's back — the file lands exactly at ``path``.
    with open(path, "wb") as handle:
        writer(handle, **arrays)


# --------------------------------------------------------------------- #
# Format v3: page-aligned raw containers, sharded by folded-key range
# --------------------------------------------------------------------- #


def _align_page(offset: int) -> int:
    return (offset + _V3_PAGE - 1) // _V3_PAGE * _V3_PAGE


def _resolve_io_workers(num_files: int) -> int:
    """Threads that write or read ``num_files`` v3 shard files at once."""
    return max(1, min(num_files, os.cpu_count() or 1))


def _write_raw_container(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write a self-describing raw-array container (one v3 ``.bin`` file).

    Layout: a 16-byte prefix (magic, container revision, JSON header
    length, data start), the JSON header mapping array names to
    ``{dtype, shape, offset}`` (offsets relative to the data start, each
    page-aligned), zero padding, then the raw little-endian array bytes.
    """
    entries: dict[str, dict[str, Any]] = {}
    cursor = 0
    contiguous: dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
            array = array.astype(array.dtype.newbyteorder("<"))
        contiguous[name] = array
        entries[name] = {
            "dtype": np.dtype(array.dtype).str,
            "shape": list(array.shape),
            "offset": cursor,
        }
        cursor = _align_page(cursor + array.nbytes)
    header = json.dumps({"arrays": entries}).encode("utf-8")
    data_start = _align_page(_V3_PREFIX.size + len(header))
    with open(path, "wb") as handle:
        handle.write(
            _V3_PREFIX.pack(_V3_MAGIC, _V3_CONTAINER_REVISION, len(header), data_start)
        )
        handle.write(header)
        for name, array in contiguous.items():
            handle.seek(data_start + entries[name]["offset"])
            array.tofile(handle)
        # Pad the file out to a page boundary so the last mapped array never
        # reads past EOF even when viewed a full page at a time.
        end = data_start + (
            max(
                entries[name]["offset"] + contiguous[name].nbytes
                for name in contiguous
            )
            if contiguous
            else 0
        )
        handle.truncate(_align_page(end))


def _read_raw_container(path: Path, mode: str) -> dict[str, np.ndarray]:
    """Open a v3 ``.bin`` container as arrays (``mmap`` views or ``ram``).

    Every malformed input — wrong magic, corrupt header, arrays extending
    past the end of the file — raises :class:`ValueError` naming the file
    and the problem, so a truncated copy fails loudly instead of serving
    garbage postings.
    """
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        prefix = handle.read(_V3_PREFIX.size)
        if len(prefix) < _V3_PREFIX.size:
            raise ValueError(
                f"{path} is truncated: too short to hold a v3 container prefix"
            )
        magic, revision, header_len, data_start = _V3_PREFIX.unpack(prefix)
        if magic != _V3_MAGIC:
            raise ValueError(f"{path} is not a v3 array container (bad magic)")
        if revision != _V3_CONTAINER_REVISION:
            raise ValueError(
                f"{path} uses container revision {revision}; this version reads "
                f"revision {_V3_CONTAINER_REVISION}"
            )
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise ValueError(f"{path} is truncated inside its container header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            entries = header["arrays"]
            assert isinstance(entries, dict)
        except (ValueError, KeyError, AssertionError) as error:
            raise ValueError(f"{path} has a corrupt container header: {error}") from error

        arrays: dict[str, np.ndarray] = {}
        for name, entry in entries.items():
            try:
                dtype = np.dtype(entry["dtype"])
                shape = tuple(int(axis) for axis in entry["shape"])
                offset = int(entry["offset"])
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path} has a corrupt entry for array {name!r}: {error}"
                ) from error
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
            end = data_start + offset + nbytes
            if offset < 0 or end > file_size:
                raise ValueError(
                    f"{path} is truncated: array {name!r} needs bytes up to "
                    f"{end} but the file holds {file_size}; the file is "
                    "corrupted or was partially copied"
                )
            if mode == "mmap":
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=data_start + offset, shape=shape
                )
            else:
                handle.seek(data_start + offset)
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                arrays[name] = np.fromfile(handle, dtype=dtype, count=count).reshape(shape)
    return arrays


def _shard_file_name(shard: int) -> str:
    return f"shard_{shard:04d}.bin"


def _save_v3(
    index: AnyIndex, engine: FilterEngine, path: Path, persistence: PersistenceConfig
) -> None:
    """Write the sharded, mmap-native directory layout (format v3).

    The write is staged for crash safety: every array is materialised
    *before* any existing file is touched (an mmap-loaded index may be
    resaving over the very shards its views are backed by), the complete
    new layout — manifest last — is written into a sibling staging
    directory, and only then is the destination swapped with two directory
    renames.  At every instant the destination path holds the complete old
    index, the complete new index, or (for the one instant between the
    renames, and after a crash in that window) nothing readable — never a
    mixture of the two saves, which could answer queries inconsistently.
    A crash before the swap leaves the old index untouched.
    """
    num_shards = persistence.shards
    fences = shard_key_ranges(num_shards)
    if path.is_dir():
        existing = {entry.name for entry in path.iterdir()}
        index_like = {
            name
            for name in existing
            if name == _MANIFEST_NAME
            or name == _STORE_NAME
            or (name.startswith("shard_") and name.endswith(".bin"))
        }
        if existing - index_like:
            raise ValueError(
                f"refusing to overwrite {path}: it exists but does not look like "
                f"an index directory (unexpected entries: "
                f"{sorted(existing - index_like)[:5]})"
            )

    meta = _index_meta(index, engine, FORMAT_VERSION)

    # Top-level store file: vectors in CSR form (offsets stored directly so
    # mmap mode can slice without a cumsum), probabilities, tombstones.
    vector_items, vector_lengths = _vectors_csr(engine.vectors)
    vector_offsets = np.zeros(vector_lengths.size + 1, dtype=np.int64)
    np.cumsum(vector_lengths, out=vector_offsets[1:])
    store_arrays: dict[str, np.ndarray] = {
        "vector_items": _compact_ints(vector_items),
        "vector_offsets": vector_offsets,
        "removed": np.asarray(sorted(engine.removed_ids), dtype=np.int64),
    }
    if not isinstance(index, ChosenPathIndex):
        store_arrays["probabilities"] = np.asarray(
            index.distribution.probabilities, dtype=np.float64
        )

    # Slice every repetition's key-sorted postings store at the fences.
    # Shard s of repetition r holds the slots whose folded key falls in
    # [fences[s-1], fences[s]) — a contiguous slot range, because slots are
    # in ascending key order.
    per_shard_arrays: list[dict[str, np.ndarray]] = [{} for _ in range(num_shards)]
    shard_meta: list[list[dict[str, Any]]] = [[] for _ in range(num_shards)]
    for repetition, inverted in enumerate(engine.filter_indexes):
        state, keys = inverted.to_sorted_state()
        path_offsets = np.ascontiguousarray(state["path_offsets"], dtype=np.int64)
        posting_offsets = np.ascontiguousarray(state["posting_offsets"], dtype=np.int64)
        path_items = _compact_ints(np.ascontiguousarray(state["path_items"], dtype=np.int64))
        posting_ids = _compact_ints(np.ascontiguousarray(state["posting_ids"], dtype=np.int64))
        cuts = np.concatenate(
            [[0], np.searchsorted(keys, fences), [keys.size]]
        ).astype(np.int64)
        prefix = f"rep{repetition:04d}_"
        for shard in range(num_shards):
            low, high = int(cuts[shard]), int(cuts[shard + 1])
            shard_keys = keys[low:high]
            arrays = per_shard_arrays[shard]
            arrays[prefix + "path_keys"] = shard_keys
            arrays[prefix + "path_items"] = path_items[
                int(path_offsets[low]) : int(path_offsets[high])
            ]
            arrays[prefix + "path_offsets"] = path_offsets[low : high + 1] - path_offsets[low]
            arrays[prefix + "posting_ids"] = posting_ids[
                int(posting_offsets[low]) : int(posting_offsets[high])
            ]
            arrays[prefix + "posting_offsets"] = (
                posting_offsets[low : high + 1] - posting_offsets[low]
            )
            shard_meta[shard].append(
                {
                    "num_slots": high - low,
                    "num_postings": int(posting_offsets[high] - posting_offsets[low]),
                    "has_duplicate_keys": bool(
                        shard_keys.size and np.any(shard_keys[1:] == shard_keys[:-1])
                    ),
                }
            )

    shard_files = [_shard_file_name(shard) for shard in range(num_shards)]

    # Stage 1: write the complete new layout into a sibling staging
    # directory, manifest last.  Nothing of a pre-existing index has been
    # touched, and to_sorted_state above already materialised every source
    # array, so an mmap-loaded index can safely resave over its own path.
    staging = path.parent / (path.name + ".v3-staging")
    if staging.exists():
        _remove_index_path(staging)
    staging.mkdir(parents=True)

    def write_shard(shard: int) -> None:
        _write_raw_container(staging / shard_files[shard], per_shard_arrays[shard])

    workers = _resolve_io_workers(num_shards)
    if workers > 1 and num_shards > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(write_shard, range(num_shards)))
    else:
        for shard in range(num_shards):
            write_shard(shard)
    _write_raw_container(staging / _STORE_NAME, store_arrays)

    manifest = dict(meta)
    manifest.update(
        {
            "container_revision": _V3_CONTAINER_REVISION,
            "num_shards": num_shards,
            "fences": [int(fence) for fence in fences],
            "store_file": _STORE_NAME,
            "shard_files": shard_files,
            "shards": [{"repetitions": shard_meta[shard]} for shard in range(num_shards)],
        }
    )
    # The manifest lands last even within the staging directory, so no
    # directory with a manifest ever has incomplete shard files.
    (staging / _MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")

    # Stage 2: swap.  The old index (directory or single file) is moved
    # aside, the staging directory renamed into place, and the old copy
    # removed only after the new one is live.
    backup = path.parent / (path.name + ".v3-old")
    if backup.exists():
        _remove_index_path(backup)
    if path.exists():
        os.replace(path, backup)
    os.replace(staging, path)
    if backup.exists():
        _remove_index_path(backup)


def _remove_index_path(path: Path) -> None:
    """Delete a saved index (single file or directory) from disk."""
    if path.is_dir():
        for entry in path.iterdir():
            entry.unlink()
        path.rmdir()
    else:
        path.unlink()


# --------------------------------------------------------------------- #
# Load (v2 fast path + legacy v1)
# --------------------------------------------------------------------- #


def _restore_engine(
    index: AnyIndex,
    num_vectors_hint: int,
    vectors: Any,
    removed: Any,
    build_stats: BuildStats,
    filter_indexes: Any,
) -> AnyIndex:
    engine = index._create_engine(max(num_vectors_hint, 1))  # noqa: SLF001
    # restore_state rejects a repetition count that disagrees with the
    # engine the saved configuration reconstructs.
    engine.restore_state(vectors, removed, build_stats, filter_indexes)
    index._engine = engine  # noqa: SLF001
    return index


def _load_v2(path: Path, persistence: PersistenceConfig) -> AnyIndex:
    try:
        return _load_v2_container(path, persistence)
    except (zipfile.BadZipFile, zlib.error, EOFError) as error:
        # A file can carry the zip magic yet be truncated or corrupt; keep
        # the documented ValueError contract for every malformed input.
        raise ValueError(f"{path} is not a valid index file: {error}") from error


def _load_v2_container(path: Path, persistence: PersistenceConfig) -> AnyIndex:
    with np.load(path, allow_pickle=False) as container:
        try:
            meta = json.loads(bytes(container["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as error:
            raise ValueError(
                f"{path} is not a valid index file: missing or corrupt metadata"
            ) from error
        if not isinstance(meta, dict):
            raise ValueError(f"{path} is not a valid index file: metadata is not an object")
        version = meta.get("format_version")
        if version != V2_FORMAT_VERSION:
            raise ValueError(
                f"unsupported index file format version {version!r}; "
                f"expected {V2_FORMAT_VERSION} in a single-file container"
            )
        missing_meta = [
            key
            for key in ("config", "build_stats", "num_vectors", "num_vectors_hint", "repetitions")
            if key not in meta
        ]
        missing_arrays = [
            name
            for name in ("vector_items", "vector_lengths", "removed")
            if name not in container
        ]
        if missing_meta or missing_arrays:
            raise ValueError(
                f"{path} is not a valid index file: missing "
                f"{missing_meta + missing_arrays}"
            )
        probabilities = (
            np.asarray(container["probabilities"]) if "probabilities" in container else None
        )
        index = _construct_index(meta["config"], probabilities)
        build_stats = BuildStats.from_dict(meta["build_stats"], strict=True)

        vector_items = container["vector_items"].tolist()
        vector_offsets = _offsets_from_lengths(container["vector_lengths"]).tolist()
        if vector_offsets[-1] != len(vector_items):
            raise ValueError(f"{path} has a malformed stored-vector layout")
        vectors = [
            frozenset(vector_items[start:end])
            for start, end in zip(vector_offsets, vector_offsets[1:])
        ]
        num_vectors = int(meta["num_vectors"])
        if len(vectors) != num_vectors:
            raise ValueError(
                f"{path} declares {num_vectors} vectors but stores {len(vectors)}"
            )
        removed = container["removed"].tolist()

        config_payload = meta["config"]
        if config_payload["kind"] == "chosen_path":
            dimension = int(config_payload["dimension"])
        else:
            assert probabilities is not None
            dimension = int(probabilities.size)

        repetitions = int(meta["repetitions"])
        filter_indexes = []
        for repetition in range(repetitions):
            prefix = f"rep{repetition:04d}_"
            missing = [
                name
                for name in _DISK_POSTINGS_NAMES
                if prefix + name not in container
            ]
            if missing:
                raise ValueError(
                    f"{path} is missing arrays for repetition {repetition}: {missing}"
                )
            state = {
                "path_items": container[prefix + "path_items"],
                "path_offsets": _offsets_from_lengths(container[prefix + "path_lengths"]),
                "posting_ids": container[prefix + "posting_ids"],
                "posting_offsets": _offsets_from_lengths(
                    container[prefix + "posting_lengths"]
                ),
            }
            if persistence.validate_postings:
                ids = state["posting_ids"]
                if ids.size and int(ids.max()) >= num_vectors:
                    raise ValueError(
                        f"{path} repetition {repetition} references vector ids beyond "
                        f"the {num_vectors} stored vectors; the file is corrupted"
                    )
                items = state["path_items"]
                if items.size and int(items.max()) >= dimension:
                    raise ValueError(
                        f"{path} repetition {repetition} references items beyond the "
                        f"universe of size {dimension}; the file is corrupted"
                    )
            filter_indexes.append(InvertedFilterIndex.from_state(state))

    return _restore_engine(
        index,
        int(meta["num_vectors_hint"]),
        vectors,
        removed,
        build_stats,
        filter_indexes,
    )


def _read_manifest(path: Path) -> dict[str, Any]:
    """Read and structurally validate a v3 directory's ``manifest.json``."""
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(
            f"{path} is a directory but holds no {_MANIFEST_NAME}; it is not a "
            f"format v{FORMAT_VERSION} index (or the manifest was deleted)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise ValueError(
            f"{manifest_path} is not valid JSON ({error}); the manifest is corrupted"
        ) from error
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} does not hold a JSON object; corrupted")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported index file format version {version!r}; expected {FORMAT_VERSION}"
        )
    required = (
        "config",
        "build_stats",
        "num_vectors",
        "num_vectors_hint",
        "repetitions",
        "num_shards",
        "fences",
        "store_file",
        "shard_files",
        "shards",
    )
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ValueError(
            f"{manifest_path} is missing fields {missing}; the manifest is corrupted"
        )
    try:
        num_shards = int(manifest["num_shards"])
        repetitions = int(manifest["repetitions"])
        fences = [int(fence) for fence in manifest["fences"]]
    except (TypeError, ValueError) as error:
        # Non-numeric counts or fences must surface as the documented
        # ValueError (actionable, CLI-catchable), never a raw TypeError.
        raise ValueError(
            f"{manifest_path} holds non-numeric shard counts or fences "
            f"({error}); the manifest is corrupted"
        ) from error
    if num_shards <= 0 or repetitions <= 0:
        raise ValueError(f"{manifest_path} declares a non-positive shard/repetition count")
    if (
        len(fences) != num_shards - 1
        or any(fences[i] >= fences[i + 1] for i in range(len(fences) - 1))
        or any(not 0 < fence < 1 << 64 for fence in fences)
    ):
        raise ValueError(
            f"{manifest_path} declares {num_shards} shards but its key-range "
            "fences are inconsistent; the manifest is corrupted"
        )
    shard_files = manifest["shard_files"]
    shards = manifest["shards"]
    if len(shard_files) != num_shards or len(shards) != num_shards:
        raise ValueError(
            f"{manifest_path} lists {len(shard_files)} shard files and "
            f"{len(shards)} shard entries for {num_shards} shards; corrupted"
        )
    for shard, entry in enumerate(shards):
        reps = entry.get("repetitions") if isinstance(entry, dict) else None
        if not isinstance(reps, list) or len(reps) != repetitions:
            raise ValueError(
                f"{manifest_path} shard {shard} does not describe all "
                f"{repetitions} repetitions; the manifest is corrupted"
            )
        for repetition, counts in enumerate(reps):
            if not isinstance(counts, dict) or any(
                key not in counts
                for key in ("num_slots", "num_postings", "has_duplicate_keys")
            ):
                raise ValueError(
                    f"{manifest_path} shard {shard} repetition {repetition} is "
                    "missing its slot/posting counts; the manifest is corrupted"
                )
    return manifest


def _shard_slice_from_container(
    arrays: dict[str, np.ndarray],
    file_path: Path,
    repetition: int,
    counts: dict[str, Any],
) -> ShardSlice:
    """Assemble (and validate) one repetition's slice of a shard container."""
    prefix = f"rep{repetition:04d}_"
    missing = [name for name in _V3_SHARD_ARRAYS if prefix + name not in arrays]
    if missing:
        raise ValueError(
            f"{file_path} is missing arrays for repetition {repetition}: {missing}; "
            "the shard file is corrupted or from a different save"
        )
    num_slots = int(counts["num_slots"])
    num_postings = int(counts["num_postings"])
    keys = arrays[prefix + "path_keys"]
    path_offsets = arrays[prefix + "path_offsets"]
    posting_offsets = arrays[prefix + "posting_offsets"]
    posting_ids = arrays[prefix + "posting_ids"]
    if (
        keys.size != num_slots
        or path_offsets.size != num_slots + 1
        or posting_offsets.size != num_slots + 1
        or posting_ids.size != num_postings
    ):
        raise ValueError(
            f"{file_path} repetition {repetition} disagrees with the manifest "
            f"counts ({num_slots} slots, {num_postings} postings); the index "
            "directory mixes files from different saves or is corrupted"
        )
    return ShardSlice(
        keys=keys,
        path_items=arrays[prefix + "path_items"],
        path_offsets=path_offsets,
        posting_ids=posting_ids,
        posting_offsets=posting_offsets,
        has_duplicate_keys=bool(counts["has_duplicate_keys"]),
    )


class _ShardContainerCache:
    """Lazily opened, thread-safe mmap containers of a v3 shard directory."""

    def __init__(self, directory: Path, shard_files: list[str]) -> None:
        self._directory = directory
        self._shard_files = shard_files
        self._containers: dict[int, dict[str, np.ndarray]] = {}
        self._lock = threading.Lock()

    def path_of(self, shard: int) -> Path:
        return self._directory / self._shard_files[shard]

    def arrays(self, shard: int) -> dict[str, np.ndarray]:
        # Double-checked locking: containers are add-only, so a racy hit
        # returns the same mapping the locked path would.
        cached = self._containers.get(shard)  # repro-lint: disable=RPL002 -- double-checked fast path; re-read under the lock below
        if cached is not None:
            return cached
        with self._lock:
            cached = self._containers.get(shard)
            if cached is None:
                cached = _read_raw_container(self.path_of(shard), "mmap")
                self._containers[shard] = cached
        return cached


def _load_v3(
    path: Path,
    persistence: PersistenceConfig,
    mode: str,
) -> AnyIndex:
    manifest = _read_manifest(path)
    num_shards = int(manifest["num_shards"])
    repetitions = int(manifest["repetitions"])
    num_vectors = int(manifest["num_vectors"])
    fences = np.asarray([int(fence) for fence in manifest["fences"]], dtype=np.uint64)
    shard_files = [str(name) for name in manifest["shard_files"]]
    for name in [str(manifest["store_file"])] + shard_files:
        if not (path / name).is_file():
            raise ValueError(
                f"{path} is missing {name}; the index directory is incomplete"
            )

    store = _read_raw_container(path / str(manifest["store_file"]), mode)
    missing_store = [
        name for name in ("vector_items", "vector_offsets", "removed") if name not in store
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

    config_payload = manifest["config"]
    if config_payload["kind"] == "chosen_path":
        dimension = int(config_payload["dimension"])
    else:
        assert probabilities is not None
        dimension = int(probabilities.size)

    counts_by_rep = [
        [manifest["shards"][shard]["repetitions"][repetition] for shard in range(num_shards)]
        for repetition in range(repetitions)
    ]

    if mode == "mmap":
        vectors: Any = LazyVectorStore(vector_items, store["vector_offsets"])
        cache = _ShardContainerCache(path, shard_files)
        filter_indexes = []
        for repetition in range(repetitions):
            def opener(shard: int, _repetition: int = repetition) -> ShardSlice:
                return _shard_slice_from_container(
                    cache.arrays(shard),
                    cache.path_of(shard),
                    _repetition,
                    counts_by_rep[_repetition][shard],
                )

            filter_indexes.append(
                ShardedInvertedFilterIndex(
                    fences,
                    opener,
                    slot_counts=[
                        int(counts["num_slots"]) for counts in counts_by_rep[repetition]
                    ],
                    posting_counts=[
                        int(counts["num_postings"]) for counts in counts_by_rep[repetition]
                    ],
                )
            )
    else:
        items_list = vector_items.tolist()
        offsets_list = vector_offsets.tolist()
        vectors = [
            frozenset(items_list[start:end])
            for start, end in zip(offsets_list, offsets_list[1:])
        ]

        def read_shard(shard: int) -> dict[str, np.ndarray]:
            return _read_raw_container(path / shard_files[shard], "ram")

        workers = _resolve_io_workers(num_shards)
        if workers > 1 and num_shards > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                containers = list(pool.map(read_shard, range(num_shards)))
        else:
            containers = [read_shard(shard) for shard in range(num_shards)]

        filter_indexes = []
        for repetition in range(repetitions):
            slices = [
                _shard_slice_from_container(
                    containers[shard],
                    path / shard_files[shard],
                    repetition,
                    counts_by_rep[repetition][shard],
                )
                for shard in range(num_shards)
            ]
            # Shards are ascending key ranges, so concatenating their
            # key-sorted slices yields the globally sorted store; the keys
            # are adopted directly (no re-fold, no argsort).
            state, keys = concatenate_shard_slices(slices)
            if persistence.validate_postings:
                ids = state["posting_ids"]
                if ids.size and int(ids.max()) >= num_vectors:
                    raise ValueError(
                        f"{path} repetition {repetition} references vector ids beyond "
                        f"the {num_vectors} stored vectors; the file is corrupted"
                    )
                items = state["path_items"]
                if items.size and int(items.max()) >= dimension:
                    raise ValueError(
                        f"{path} repetition {repetition} references items beyond the "
                        f"universe of size {dimension}; the file is corrupted"
                    )
            try:
                filter_indexes.append(InvertedFilterIndex.from_state(state, keys=keys))
            except ValueError as error:
                raise ValueError(f"{path} repetition {repetition}: {error}") from error

    return _restore_engine(
        index,
        int(manifest["num_vectors_hint"]),
        vectors,
        removed,
        build_stats,
        filter_indexes,
    )


def _load_v1(path: Path) -> AnyIndex:
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != LEGACY_JSON_VERSION:
        raise ValueError(
            f"unsupported index file format version {version!r}; expected "
            f"{FORMAT_VERSION} (or legacy {LEGACY_JSON_VERSION}, convertible with "
            "'repro convert')"
        )
    config_payload = payload["config"]
    probabilities = np.asarray(payload["probabilities"], dtype=np.float64)
    index = _construct_index(config_payload, probabilities)

    engine_payload = payload["engine"]
    vectors = [
        frozenset(int(item) for item in members) for members in engine_payload["vectors"]
    ]
    removed = [int(v) for v in engine_payload["removed"]]
    build_stats = BuildStats.from_dict(engine_payload["build_stats"], strict=True)

    filter_indexes = []
    for repetition_postings in engine_payload["postings"]:
        inverted = InvertedFilterIndex()
        for stored_path, vector_ids in repetition_postings:
            inverted.add_postings(
                tuple(int(item) for item in stored_path), [int(v) for v in vector_ids]
            )
        inverted.compact()
        filter_indexes.append(inverted)

    return _restore_engine(
        index,
        len(vectors),
        vectors,
        removed,
        build_stats,
        filter_indexes,
    )


def load_index(
    path: str | Path,
    config: PersistenceConfig | None = None,
    mode: str = "ram",
) -> AnyIndex:
    """Load an index previously written by :func:`save_index`.

    The returned index answers single and batched queries identically to the
    saved one: the engine (hash functions, thresholds, stopping rule) is
    reconstructed deterministically from the saved configuration and the
    postings arrays are adopted directly — nothing is rebuilt.

    Parameters
    ----------
    path:
        A format v3 index directory, a v2 single-file container, or a
        legacy v1 JSON file; the format is auto-detected.  Anything else
        raises :class:`ValueError` with the offending version.
    config:
        Optional :class:`~repro.core.config.PersistenceConfig` (controls
        load-time validation).
    mode:
        ``"ram"`` (default) materialises every array in memory — shard
        files are read concurrently and the stored keys make the load
        cheaper than a v2 load ever was.  ``"mmap"`` (v3 only) opens the
        arrays as lazy ``np.memmap`` views instead: cold start touches only
        the manifest, resident memory tracks the slots queries actually
        probe, and results stay bit-identical to RAM mode on every query
        surface.  An mmap-loaded index is read-only (removals overlay fine;
        inserts raise).
    """
    path = Path(path)
    persistence = config if config is not None else PersistenceConfig()
    if mode not in ("ram", "mmap"):
        raise ValueError(f"mode must be 'ram' or 'mmap', got {mode!r}")
    if path.is_dir():
        return _load_v3(path, persistence, mode)
    if mode == "mmap":
        raise ValueError(
            f"mode='mmap' requires a format v{FORMAT_VERSION} index directory, but "
            f"{path} is a single file; convert it first with "
            "convert_index_file(source, destination) or 'repro convert'"
        )
    with open(path, "rb") as handle:
        head = handle.read(64)
    if head.startswith(_ZIP_MAGIC):
        return _load_v2(path, persistence)
    if head.lstrip().startswith(b"{"):
        return _load_v1(path)
    raise ValueError(
        f"{path} is not a recognised index file (expected a format "
        f"v{FORMAT_VERSION} directory, a v{V2_FORMAT_VERSION} binary container "
        f"or a legacy v{LEGACY_JSON_VERSION} JSON document)"
    )


def convert_index_file(
    source: str | Path, destination: str | Path, config: PersistenceConfig | None = None
) -> AnyIndex:
    """Convert a saved index (any readable version) to a writable format.

    Loads ``source`` (v1 JSON, v2 container or v3 directory) and rewrites
    it at ``destination`` in the configured format — v3 by default, so this
    is the v1/v2 → v3 upgrade path, and with
    ``PersistenceConfig(format_version=2)`` the v3 → v2 downgrade path for
    deployments that must hand files back to an older release.  Returns the
    loaded index so callers can keep using it.
    """
    index = load_index(source, config=config)
    save_index(index, destination, config=config)
    return index


def index_disk_bytes(path: str | Path) -> int:
    """Total on-disk footprint of a saved index (file, or v3 directory)."""
    path = Path(path)
    if path.is_dir():
        return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())
    return path.stat().st_size


def _container_resident_bytes(path: Path) -> int:
    """Sum of array sizes in a v3 container, from its header only."""
    with open(path, "rb") as handle:
        prefix = handle.read(_V3_PREFIX.size)
        if len(prefix) < _V3_PREFIX.size:
            raise ValueError(
                f"{path} is truncated: too short to hold a v3 container prefix"
            )
        magic, _revision, header_len, _data_start = _V3_PREFIX.unpack(prefix)
        if magic != _V3_MAGIC:
            raise ValueError(f"{path} is not a v3 array container (bad magic)")
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise ValueError(f"{path} is truncated inside its container header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            entries = header["arrays"].values()
        except (ValueError, KeyError, AttributeError) as error:
            raise ValueError(f"{path} has a corrupt container header: {error}") from error
    total = 0
    for entry in entries:
        dtype = np.dtype(entry["dtype"])
        total += dtype.itemsize * int(np.prod(entry["shape"], dtype=np.int64))
    return total


def _npz_array_counts(path: Path) -> dict[str, int]:
    """Element counts of every array in an ``.npz`` container, header-only.

    Reads each zip member's ``.npy`` header (a few dozen bytes, inflated
    incrementally) instead of decompressing the array data, so inspecting a
    large v2 file stays cheap.  Falls back to loading the container when a
    member uses a ``.npy`` format revision the header readers reject.
    """
    counts: dict[str, int] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                name = info.filename
                if not name.endswith(".npy") or name == "meta.npy":
                    continue
                with archive.open(info) as member:
                    version = np.lib.format.read_magic(member)
                    if version == (1, 0):
                        shape, _fortran, _dtype = np.lib.format.read_array_header_1_0(member)
                    else:
                        shape, _fortran, _dtype = np.lib.format.read_array_header_2_0(member)
                counts[name[: -len(".npy")]] = int(np.prod(shape, dtype=np.int64))
    except ValueError:  # pragma: no cover - future .npy header revisions
        with np.load(path, allow_pickle=False) as container:
            counts = {
                name: int(container[name].size)
                for name in container.files
                if name != "meta"
            }
    return counts


def describe_index_file(path: str | Path) -> dict[str, Any]:
    """Metadata of a saved index without fully loading it (CLI ``inspect``).

    Works for all three formats and returns a dict with ``format_version``,
    ``kind``, ``num_vectors``, ``repetitions``, ``build_stats``,
    ``disk_bytes``, ``resident_bytes`` (estimated size of the arrays once
    loaded in RAM mode — for v3 this is also the ceiling an mmap workload
    can page in), and for v3 additionally ``num_shards``, ``fences`` and a
    per-shard ``shards`` table of slot/posting counts.
    """
    path = Path(path)
    disk_bytes = index_disk_bytes(path)
    if path.is_dir():
        manifest = _read_manifest(path)
        resident = sum(
            _container_resident_bytes(path / str(name))
            for name in [manifest["store_file"], *manifest["shard_files"]]
        )
        shards = [
            {
                "slots": sum(int(rep["num_slots"]) for rep in entry["repetitions"]),
                "postings": sum(int(rep["num_postings"]) for rep in entry["repetitions"]),
            }
            for entry in manifest["shards"]
        ]
        return {
            "format_version": FORMAT_VERSION,
            "kind": manifest["config"].get("kind"),
            "num_vectors": int(manifest["num_vectors"]),
            "num_vectors_hint": int(manifest["num_vectors_hint"]),
            "repetitions": int(manifest["repetitions"]),
            "build_stats": dict(manifest["build_stats"]),
            "num_shards": int(manifest["num_shards"]),
            "fences": [int(fence) for fence in manifest["fences"]],
            "shards": shards,
            "disk_bytes": disk_bytes,
            "resident_bytes": resident,
        }
    with open(path, "rb") as handle:
        head = handle.read(64)
    if head.startswith(_ZIP_MAGIC):
        try:
            with np.load(path, allow_pickle=False) as container:
                try:
                    meta = json.loads(bytes(container["meta"]).decode("utf-8"))
                except (KeyError, ValueError) as error:
                    raise ValueError(
                        f"{path} is not a valid index file: missing or corrupt metadata"
                    ) from error
            # Estimate the footprint *after* a RAM load, on the same footing
            # as the v3 figure: the narrowed ids/items widen back to int64,
            # the delta-encoded lengths become int64 offsets, and every slot
            # re-derives its folded key plus a probe-table entry (8+8 bytes)
            # that v3 stores explicitly.  Element counts come from the
            # ``.npy`` member headers — nothing is decompressed beyond a few
            # bytes each.
            resident = 0
            for name, count in _npz_array_counts(path).items():
                resident += (count + 1) * 8 if name.endswith("_lengths") else count * 8
                if name.endswith("path_lengths"):
                    resident += count * 16
        except (zipfile.BadZipFile, zlib.error, EOFError) as error:
            # Same contract as loading: zip-level corruption surfaces as the
            # documented (CLI-catchable) ValueError.
            raise ValueError(f"{path} is not a valid index file: {error}") from error
        return {
            "format_version": V2_FORMAT_VERSION,
            "kind": meta.get("config", {}).get("kind"),
            "num_vectors": int(meta.get("num_vectors", 0)),
            "num_vectors_hint": int(meta.get("num_vectors_hint", 0)),
            "repetitions": int(meta.get("repetitions", 0)),
            "build_stats": dict(meta.get("build_stats", {})),
            "num_shards": None,
            "fences": None,
            "shards": None,
            "disk_bytes": disk_bytes,
            "resident_bytes": resident,
        }
    if head.lstrip().startswith(b"{"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        engine_payload = payload.get("engine", {})
        postings = engine_payload.get("postings", [])
        entries = sum(
            len(vector_ids)
            for repetition in postings
            for _stored_path, vector_ids in repetition
        )
        items = sum(
            len(stored_path)
            for repetition in postings
            for stored_path, _vector_ids in repetition
        )
        vector_items = sum(len(members) for members in engine_payload.get("vectors", []))
        return {
            "format_version": LEGACY_JSON_VERSION,
            "kind": payload.get("config", {}).get("kind"),
            "num_vectors": len(engine_payload.get("vectors", [])),
            "num_vectors_hint": len(engine_payload.get("vectors", [])),
            "repetitions": len(postings),
            "build_stats": dict(engine_payload.get("build_stats", {})),
            "num_shards": None,
            "fences": None,
            "shards": None,
            "disk_bytes": disk_bytes,
            "resident_bytes": 8 * (entries + items + vector_items),
        }
    raise ValueError(f"{path} is not a recognised index file")


# --------------------------------------------------------------------- #
# Legacy writer (benchmarks and migration tests only)
# --------------------------------------------------------------------- #


def _save_legacy_v1(index: SkewAdaptiveIndex | CorrelatedIndex, path: str | Path) -> None:
    """Write the legacy v1 JSON format (kept for benchmarks and tests).

    v1 never supported the Chosen Path baseline and stored only four
    ``BuildStats`` fields; this writer reproduces that historical layout so
    the migration path (:func:`convert_index_file`, the serialization
    benchmark) can be exercised against real v1 files.
    """
    if not isinstance(index, (SkewAdaptiveIndex, CorrelatedIndex)):
        raise TypeError(f"format v1 cannot store an index of type {type(index).__name__}")
    engine = _require_engine(index)
    postings_per_repetition = []
    for inverted in engine.filter_indexes:
        state = inverted.to_state()
        offsets = state["path_offsets"].tolist()
        items = state["path_items"].tolist()
        posting_offsets = state["posting_offsets"].tolist()
        posting_ids = state["posting_ids"].tolist()
        postings_per_repetition.append(
            [
                [items[p_start:p_end], posting_ids[v_start:v_end]]
                for p_start, p_end, v_start, v_end in zip(
                    offsets, offsets[1:], posting_offsets, posting_offsets[1:]
                )
            ]
        )
    stats = engine.build_stats
    payload = {
        "format_version": LEGACY_JSON_VERSION,
        "config": _config_payload(index),
        "probabilities": index.distribution.probabilities.tolist(),
        "engine": {
            "vectors": [sorted(vector) for vector in engine.vectors],
            "removed": sorted(engine.removed_ids),
            "postings": postings_per_repetition,
            "build_stats": {
                "num_vectors": stats.num_vectors,
                "total_filters": stats.total_filters,
                "truncated_vectors": stats.truncated_vectors,
                "repetitions": stats.repetitions,
            },
        },
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
