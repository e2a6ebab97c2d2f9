"""Memory-mapped, sharded views of a saved postings store (format v3).

Format v3 splits every repetition's postings store into ``S`` shards by
folded-key range and lays each shard out as page-aligned raw arrays, so a
saved index can be *opened* instead of *loaded*: the classes here wrap
``np.memmap`` views of those arrays and serve the exact same probe contract
as the in-memory :class:`~repro.core.inverted_index.InvertedFilterIndex`,
paging in only the slots a query actually touches.

Two pieces cooperate:

* :class:`ShardedInvertedFilterIndex` — one per repetition.  Probes are
  routed to their shard with one ``searchsorted`` over the manifest's
  key-range fences, and each touched shard is resolved by the resolver
  every store shares (:func:`~repro.core.inverted_index.probe_by_label`
  over :class:`~repro.core.inverted_index.ShardSlice` views of its mapped
  arrays; the slices are key-sorted by construction, so the probe table is
  the arrays themselves — nothing is rebuilt, nothing is copied at open
  time).
* :class:`LazyVectorStore` — the stored vectors as a read-only sequence
  over the mapped CSR arrays, materialising a ``frozenset`` only when a
  vector is actually asked for (verification normally runs against the
  mapped arrays directly and never asks).

A memory-mapped index is **read-only**: tombstone removals overlay at the
engine level exactly as in RAM mode (they never touch the store), while
mutating the postings (:meth:`ShardedInvertedFilterIndex.add`, engine
inserts) raises a clear error directing the caller at ``mode="ram"``.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.inverted_index import ShardSlice, probe_by_label, scatter_parts

_MMAP_READ_ONLY_ERROR = (
    "a memory-mapped index is read-only: postings cannot be mutated in "
    "mode='mmap'; reload the index with load_index(path, mode='ram') to "
    "insert (removals are fine in either mode — tombstones overlay at the "
    "engine level and never touch the mapped store)"
)


class MmapReadOnlyError(TypeError):
    """Raised when a mutation is attempted on a memory-mapped index."""


def shard_key_ranges(num_shards: int) -> np.ndarray:
    """The inner fences splitting the uint64 key space into equal ranges.

    Returns ``num_shards - 1`` boundaries; shard ``s`` owns keys in
    ``[fences[s - 1], fences[s])`` with the implicit outer bounds ``0`` and
    ``2**64``.  Folded path keys are (salted) hash values, so equal ranges
    give balanced shards without looking at the data — and, crucially, the
    same fences are valid for every repetition even though their key sets
    differ.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return np.asarray(
        [(step * (1 << 64)) // num_shards for step in range(1, num_shards)],
        dtype=np.uint64,
    )


def route_keys(fences: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Shard index of each folded key, given the inner fences."""
    return np.searchsorted(fences, np.ascontiguousarray(keys, dtype=np.uint64), side="right")


def concatenate_shard_slices(
    slices: Sequence[ShardSlice],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Concatenate ascending key-range shard slices into one sorted store.

    Returns the standard state arrays plus the slot-aligned folded keys.
    Each slice's local offsets are rebased onto the running item/posting
    totals; because shards are ascending key ranges and each slice is
    key-sorted, the result is the globally key-sorted store.  Used both by
    the RAM-mode v3 loader and by :meth:`ShardedInvertedFilterIndex.
    to_sorted_state` (re-serialisation / v2 downgrade), so the rebasing
    logic lives exactly once.  Every output array is a fresh RAM array —
    callers may delete the backing files afterwards.
    """
    keys = (
        np.concatenate([part.keys for part in slices])
        if slices
        else np.empty(0, dtype=np.uint64)
    )
    path_items = np.concatenate(
        [np.asarray(part.path_items, dtype=np.int64) for part in slices]
    ) if slices else np.empty(0, dtype=np.int64)
    posting_ids = np.concatenate(
        [np.asarray(part.posting_ids, dtype=np.int64) for part in slices]
    ) if slices else np.empty(0, dtype=np.int64)
    num_slots = sum(part.num_slots for part in slices)
    path_offsets = np.zeros(num_slots + 1, dtype=np.int64)
    posting_offsets = np.zeros(num_slots + 1, dtype=np.int64)
    cursor = item_base = posting_base = 0
    for part in slices:
        span = part.num_slots
        path_offsets[cursor + 1 : cursor + span + 1] = (
            np.asarray(part.path_offsets[1:], dtype=np.int64) + item_base
        )
        posting_offsets[cursor + 1 : cursor + span + 1] = (
            np.asarray(part.posting_offsets[1:], dtype=np.int64) + posting_base
        )
        item_base += int(part.path_offsets[-1]) if part.path_offsets.size else 0
        posting_base += part.num_postings
        cursor += span
    state = {
        "path_items": path_items,
        "path_offsets": path_offsets,
        "posting_ids": posting_ids,
        "posting_offsets": posting_offsets,
    }
    return state, np.ascontiguousarray(keys, dtype=np.uint64)


class ShardedInvertedFilterIndex:
    """One repetition of a v3 index, read-only and routed by shard.

    It answers what the engine calls on an :class:`InvertedFilterIndex`
    once loaded — ``probe_batch_routed``, the statistics and the state
    export — and its ``add`` raises :class:`MmapReadOnlyError`.

    Parameters
    ----------
    fences:
        The ``num_shards - 1`` inner key-range boundaries from the manifest
        (:func:`shard_key_ranges` layout).
    opener:
        Callable mapping a shard index to that shard's :class:`ShardSlice`
        for this repetition.  Called lazily, at most once per shard (the
        slice is cached), so untouched shards never open their arrays.
    slot_counts / posting_counts:
        Per-shard slot and posting counts from the manifest; statistics
        (``num_filters``, ``total_entries``) answer from these without
        paging anything in.
    """

    def __init__(
        self,
        fences: np.ndarray,
        opener: Callable[[int], ShardSlice],
        slot_counts: Sequence[int],
        posting_counts: Sequence[int],
    ) -> None:
        self._fences = np.ascontiguousarray(fences, dtype=np.uint64)
        self._num_shards = self._fences.size + 1
        if len(slot_counts) != self._num_shards or len(posting_counts) != self._num_shards:
            raise ValueError(
                f"expected {self._num_shards} per-shard counts, got "
                f"{len(slot_counts)} slot and {len(posting_counts)} posting counts"
            )
        self._opener = opener
        self._slot_counts = [int(count) for count in slot_counts]
        self._posting_counts = [int(count) for count in posting_counts]
        self._slices: dict[int, ShardSlice] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def fences(self) -> np.ndarray:
        """The inner key-range boundaries (read-only view)."""
        return self._fences

    @property
    def shards_opened(self) -> int:
        """How many shards have had their arrays opened so far."""
        with self._lock:
            return len(self._slices)

    def _slice(self, shard: int) -> ShardSlice:
        # Double-checked locking: slices are only ever added, never
        # replaced, so a racy hit returns the same immutable ShardSlice
        # the locked path would.
        cached = self._slices.get(shard)  # repro-lint: disable=RPL002 -- double-checked fast path; re-read under the lock below
        if cached is not None:
            return cached
        with self._lock:
            cached = self._slices.get(shard)
            if cached is None:
                cached = self._opener(shard)
                if cached.num_slots != self._slot_counts[shard]:
                    raise ValueError(
                        f"shard {shard} holds {cached.num_slots} slots but the "
                        f"manifest promises {self._slot_counts[shard]}; the index "
                        "directory is corrupted or mixes files from different saves"
                    )
                self._slices[shard] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Probing (the query hot path)
    # ------------------------------------------------------------------ #

    def probe_batch_routed(
        self,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        keys: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many probes at once; CSR slices of their posting lists.

        Same contract as :meth:`InvertedFilterIndex.probe_batch_routed` —
        probes in CSR form, one concatenated ``posting_ids`` array plus
        ``num_probes + 1`` offsets, in probe order, missing filters
        contributing empty segments and results bit-identical to probing
        the unsharded store.  Each probe key is routed to its shard via the
        manifest fences, and the computed ``route`` (shard index per probe)
        is returned so callers can account shard fan-out without re-routing
        the same keys.  Touched shards resolve and gather one after another.
        """
        keys_arr = np.ascontiguousarray(keys, dtype=np.uint64)
        route = route_keys(self._fences, keys_arr).astype(np.int64, copy=False)
        parts = probe_by_label(route, self._slice, keys_arr, probe_items, probe_offsets)
        ids, offsets = scatter_parts(len(probe_offsets) - 1, parts)
        return ids, offsets, route

    # ------------------------------------------------------------------ #
    # Mutation (rejected)
    # ------------------------------------------------------------------ #

    def add(self, *_args: Any, **_kwargs: Any) -> int:
        raise MmapReadOnlyError(_MMAP_READ_ONLY_ERROR)

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
        """Materialise the full store as the standard state arrays.

        Used by the v3 → v2 downgrade path; this reads every shard (it is
        the one operation that genuinely needs the whole store).
        """
        state, _keys = self.to_sorted_state()
        return state

    def to_sorted_state(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """The full store plus its folded keys, slots in ascending key order.

        Shards are key ranges in ascending order and each shard is sorted,
        so concatenation *is* the globally sorted store.  All arrays are
        materialised in RAM — no view into the mapped files survives.
        """
        return concatenate_shard_slices(
            [self._slice(shard) for shard in range(self._num_shards)]
        )

    def __repr__(self) -> str:
        return (
            f"ShardedInvertedFilterIndex(num_shards={self._num_shards}, "
            f"num_filters={self.num_filters}, total_entries={self.total_entries}, "
            f"opened={self.shards_opened})"
        )


class LazyVectorStore(SequenceABC):
    """The stored dataset vectors as a read-only view over mapped CSR arrays.

    Quacks like the list of ``frozenset`` the engine holds in RAM mode, but
    materialises a vector only when indexed — the vectorised verification
    path reads the mapped arrays directly and normally never asks.
    """

    is_lazy = True

    def __init__(self, items: np.ndarray, offsets: np.ndarray) -> None:
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("vector offsets must be a non-empty 1-d array")
        self._items = items
        self._offsets = offsets

    def __len__(self) -> int:
        return self._offsets.size - 1

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"vector id {index} is out of range for {length} vectors")
        start = int(self._offsets[index])
        end = int(self._offsets[index + 1])
        # One bulk conversion: iterating a memmap slice element by element
        # pays a Python-level ``memmap.__getitem__`` per item.
        return frozenset(self._items[start:end].tolist())

    def __iter__(self) -> Iterator[frozenset[int]]:
        for index in range(len(self)):
            yield self[index]

    def append(self, _vector: Iterable[int]) -> None:
        raise MmapReadOnlyError(_MMAP_READ_ONLY_ERROR)

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat_items, start_offsets, sizes)`` for the candidate store.

        ``flat_items`` stays a mapped view; the derived offset/size arrays
        are small (one int64 per vector) and materialised eagerly.
        """
        starts = np.asarray(self._offsets[:-1], dtype=np.int64)
        sizes = np.diff(np.asarray(self._offsets, dtype=np.int64))
        return self._items, starts, sizes
