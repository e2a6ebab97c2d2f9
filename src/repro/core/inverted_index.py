"""Inverted index from filters (paths) to the vectors that chose them.

The preprocessing step of the paper stores, for each filter ``f`` chosen by
some dataset vector, the list of vector ids that chose ``f`` ("a standard
dictionary data structure", Section 3).  Queries then look up each of their
own filters and examine the stored vectors.

The store is array-backed rather than a dict-of-lists: each distinct filter
occupies one *slot*, and the compacted state lives in five flat numpy arrays

* ``path_items`` / ``path_offsets`` — the filters themselves in CSR form,
* ``path_keys`` — the 64-bit folded key (:func:`~repro.hashing.pairwise.
  fold_path`) of each filter, and
* ``posting_ids`` / ``posting_offsets`` — the posting lists in CSR form,

which is also, verbatim, the on-disk representation used by
:mod:`repro.core.serialization` (one file holds the arrays, nothing else).

Ingestion is append-only and array-native: :meth:`InvertedFilterIndex.
add_csr` appends one chunk of ``(vector id, key, path)`` postings — already
flat arrays, exactly what the batched path generator emits — to a pending
overlay without resolving slots (:meth:`InvertedFilterIndex.add` is the
tuple entry point for a single vector), and :meth:`InvertedFilterIndex.
compact` concatenates the chunks and folds them into the CSR arrays with one
stable sort over the folded keys plus ``np.unique`` style group detection —
no per-posting dict lookups.

Every store keeps its slots in ascending folded-key order: compaction
produces that order, and :meth:`InvertedFilterIndex.from_state` permutes
slots loaded in any other order (v1/v2 files) into it once.  The key array
therefore *is* the probe table, for this store and for every format v3
shard slice alike, so one resolver answers them all: :func:`probe_table`
binary-searches a :class:`ShardSlice` and gathers the probes' postings;
:func:`probe_by_label` resolves probes group by group against several
tables and :func:`scatter_parts` merges the groups back into probe order.
The memory-mapped store and the shard worker use the same three functions,
and every store answers one read call, ``probe_batch_routed``.  Because a
64-bit key could in principle collide, stored paths are compared exactly
(vectorised during compaction and probing) before a slot is accepted, so
lookups remain collision-free like the original dict-of-tuples; genuinely
colliding keys are detected during compaction and handled by an exact
chained fallback.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.dtypes import ID_DTYPE, ITEM_DTYPE, KEY_DTYPE, OFFSET_DTYPE
from repro.core.kernels import get_impl, new_counters
from repro.core.paths import _segment_gather, paths_to_csr
from repro.hashing.pairwise import fold_path, fold_paths_csr

Path = tuple[int, ...]

#: Array names of the compacted store, in serialisation order.  The folded
#: path keys are deliberately absent: they are high-entropy (incompressible)
#: and deterministically recomputable, so the on-disk format re-derives them
#: on load instead of storing 8 random-looking bytes per filter.
STATE_ARRAY_NAMES = (
    "path_items",
    "path_offsets",
    "posting_ids",
    "posting_offsets",
)


def _segments_differ(
    left_items: np.ndarray,
    left_starts: np.ndarray,
    right_items: np.ndarray,
    right_starts: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Per pair ``k``, whether two equally long item segments differ.

    Compares ``left_items[left_starts[k] : left_starts[k] + lengths[k]]``
    with the same-length segment of ``right_items`` — the exact path check
    behind every folded-key match (compaction, probing, probe dedupe).
    """
    differ = np.zeros(lengths.size, dtype=bool)
    check = (lengths > 0).nonzero()[0]
    if check.size:
        check_lengths = lengths[check]
        mismatched = _segment_gather(
            left_items, left_starts[check], check_lengths
        ) != _segment_gather(right_items, right_starts[check], check_lengths)
        if mismatched.any():
            differ[check] = (
                np.add.reduceat(mismatched, check_lengths.cumsum() - check_lengths) > 0
            )
    return differ


def _permute_slots(
    flat: np.ndarray, offsets: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A CSR array's rows reordered: output row ``k`` is input row ``order[k]``."""
    lengths = np.diff(offsets)[order]
    new_offsets = np.zeros(order.size + 1, dtype=OFFSET_DTYPE)
    np.cumsum(lengths, out=new_offsets[1:])
    return _segment_gather(flat, offsets[order], lengths), new_offsets


class ShardSlice:
    """One key-sorted postings table: a format v3 shard slice or a RAM store.

    Slot ``k`` stores the path ``path_items[path_offsets[k]:path_offsets[k +
    1]]`` with folded key ``keys[k]`` and the posting list
    ``posting_ids[posting_offsets[k]:posting_offsets[k + 1]]``; ``keys`` is
    ascending, and ``has_duplicate_keys`` says whether two slots share a key
    (a forced collision), which the resolver must then walk.

    The arrays are held as base-class ``ndarray`` views: ``np.asarray`` of
    an ``np.memmap`` shares its pages and its laziness without a copy, and
    sheds the subclass whose Python-level ``__array_finalize__`` /
    ``__getitem__`` would otherwise run on every intermediate array of
    every probe.
    """

    __slots__ = (
        "keys",
        "path_items",
        "path_offsets",
        "posting_ids",
        "posting_offsets",
        "has_duplicate_keys",
    )

    def __init__(
        self,
        keys: np.ndarray,
        path_items: np.ndarray,
        path_offsets: np.ndarray,
        posting_ids: np.ndarray,
        posting_offsets: np.ndarray,
        has_duplicate_keys: bool,
    ) -> None:
        self.keys = np.asarray(keys)
        self.path_items = np.asarray(path_items)
        self.path_offsets = np.asarray(path_offsets)
        self.posting_ids = np.asarray(posting_ids)
        self.posting_offsets = np.asarray(posting_offsets)
        self.has_duplicate_keys = bool(has_duplicate_keys)

    @property
    def num_slots(self) -> int:
        return self.keys.size

    @property
    def num_postings(self) -> int:
        return int(self.posting_offsets[-1]) if self.posting_offsets.size else 0


#: One resolved probe group: ``(members, lengths, ids)`` — the probe
#: positions, their posting counts, and their concatenated posting ids.
ProbePart = tuple[np.ndarray, np.ndarray, np.ndarray]


def _resolve_slots(
    table: ShardSlice,
    keys: np.ndarray,
    probe_items: np.ndarray,
    probe_starts: np.ndarray,
    probe_lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The slot of each probe in a key-sorted table; ``(slots, stored)``.

    Probe ``k`` is the path ``probe_items[probe_starts[k]:][:probe_lengths[k]]``
    with folded key ``keys[k]``.  ``stored[k]`` is whether that exact path
    has a slot (then ``slots[k]``); stored paths are compared item by item
    (vectorised), so a 64-bit key collision never surfaces a foreign slot,
    and a table with duplicated keys (forced collisions) falls back to an
    exact forward scan over the equal-key run.  Slot indices are positions
    in the key array directly, so nothing proportional to the table is
    materialised — safe over ``np.memmap`` views.
    """
    store_keys = table.keys
    if store_keys.size == 0:
        return np.zeros(keys.size, dtype=np.int64), np.zeros(keys.size, dtype=bool)
    positions = store_keys.searchsorted(keys)
    clipped = np.minimum(positions, store_keys.size - 1)
    found = store_keys[clipped] == keys
    slots = np.where(found, clipped, 0)

    path_items = table.path_items
    path_offsets = table.path_offsets
    slot_lengths = path_offsets[slots + 1] - path_offsets[slots]
    stored = found & (slot_lengths == probe_lengths)
    check = stored.nonzero()[0]
    stored[check] = ~_segments_differ(
        path_items,
        path_offsets[slots[check]],
        probe_items,
        probe_starts[check],
        probe_lengths[check],
    )

    if table.has_duplicate_keys:
        for probe in np.flatnonzero(found & ~stored).tolist():
            key = keys[probe]
            start = int(probe_starts[probe])
            length = int(probe_lengths[probe])
            target = probe_items[start : start + length]
            position = int(positions[probe])
            while position < store_keys.size and store_keys[position] == key:
                slot_start = int(path_offsets[position])
                slot_end = int(path_offsets[position + 1])
                if slot_end - slot_start == length and np.array_equal(
                    path_items[slot_start:slot_end], target
                ):
                    slots[probe] = position
                    stored[probe] = True
                    break
                position += 1
    return slots, stored


def probe_table(
    table: ShardSlice,
    keys: np.ndarray,
    probe_items: np.ndarray,
    probe_starts: np.ndarray,
    probe_lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve probes against one key-sorted table; ``(lengths, ids)``.

    ``lengths[k]`` is probe ``k``'s posting count (0 when its path is not
    stored) and ``ids`` the concatenated posting lists in probe order, as
    ``int64`` whatever width the table stores.
    """
    if table.keys.size == 0:
        return np.zeros(keys.size, dtype=np.int64), np.empty(0, dtype=ID_DTYPE)
    slots, stored = _resolve_slots(table, keys, probe_items, probe_starts, probe_lengths)
    posting_offsets = table.posting_offsets
    lengths = np.where(stored, posting_offsets[slots + 1] - posting_offsets[slots], 0)
    ids = _segment_gather(table.posting_ids, posting_offsets[slots], lengths)
    return lengths, ids.astype(ID_DTYPE, copy=False)


def probe_by_label(
    labels: np.ndarray,
    table_of: Callable[[int], ShardSlice],
    keys: np.ndarray,
    probe_items: np.ndarray,
    probe_offsets: np.ndarray,
) -> list[ProbePart]:
    """Resolve CSR probes group by group; one :data:`ProbePart` per label.

    Probes sharing ``labels[k]`` resolve together against the table
    ``table_of(label)``, which is called once per distinct label, in
    ascending label order, right before that group resolves — so a
    callback that raises stops the work between groups.  Each part's
    ``members`` are ascending probe positions; :func:`scatter_parts` merges
    the parts back into probe order.
    """
    if labels.size == 0:
        return []
    probe_starts = probe_offsets[:-1]
    probe_lengths = np.diff(probe_offsets)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    edges = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), labels.size]
    parts = []
    for first, last in zip(edges, edges[1:]):
        members = order[first:last]
        lengths, ids = probe_table(
            table_of(int(ordered[first])),
            keys[members],
            probe_items,
            probe_starts[members],
            probe_lengths[members],
        )
        parts.append((members, lengths, ids))
    return parts


def scatter_parts(num_probes: int, parts: Sequence[ProbePart]) -> tuple[np.ndarray, np.ndarray]:
    """Merge resolved probe groups back into probe order; ``(ids, offsets)``.

    Probes in no part answer zero postings; probe ``k``'s postings end up
    at ``ids[offsets[k]:offsets[k + 1]]``.
    """
    per_probe = np.zeros(num_probes, dtype=OFFSET_DTYPE)
    for members, lengths, _ids in parts:
        per_probe[members] = lengths
    offsets = np.zeros(num_probes + 1, dtype=OFFSET_DTYPE)
    np.cumsum(per_probe, out=offsets[1:])
    ids = np.empty(int(offsets[-1]), dtype=ID_DTYPE)
    for members, lengths, part_ids in parts:
        if part_ids.size:
            destination = np.arange(part_ids.size, dtype=np.int64) + np.repeat(
                offsets[members] - (np.cumsum(lengths) - lengths), lengths
            )
            ids[destination] = part_ids
    return ids, offsets


class InvertedFilterIndex:
    """Maps each filter to the sorted list of vector ids that chose it."""

    def __init__(self) -> None:
        # Compacted (frozen) slots: CSR arrays over paths and postings, in
        # ascending folded-key order (the store's invariant), so the key
        # array doubles as the probe table.  ``_has_duplicate_keys`` records
        # whether any two slots share a 64-bit key (forced collisions),
        # which makes the resolver walk equal-key runs.
        self._path_items = np.empty(0, dtype=np.int64)
        self._path_offsets = np.zeros(1, dtype=np.int64)
        self._path_keys = np.empty(0, dtype=np.uint64)
        self._posting_ids = np.empty(0, dtype=np.int64)
        self._posting_offsets = np.zeros(1, dtype=np.int64)
        self._has_duplicate_keys = False
        # Append-only overlay: array chunks ``(vector ids, keys, path items,
        # path offsets)``, one row per posting added since the last
        # compact().  No slot resolution happens here.
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._total_entries = 0
        #: Kernel work counters accumulated by compaction (chain probes when
        #: forced collisions are resolved); callers fold them into BuildStats.
        self.kernel_counters = new_counters()

    # ------------------------------------------------------------------ #
    # Construction (append-only)
    # ------------------------------------------------------------------ #

    def add_csr(
        self,
        vector_ids: np.ndarray,
        keys: np.ndarray,
        path_items: np.ndarray,
        path_offsets: np.ndarray,
    ) -> int:
        """Register a chunk of postings given as flat arrays.  Returns its size.

        Posting ``k`` files vector ``vector_ids[k]`` under the filter
        ``path_items[path_offsets[k]:path_offsets[k + 1]]`` whose folded key
        is ``keys[k]`` — the layout the batched path generator produces, so
        a build ingests a whole generation chunk in one call.  The chunk
        joins the pending overlay as-is and is merged into the CSR arrays by
        the next :meth:`compact` (which every read path triggers
        automatically).
        """
        vector_ids = np.ascontiguousarray(vector_ids, dtype=ID_DTYPE)
        keys = np.ascontiguousarray(keys, dtype=KEY_DTYPE)
        path_items = np.ascontiguousarray(path_items, dtype=ITEM_DTYPE)
        path_offsets = np.ascontiguousarray(path_offsets, dtype=OFFSET_DTYPE)
        if keys.size != vector_ids.size or path_offsets.size != vector_ids.size + 1:
            raise ValueError(
                f"got {keys.size} keys and {path_offsets.size - 1} paths for "
                f"{vector_ids.size} postings; need one of each per posting"
            )
        if (
            int(path_offsets[0]) != 0
            or int(path_offsets[-1]) != path_items.size
            or np.any(np.diff(path_offsets) < 0)
        ):
            raise ValueError("path_offsets do not describe the path_items array")
        if vector_ids.size and int(vector_ids.min()) < 0:
            raise ValueError("vector ids must be non-negative")
        return self._append_chunk(vector_ids, keys, path_items, path_offsets)

    def _append_chunk(
        self,
        vector_ids: np.ndarray,
        keys: np.ndarray,
        path_items: np.ndarray,
        path_offsets: np.ndarray,
    ) -> int:
        """Queue one well-formed posting chunk on the pending overlay."""
        if vector_ids.size:
            self._pending.append((vector_ids, keys, path_items, path_offsets))
            self._total_entries += int(vector_ids.size)
        return int(vector_ids.size)

    def add(
        self,
        vector_id: int,
        paths: Iterable[Path],
        keys: Sequence[int] | None = None,
    ) -> int:
        """Register all filters of one vector.  Returns the number added.

        The tuple entry point (single inserts, tests): the paths are
        flattened into one array chunk like :meth:`add_csr` takes.
        ``keys``, when given, must hold the folded key of each path (as
        produced by the path generators); this skips the per-path re-fold.
        """
        if vector_id < 0:
            raise ValueError(f"vector_id must be non-negative, got {vector_id}")
        paths = [tuple(path) for path in paths]
        if keys is None:
            keys = [fold_path(path) for path in paths]
        elif len(paths) != len(keys):
            raise ValueError(
                f"got {len(keys)} keys for {len(paths)} paths; need one per path"
            )
        path_items, path_offsets = paths_to_csr(paths)
        return self._append_chunk(
            np.full(len(paths), vector_id, dtype=ID_DTYPE),
            np.asarray(keys, dtype=KEY_DTYPE),
            path_items,
            path_offsets,
        )

    # ------------------------------------------------------------------ #
    # Compaction (vectorised bulk ingestion)
    # ------------------------------------------------------------------ #

    def compact(self) -> None:
        """Merge the pending postings into the flat CSR arrays.

        The whole pending stream — prefixed by the expanded frozen postings
        when re-compacting after inserts — is stable-sorted by folded key,
        group boundaries become slots, and the posting lists fall out in
        original stream order (frozen entries first, then the overlay's
        appends, in insertion order), so queries behave identically before
        and after compaction.  Path identity within each key group is
        verified with a vectorised item comparison; if two *distinct* paths
        genuinely share a 64-bit key, compaction falls back to an exact
        chained merge.  Idempotent and cheap when nothing is pending.
        """
        if not self._pending:
            return

        pending_ids = np.concatenate([chunk[0] for chunk in self._pending])
        pending_keys = np.concatenate([chunk[1] for chunk in self._pending])
        pending_items = np.concatenate([chunk[2] for chunk in self._pending])
        num_pending = pending_keys.size
        pending_offsets = np.zeros(num_pending + 1, dtype=OFFSET_DTYPE)
        np.cumsum(
            np.concatenate([np.diff(chunk[3]) for chunk in self._pending]),
            out=pending_offsets[1:],
        )
        frozen_slots = self._path_keys.size
        frozen_counts = np.diff(self._posting_offsets)

        # The full posting stream plus, per entry, a reference into a
        # combined path table (frozen slot paths first, then the pending
        # entries' own paths).
        if frozen_slots:
            stream_keys = np.concatenate(
                [np.repeat(self._path_keys, frozen_counts), pending_keys]
            )
            stream_ids = np.concatenate([self._posting_ids, pending_ids])
            stream_refs = np.concatenate(
                [
                    np.repeat(np.arange(frozen_slots, dtype=np.int64), frozen_counts),
                    frozen_slots + np.arange(num_pending, dtype=np.int64),
                ]
            )
            table_offsets = np.concatenate(
                [self._path_offsets, self._path_offsets[-1] + pending_offsets[1:]]
            )
            table_items = np.concatenate([self._path_items, pending_items])
        else:
            stream_keys = pending_keys
            stream_ids = pending_ids
            stream_refs = np.arange(num_pending, dtype=np.int64)
            table_offsets = pending_offsets
            table_items = pending_items
        table_lengths = np.diff(table_offsets)

        order = np.argsort(stream_keys, kind="stable")
        keys_sorted = stream_keys[order]
        ids_sorted = stream_ids[order]
        refs_sorted = stream_refs[order]

        group_start = np.empty(keys_sorted.size, dtype=bool)
        group_start[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=group_start[1:])
        group_ids = np.cumsum(group_start) - 1

        dirty_groups = self._inconsistent_groups(
            group_start, group_ids, refs_sorted, table_items, table_offsets, table_lengths
        )
        if dirty_groups.size:
            # Genuine 64-bit key collisions between distinct paths
            # (astronomically rare in real data; exercised by tests that
            # force equal keys): resolve only the colliding groups through
            # the chain kernel, keeping everything else vectorised.
            self._compact_with_chains(
                keys_sorted,
                ids_sorted,
                refs_sorted,
                group_ids,
                dirty_groups,
                table_items,
                table_offsets,
                table_lengths,
            )
            return

        starts = np.flatnonzero(group_start)
        counts = np.diff(np.concatenate([starts, [keys_sorted.size]]))
        canonical = refs_sorted[starts]
        path_lengths = table_lengths[canonical]

        self._path_keys = keys_sorted[starts]
        self._path_items = _segment_gather(
            table_items, table_offsets[canonical], path_lengths
        )
        self._path_offsets = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(path_lengths, out=self._path_offsets[1:])
        self._posting_ids = ids_sorted
        self._posting_offsets = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._posting_offsets[1:])
        self._has_duplicate_keys = False
        self._pending = []

    @staticmethod
    def _inconsistent_groups(
        group_start: np.ndarray,
        group_ids: np.ndarray,
        refs_sorted: np.ndarray,
        table_items: np.ndarray,
        table_offsets: np.ndarray,
        table_lengths: np.ndarray,
    ) -> np.ndarray:
        """Key groups referencing more than one distinct path (sorted ids).

        Checks each adjacent same-key pair of stream entries: identical path
        references are trivially equal; the rest are compared by length and
        then item-by-item, all vectorised.  Any group holding two distinct
        paths has an adjacent pair where the content changes, so pairwise
        checks find every colliding group.
        """
        empty = np.empty(0, dtype=np.int64)
        adjacent = np.flatnonzero(~group_start[1:])
        left = refs_sorted[adjacent]
        right = refs_sorted[adjacent + 1]
        differing = left != right
        if not np.any(differing):
            return empty
        adjacent = adjacent[differing]
        left = left[differing]
        right = right[differing]
        lengths = table_lengths[left]
        dirty = lengths != table_lengths[right]
        check = np.flatnonzero(~dirty)
        dirty[check] = _segments_differ(
            table_items,
            table_offsets[left[check]],
            table_items,
            table_offsets[right[check]],
            lengths[check],
        )
        if not np.any(dirty):
            return empty
        return np.unique(group_ids[adjacent[dirty] + 1])

    def _compact_with_chains(
        self,
        keys_sorted: np.ndarray,
        ids_sorted: np.ndarray,
        refs_sorted: np.ndarray,
        group_ids: np.ndarray,
        dirty_groups: np.ndarray,
        table_items: np.ndarray,
        table_offsets: np.ndarray,
        table_lengths: np.ndarray,
    ) -> None:
        """Compact a stream whose ``dirty_groups`` hold forced key collisions.

        Clean groups keep one slot each; the entries of colliding groups go
        through the ``chain_resolve`` kernel, which assigns sub-slots in
        first-appearance (stream) order — the same order the probe chain
        walks — and counts one ``chain_probes`` unit per representative
        comparison.  Slots come out ordered by key with equal-key runs in
        stream order — the order the resolver walks a run in — and posting
        lists stay in original stream order exactly as the clean path
        produces them.
        """
        num_groups = int(group_ids[-1]) + 1
        dirty_mask = np.zeros(num_groups, dtype=bool)
        dirty_mask[dirty_groups] = True
        entry_sel = np.flatnonzero(dirty_mask[group_ids])
        sel_refs = refs_sorted[entry_sel]
        sel_lengths = table_lengths[sel_refs]
        entry_offsets = np.zeros(entry_sel.size + 1, dtype=np.int64)
        np.cumsum(sel_lengths, out=entry_offsets[1:])
        entry_items = _segment_gather(table_items, table_offsets[sel_refs], sel_lengths)
        sel_groups = group_ids[entry_sel]
        group_bounds = np.empty(sel_groups.size, dtype=bool)
        group_bounds[0] = True
        np.not_equal(sel_groups[1:], sel_groups[:-1], out=group_bounds[1:])
        group_offsets = np.concatenate(
            [np.flatnonzero(group_bounds), [sel_groups.size]]
        ).astype(np.int64)

        sub_slots, group_counts = get_impl().chain_resolve(
            group_offsets, entry_items, entry_offsets, self.kernel_counters
        )

        counts_per_group = np.ones(num_groups, dtype=np.int64)
        counts_per_group[dirty_groups] = group_counts
        slot_base = np.cumsum(counts_per_group) - counts_per_group
        entry_slot = slot_base[group_ids]
        entry_slot[entry_sel] += sub_slots
        num_slots = int(counts_per_group.sum())

        # The stream is already grouped by key — and therefore by slot base —
        # so only the dirty groups' entries can be out of slot order.  Permute
        # those entries alone (argsort over the dirty selection, stable to
        # keep posting lists in stream order) instead of re-sorting the whole
        # stream: the collision path then costs the clean path plus work
        # proportional to the colliding entries.
        by_slot = np.arange(entry_slot.size, dtype=np.int64)
        by_slot[entry_sel] = entry_sel[np.argsort(entry_slot[entry_sel], kind="stable")]
        slots_sorted = entry_slot[by_slot]
        first_mask = np.empty(slots_sorted.size, dtype=bool)
        first_mask[0] = True
        np.not_equal(slots_sorted[1:], slots_sorted[:-1], out=first_mask[1:])
        canonical = refs_sorted[by_slot][first_mask]
        path_lengths = table_lengths[canonical]

        self._path_keys = keys_sorted[by_slot][first_mask]
        self._path_items = _segment_gather(
            table_items, table_offsets[canonical], path_lengths
        )
        self._path_offsets = np.zeros(num_slots + 1, dtype=np.int64)
        np.cumsum(path_lengths, out=self._path_offsets[1:])
        self._posting_ids = ids_sorted[by_slot]
        posting_counts = np.bincount(entry_slot, minlength=num_slots)
        self._posting_offsets = np.zeros(num_slots + 1, dtype=np.int64)
        np.cumsum(posting_counts, out=self._posting_offsets[1:])
        self._has_duplicate_keys = True
        self._pending = []

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict[str, np.ndarray]:
        """The compacted store as flat arrays (the on-disk representation).

        Compacts first; the returned arrays are the live internal ones, so
        treat them as read-only.
        """
        self.compact()
        return {
            "path_items": self._path_items,
            "path_offsets": self._path_offsets,
            "posting_ids": self._posting_ids,
            "posting_offsets": self._posting_offsets,
        }

    def to_sorted_state(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """:meth:`to_state` plus the slot-aligned folded keys.

        Slots are always in ascending key order, the order format v3
        requires on disk (shard slices must be key-sorted so the mapped key
        arrays double as probe tables).
        """
        return self.to_state(), self._path_keys

    @classmethod
    def from_state(
        cls, state: Mapping[str, np.ndarray], keys: np.ndarray | None = None
    ) -> "InvertedFilterIndex":
        """Rebuild an index from :meth:`to_state` arrays, validating them.

        Without ``keys`` (formats v1/v2), the folded path keys are
        re-derived from the stored paths with the vectorised
        :func:`~repro.hashing.pairwise.fold_paths_csr` (one array pass per
        recursion level) and, when the file holds its slots in another
        order (v2 writes them in path order), the slots are stably permuted
        into key order once — equal-key slots keep their file order, which
        is the order the resolver walks an equal-key run in.  With ``keys``
        (format v3 stores them, already slot-aligned and ascending), the
        re-fold and the permutation are both skipped, which is what makes
        the v3 RAM load fast.  Raises :class:`ValueError` on missing arrays,
        malformed offsets, mismatched array lengths, negative vector ids, or
        unsorted adopted keys.
        """
        missing = [name for name in STATE_ARRAY_NAMES if name not in state]
        if missing:
            raise ValueError(f"postings state is missing arrays: {missing}")
        path_items = np.ascontiguousarray(state["path_items"], dtype=np.int64)
        path_offsets = np.ascontiguousarray(state["path_offsets"], dtype=np.int64)
        posting_ids = np.ascontiguousarray(state["posting_ids"], dtype=np.int64)
        posting_offsets = np.ascontiguousarray(state["posting_offsets"], dtype=np.int64)

        for name, offsets, flat in (
            ("path", path_offsets, path_items),
            ("posting", posting_offsets, posting_ids),
        ):
            if offsets.ndim != 1 or offsets.size == 0 or int(offsets[0]) != 0:
                raise ValueError(f"malformed {name}_offsets in postings state")
            if np.any(np.diff(offsets) < 0) or int(offsets[-1]) != flat.size:
                raise ValueError(f"{name}_offsets do not describe the {name} array")
        num_slots = path_offsets.size - 1
        if posting_offsets.size - 1 != num_slots:
            raise ValueError("postings state arrays disagree on the number of filters")
        if posting_ids.size and int(posting_ids.min()) < 0:
            raise ValueError("vector ids must be non-negative")
        if path_items.size and int(path_items.min()) < 0:
            raise ValueError("path items must be non-negative")

        if keys is None:
            keys = fold_paths_csr(path_items, path_offsets)
            if np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                path_items, path_offsets = _permute_slots(path_items, path_offsets, order)
                posting_ids, posting_offsets = _permute_slots(
                    posting_ids, posting_offsets, order
                )
        else:
            keys = np.ascontiguousarray(keys, dtype=np.uint64)
            if keys.size != num_slots:
                raise ValueError(
                    f"postings state stores {num_slots} filters but {keys.size} keys"
                )
            if np.any(keys[1:] < keys[:-1]):
                raise ValueError("adopted path keys must be in ascending order")

        index = cls()
        index._path_items = path_items
        index._path_offsets = path_offsets
        index._path_keys = keys
        index._posting_ids = posting_ids
        index._posting_offsets = posting_offsets
        index._has_duplicate_keys = bool(np.any(keys[1:] == keys[:-1]))
        index._total_entries = int(posting_ids.size)
        return index

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #

    def _table(self) -> ShardSlice:
        """The compacted store as one resolver table.  Compacts."""
        self.compact()
        return ShardSlice(
            self._path_keys,
            self._path_items,
            self._path_offsets,
            self._posting_ids,
            self._posting_offsets,
            self._has_duplicate_keys,
        )

    def probe_batch_routed(
        self,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        keys: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many probes at once; CSR slices of their posting lists.

        Parameters
        ----------
        probe_items, probe_offsets:
            The probed filters in CSR form — probe ``k`` is the item
            sequence ``probe_items[probe_offsets[k]:probe_offsets[k + 1]]``
            (used only to verify stored paths exactly, so a 64-bit key
            collision cannot surface foreign postings).
        keys:
            The folded key of each probe, as returned by the generators.

        Returns
        -------
        (posting_ids, offsets, route):
            ``posting_ids`` is the concatenation of every probe's posting
            list (a gather from the store, in probe order) and ``offsets``
            has length ``num_probes + 1`` with probe ``k`` occupying
            ``posting_ids[offsets[k]:offsets[k + 1]]``.  Missing filters
            contribute empty segments.  ``route`` holds the shard index each
            probe key routes to — all zeros here, since the in-memory store
            is a single shard — so callers account shard fan-out from the
            probe itself instead of re-routing the same keys.  This is the
            query hot path: one :func:`probe_table` call resolves the whole
            probe set against the sorted key table, and the probes arrive as
            the arrays the generators produced — no per-path Python object.
        """
        lengths, ids = probe_table(
            self._table(),
            np.ascontiguousarray(keys, dtype=KEY_DTYPE),
            probe_items,
            probe_offsets[:-1],
            probe_offsets[1:] - probe_offsets[:-1],
        )
        offsets = np.zeros(lengths.size + 1, dtype=OFFSET_DTYPE)
        lengths.cumsum(out=offsets[1:])
        return ids, offsets, np.zeros(lengths.size, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def num_filters(self) -> int:
        """Number of distinct filters stored."""
        self.compact()
        return self._path_keys.size

    @property
    def total_entries(self) -> int:
        """Total number of (filter, vector) postings — the space usage."""
        return self._total_entries

    def __len__(self) -> int:
        return self.num_filters

    def __repr__(self) -> str:
        return (
            f"InvertedFilterIndex(num_filters={self.num_filters}, "
            f"total_entries={self.total_entries})"
        )
