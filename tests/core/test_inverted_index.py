"""Tests for the filter inverted index (compact array-backed postings)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inverted_index import STATE_ARRAY_NAMES, InvertedFilterIndex
from repro.core.paths import paths_to_csr
from repro.hashing.pairwise import fold_path


class TestAdd:
    def test_add_returns_count(self):
        index = InvertedFilterIndex()
        assert index.add(0, [(1, 2), (3,)]) == 2

    def test_negative_vector_id_rejected(self):
        with pytest.raises(ValueError):
            InvertedFilterIndex().add(-1, [(1,)])

    def test_add_many_uses_positions(self):
        index = InvertedFilterIndex()
        total = index.add_many([[(1,)], [(1,), (2,)]])
        assert total == 3
        assert index.lookup((1,)) == [0, 1]
        assert index.lookup((2,)) == [1]

    def test_duplicate_paths_allowed(self):
        index = InvertedFilterIndex()
        index.add(0, [(1, 2), (1, 2)])
        assert index.lookup((1, 2)) == [0, 0]
        assert index.total_entries == 2


class TestLookup:
    def test_missing_path_empty(self):
        assert InvertedFilterIndex().lookup((9, 9)) == []

    def test_contains(self):
        index = InvertedFilterIndex()
        index.add(3, [(4, 5)])
        assert (4, 5) in index
        assert (5, 4) not in index

    def test_candidates_counts_multiplicity(self):
        """candidates() yields one entry per shared filter, matching the
        paper's work measure sum_x |F(q) ∩ F(x)|."""
        index = InvertedFilterIndex()
        index.add(0, [(1,), (2,)])
        index.add(1, [(1,)])
        candidates = list(index.candidates([(1,), (2,), (3,)]))
        assert sorted(candidates) == [0, 0, 1]

    def test_lists_convert_to_tuples(self):
        index = InvertedFilterIndex()
        index.add(0, [[7, 8]])
        assert index.lookup((7, 8)) == [0]


class TestStatistics:
    def test_counts(self):
        index = InvertedFilterIndex()
        index.add(0, [(1,), (2,)])
        index.add(1, [(1,)])
        assert index.num_filters == 2
        assert index.total_entries == 3
        assert len(index) == 2

    def test_posting_sizes(self):
        index = InvertedFilterIndex()
        index.add(0, [(1,), (2,)])
        index.add(1, [(1,)])
        assert sorted(index.posting_sizes()) == [1, 2]

    def test_heaviest_filters(self):
        index = InvertedFilterIndex()
        index.add(0, [(1,)])
        index.add(1, [(1,), (2,)])
        index.add(2, [(1,)])
        heaviest = index.heaviest_filters(1)
        assert heaviest == [((1,), 3)]

    def test_repr(self):
        index = InvertedFilterIndex()
        index.add(0, [(1,)])
        assert "num_filters=1" in repr(index)


def _assert_same_state(actual: InvertedFilterIndex, expected: InvertedFilterIndex) -> None:
    actual_state, wanted = actual.to_state(), expected.to_state()
    for name in STATE_ARRAY_NAMES:
        assert np.array_equal(actual_state[name], wanted[name]), name


def _populated() -> InvertedFilterIndex:
    index = InvertedFilterIndex()
    index.add(0, [(1,), (2, 3), (4,)])
    index.add(1, [(2, 3), (4,)])
    index.add(2, [(4,), (4,)])
    return index


class TestKeyedAdd:
    def test_add_with_precomputed_keys(self):
        index = InvertedFilterIndex()
        paths = [(1, 2), (3,)]
        index.add(5, paths, keys=[fold_path(path) for path in paths])
        assert index.lookup((1, 2)) == [5]
        assert index.lookup((3,)) == [5]

    def test_key_count_mismatch_rejected(self):
        index = InvertedFilterIndex()
        with pytest.raises(ValueError):
            index.add(0, [(1,), (2,)], keys=[fold_path((1,))])
        # The failed add must not have mutated the index.
        assert index.num_filters == 0
        assert index.total_entries == 0
        assert index.lookup((1,)) == []

    def test_lookup_keyed_matches_lookup(self):
        index = _populated()
        for path in [(1,), (2, 3), (4,), (9, 9)]:
            assert index.lookup_keyed(path, fold_path(path)) == index.lookup(path)

    def test_candidates_with_keys(self):
        index = _populated()
        paths = [(2, 3), (4,)]
        keys = [fold_path(path) for path in paths]
        assert list(index.candidates(paths, keys)) == list(index.candidates(paths))


class TestKeyCollisions:
    """Distinct paths sharing one 64-bit key (forced via ``keys=``) must keep
    separate postings on every path: add, lookup, compact, state rebuild."""

    SAME_KEY = 12345

    def _collided(self) -> InvertedFilterIndex:
        index = InvertedFilterIndex()
        index.add(0, [(1, 2)], keys=[self.SAME_KEY])
        index.add(1, [(3, 4)], keys=[self.SAME_KEY])
        index.add(2, [(1, 2)], keys=[self.SAME_KEY])
        return index

    def test_collided_paths_stay_separate(self):
        index = self._collided()
        assert index.num_filters == 2
        assert index.lookup_keyed((1, 2), self.SAME_KEY) == [0, 2]
        assert index.lookup_keyed((3, 4), self.SAME_KEY) == [1]
        assert index.lookup_keyed((9, 9), self.SAME_KEY) == []

    def test_collided_paths_survive_compaction(self):
        index = self._collided()
        index.compact()
        assert index.lookup_keyed((1, 2), self.SAME_KEY) == [0, 2]
        assert index.lookup_keyed((3, 4), self.SAME_KEY) == [1]
        index.add(7, [(3, 4)], keys=[self.SAME_KEY])
        assert index.lookup_keyed((3, 4), self.SAME_KEY) == [1, 7]

    def test_from_state_rebuilds_collision_chain(self):
        """True fold_path collisions are unobservable in practice, so force
        one through the state arrays: two distinct stored paths whose keys
        collide after reload must both stay reachable."""
        import repro.core.inverted_index as inverted_module

        index = self._collided()
        state = index.to_state()
        original_fold = inverted_module.fold_paths_csr
        try:
            inverted_module.fold_paths_csr = lambda items, offsets: np.full(
                offsets.size - 1, np.uint64(self.SAME_KEY), dtype=np.uint64
            )
            restored = InvertedFilterIndex.from_state(state)
        finally:
            inverted_module.fold_paths_csr = original_fold
        assert restored.lookup_keyed((1, 2), self.SAME_KEY) == [0, 2]
        assert restored.lookup_keyed((3, 4), self.SAME_KEY) == [1]
        assert restored.lookup_keyed((5, 6), self.SAME_KEY) == []
        _assert_same_state(restored, index)


class TestCompaction:
    def test_compact_preserves_lookups(self):
        index = _populated()
        before = {path: index.lookup(path) for path in [(1,), (2, 3), (4,)]}
        index.compact()
        for path, postings in before.items():
            assert index.lookup(path) == postings
        assert index.num_filters == 3
        assert index.total_entries == 7

    def test_compact_is_idempotent(self):
        index = _populated()
        index.compact()
        index.compact()
        assert index.lookup((4,)) == [0, 1, 2, 2]

    def test_adds_after_compact_append_in_order(self):
        index = _populated()
        index.compact()
        index.add(7, [(4,), (8, 8)])
        assert index.lookup((4,)) == [0, 1, 2, 2, 7]
        assert index.lookup((8, 8)) == [7]
        index.compact()
        assert index.lookup((4,)) == [0, 1, 2, 2, 7]
        assert index.lookup((8, 8)) == [7]
        assert index.num_filters == 4

    def test_posting_sizes_consistent_across_compaction(self):
        index = _populated()
        uncompacted = sorted(index.posting_sizes())
        index.compact()
        assert sorted(index.posting_sizes()) == uncompacted
        assert index.heaviest_filters(1) == [((4,), 4)]


class TestProbeBatch:
    def test_matches_scalar_lookups(self):
        index = _populated()
        paths = [(1,), (2, 3), (4,), (9, 9), (2, 3)]
        keys = [fold_path(path) for path in paths]
        ids, offsets = index.probe_batch(paths, keys)
        assert offsets.tolist()[0] == 0
        assert offsets.size == len(paths) + 1
        for position, path in enumerate(paths):
            segment = ids[offsets[position] : offsets[position + 1]].tolist()
            assert segment == index.lookup(path)

    def test_empty_probe_list(self):
        ids, offsets = _populated().probe_batch([], [])
        assert ids.size == 0
        assert offsets.tolist() == [0]

    def test_empty_index(self):
        index = InvertedFilterIndex()
        paths = [(1,), (2,)]
        ids, offsets = index.probe_batch(paths, [fold_path(p) for p in paths])
        assert ids.size == 0
        assert offsets.tolist() == [0, 0, 0]

    def test_auto_compacts_pending_postings(self):
        index = _populated()
        index.compact()
        index.add(9, [(4,), (8, 8)])
        paths = [(4,), (8, 8)]
        ids, offsets = index.probe_batch(paths, [fold_path(p) for p in paths])
        assert ids[offsets[0] : offsets[1]].tolist() == [0, 1, 2, 2, 9]
        assert ids[offsets[1] : offsets[2]].tolist() == [9]

    def test_key_collision_does_not_leak_foreign_postings(self):
        """A probe whose 64-bit key matches a stored slot but whose path
        differs (a forced fold collision) must come back empty."""
        index = InvertedFilterIndex()
        index.add(0, [(1, 2)], keys=[777])
        index.compact()
        ids, offsets = index.probe_batch([(3, 4), (1, 2)], [777, 777])
        assert ids[offsets[0] : offsets[1]].tolist() == []
        assert ids[offsets[1] : offsets[2]].tolist() == [0]

    def test_chained_collision_slots_resolved(self):
        index = InvertedFilterIndex()
        index.add(0, [(1, 2)], keys=[777])
        index.add(1, [(3, 4)], keys=[777])
        index.add(2, [(1, 2)], keys=[777])
        paths = [(1, 2), (3, 4), (5, 6)]
        ids, offsets = index.probe_batch(paths, [777, 777, 777])
        assert ids[offsets[0] : offsets[1]].tolist() == [0, 2]
        assert ids[offsets[1] : offsets[2]].tolist() == [1]
        assert ids[offsets[2] : offsets[3]].tolist() == []


class TestBulkCompaction:
    def test_slots_ordered_by_key_after_bulk_compact(self):
        index = _populated()
        index.compact()
        keys = index._path_keys
        assert np.all(keys[1:] >= keys[:-1])

    def test_incremental_compact_matches_fresh_build(self):
        """compact → add → compact must answer exactly like adding
        everything before a single compact."""
        incremental = _populated()
        incremental.compact()
        incremental.add(7, [(4,), (8, 8), (1,)])
        incremental.compact()
        fresh = _populated()
        fresh.add(7, [(4,), (8, 8), (1,)])
        fresh.compact()
        for path in [(1,), (2, 3), (4,), (8, 8), (9, 9)]:
            assert incremental.lookup(path) == fresh.lookup(path)
        assert incremental.num_filters == fresh.num_filters
        assert incremental.total_entries == fresh.total_entries

    @pytest.mark.parametrize("forced_key", [None, 777])
    def test_array_then_tuple_ingestion_equals_all_tuple(self, forced_key):
        """Bulk ``add_csr`` chunks followed by tuple ``add()`` inserts and a
        re-compaction give exactly the arrays all-tuple ingestion gives —
        with natural keys and with every posting forced onto one key (the
        chained-collision compaction)."""
        bulk = [
            (vector_id, [(vector_id % 3, 5), (7,), (vector_id % 2, 1, 9)])
            for vector_id in range(12)
        ]
        inserts = [(12, [(0, 5), (4, 4)]), (13, [(7,), (1, 1, 9), (6,)])]

        def keys_of(paths):
            return [fold_path(path) if forced_key is None else forced_key for path in paths]

        tuples_only = InvertedFilterIndex()
        for vector_id, paths in bulk:
            tuples_only.add(vector_id, paths, keys=keys_of(paths))
        tuples_only.compact()
        for vector_id, paths in inserts:
            tuples_only.add(vector_id, paths, keys=keys_of(paths))

        mixed = InvertedFilterIndex()
        for chunk in (bulk[:5], bulk[5:]):
            flat = [path for _vector_id, paths in chunk for path in paths]
            assert mixed.add_csr(
                np.repeat([vector_id for vector_id, _ in chunk], [len(p) for _, p in chunk]),
                np.asarray(keys_of(flat), dtype=np.uint64),
                *paths_to_csr(flat),
            ) == len(flat)
        mixed.compact()
        for vector_id, paths in inserts:
            mixed.add(vector_id, paths, keys=keys_of(paths))

        expected_state, expected_keys = tuples_only.to_sorted_state()
        state, keys = mixed.to_sorted_state()
        assert np.array_equal(keys, expected_keys)
        for name in STATE_ARRAY_NAMES:
            assert state[name].dtype == expected_state[name].dtype
            assert np.array_equal(state[name], expected_state[name]), name
        assert mixed.total_entries == tuples_only.total_entries
        assert mixed.kernel_counters.tolist() == tuples_only.kernel_counters.tolist()

    def test_add_csr_rejects_mismatched_arrays(self):
        index = InvertedFilterIndex()
        items, offsets = paths_to_csr([(1, 2), (3,)])
        keys = np.asarray([5, 6], dtype=np.uint64)
        with pytest.raises(ValueError, match="one of each per posting"):
            index.add_csr(np.asarray([0]), keys, items, offsets)
        with pytest.raises(ValueError, match="do not describe"):
            index.add_csr(np.asarray([0, 1]), keys, items[:-1], offsets)
        with pytest.raises(ValueError, match="non-negative"):
            index.add_csr(np.asarray([0, -1]), keys, items, offsets)
        assert index.total_entries == 0

    def test_from_state_accepts_unsorted_slot_order(self):
        """Files written before the CSR-native probe pipeline store slots in
        first-registration order; loading permutes them into key order, so
        they resolve identically."""
        index = _populated()
        state = {name: array.copy() for name, array in index.to_state().items()}
        # Reverse the slot order by hand, keeping rows consistent.
        num_slots = state["path_offsets"].size - 1
        order = list(range(num_slots))[::-1]
        path_rows = [
            state["path_items"][state["path_offsets"][s] : state["path_offsets"][s + 1]]
            for s in order
        ]
        posting_rows = [
            state["posting_ids"][
                state["posting_offsets"][s] : state["posting_offsets"][s + 1]
            ]
            for s in order
        ]
        shuffled = {
            "path_items": np.concatenate(path_rows),
            "path_offsets": np.concatenate(
                [[0], np.cumsum([row.size for row in path_rows])]
            ),
            "posting_ids": np.concatenate(posting_rows),
            "posting_offsets": np.concatenate(
                [[0], np.cumsum([row.size for row in posting_rows])]
            ),
        }
        restored = InvertedFilterIndex.from_state(shuffled)
        for path in [(1,), (2, 3), (4,), (9, 9)]:
            assert restored.lookup(path) == index.lookup(path)
        paths = [(1,), (2, 3), (4,)]
        keys = [fold_path(p) for p in paths]
        ids, offsets = restored.probe_batch(paths, keys)
        expected_ids, expected_offsets = index.probe_batch(paths, keys)
        assert ids.tolist() == expected_ids.tolist()
        assert offsets.tolist() == expected_offsets.tolist()
        _assert_same_state(restored, index)


class TestStateRoundTrip:
    def test_to_state_from_state_round_trip(self):
        index = _populated()
        restored = InvertedFilterIndex.from_state(index.to_state())
        for path in [(1,), (2, 3), (4,), (9,)]:
            assert restored.lookup(path) == index.lookup(path)
        assert restored.num_filters == index.num_filters
        assert restored.total_entries == index.total_entries

    def test_state_array_names(self):
        state = _populated().to_state()
        assert set(state) == set(STATE_ARRAY_NAMES)
        for array in state.values():
            assert isinstance(array, np.ndarray)

    def test_restored_index_accepts_new_postings(self):
        restored = InvertedFilterIndex.from_state(_populated().to_state())
        restored.add(9, [(4,), (5, 6)])
        assert restored.lookup((4,)) == [0, 1, 2, 2, 9]
        assert restored.lookup((5, 6)) == [9]

    def test_missing_array_rejected(self):
        state = dict(_populated().to_state())
        del state["posting_ids"]
        with pytest.raises(ValueError, match="missing"):
            InvertedFilterIndex.from_state(state)

    def test_inconsistent_offsets_rejected(self):
        state = dict(_populated().to_state())
        state["posting_offsets"] = state["posting_offsets"][:-1]
        with pytest.raises(ValueError):
            InvertedFilterIndex.from_state(state)

    def test_negative_ids_rejected(self):
        state = dict(_populated().to_state())
        bad = state["posting_ids"].copy()
        bad[0] = -1
        state["posting_ids"] = bad
        with pytest.raises(ValueError, match="non-negative"):
            InvertedFilterIndex.from_state(state)

    def test_negative_path_items_rejected(self):
        state = dict(_populated().to_state())
        bad = state["path_items"].copy()
        bad[0] = -1
        state["path_items"] = bad
        with pytest.raises(ValueError, match="non-negative"):
            InvertedFilterIndex.from_state(state)

    def test_empty_index_round_trip(self):
        restored = InvertedFilterIndex.from_state(InvertedFilterIndex().to_state())
        assert restored.num_filters == 0
        assert restored.lookup((1,)) == []
