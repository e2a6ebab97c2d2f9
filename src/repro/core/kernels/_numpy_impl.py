"""The kernels, in numpy.

They are built from the exact vectorised primitives the interpreted hot
paths used before the kernel split (:func:`repro.hashing.pairwise.extend_keys`
/ :func:`~repro.hashing.pairwise.hash_keys`, ``np.lexsort`` + keep-mask
dedupe, ``np.unique``), so results are bit-identical to the pre-kernel code.
Counter slots follow :mod:`repro.core.kernels._contract`.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels._contract import (
    CHAIN_PROBES,
    DEDUPE_HITS,
    KEYS_FOLDED,
    MERGE_ROWS,
    PATHS_EXTENDED,
)
from repro.hashing.pairwise import extend_keys, hash_keys


def extend_level(
    cand_prefix_keys: np.ndarray,
    cand_items: np.ndarray,
    cand_probs: np.ndarray,
    cand_parent_logs: np.ndarray,
    cand_item_logs: np.ndarray,
    entry_offsets: np.ndarray,
    entry_vector: np.ndarray,
    entry_repetition: np.ndarray,
    num_vectors: int,
    vec_finished: np.ndarray,
    log_stop: float,
    use_stop: bool,
    max_paths: int,
    a: np.ndarray,
    b: np.ndarray,
    counters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extend one recursion level of a batched path frontier.

    Candidates are the flattened (frontier entry, available item) pairs of
    the whole level, grouped per entry by ``entry_offsets`` (``M + 1``
    monotone offsets for ``M`` entries); ``entry_vector`` maps each entry to
    its vector and must be non-decreasing (entries grouped by vector).  Every
    entry has at least one candidate.

    A "vector" is whatever the caller generates filters for independently: a
    pass fused over several repetitions presents every (repetition, vector)
    pair as a vector of its own.  ``a`` and ``b`` are ``uint64[R]`` tables of
    the level's multiply-add coefficients, one row per repetition of the
    pass, and ``entry_repetition[e]`` is the row entry ``e`` hashes with.

    For each candidate the kernel folds the extended path key, hashes it with
    its entry's coefficients ``(a[r], b[r])`` and compares against the
    sampling probability.  Chosen extensions get ``status`` 2 (finished: the
    stopping rule ``log_product <= log_stop`` fired, only when ``use_stop``)
    or 1 (frontier child); dropped candidates get 0.  ``max_paths >= 0``
    reproduces the serial truncation rule: within a vector, once
    ``vec_finished[v]`` plus the chosen-so-far count reaches ``max_paths``,
    the current candidate is the cutoff — it keeps its status, every later
    candidate of the vector is zeroed, and ``truncated[v]`` is set.

    Returns ``(new_keys, status, new_logs, expansions, truncated)``.
    ``expansions[v]`` counts the entries of ``v`` processed (up to and
    including the cutoff's entry when truncated).  At indices where
    ``status == 0`` the contents of ``new_keys``/``new_logs`` are
    unspecified: ``new_logs`` is filled only at chosen candidates, and the
    truncation scan runs only when the cap can bind.
    """
    num_candidates = int(cand_items.size)
    lengths = entry_offsets[1:] - entry_offsets[:-1]

    new_keys = extend_keys(cand_prefix_keys, cand_items)
    if a.size == 1:
        # One repetition: scalar coefficients broadcast, no per-candidate gather.
        hash_values = hash_keys(new_keys, a[0], b[0])
    else:
        cand_repetition = entry_repetition.repeat(lengths)
        hash_values = hash_keys(new_keys, a[cand_repetition], b[cand_repetition])
    chosen = hash_values < cand_probs
    chosen_idx = chosen.nonzero()[0]

    # Logs and the stop rule are evaluated at chosen candidates only: the
    # contract leaves ``new_logs`` unspecified where ``status == 0``.
    new_logs = np.zeros(num_candidates, dtype=np.float64)
    chosen_logs = cand_parent_logs[chosen_idx] + cand_item_logs[chosen_idx]
    new_logs[chosen_idx] = chosen_logs
    status = chosen.astype(np.int8)
    if use_stop:
        status[chosen_idx[chosen_logs <= log_stop]] = 2

    expansions = np.bincount(entry_vector, minlength=num_vectors).astype(np.int64, copy=False)
    truncated = np.zeros(num_vectors, dtype=np.bool_)

    # A vector's run is at most its finished count plus every chosen
    # candidate of the level, so below that bound the cap cannot bind.
    num_chosen = int(chosen_idx.size)
    if max_paths >= 0 and num_chosen and num_chosen + int(vec_finished.max()) >= max_paths:
        cand_vec = np.repeat(entry_vector, lengths)
        cumulative = np.cumsum(chosen)
        vec_start = np.searchsorted(
            cand_vec, np.arange(num_vectors, dtype=np.int64), side="left"
        )
        base = np.where(vec_start > 0, cumulative[vec_start - 1], 0)
        run = cumulative - base[cand_vec] + vec_finished[cand_vec]
        violating = chosen & (run >= max_paths)
        if violating.any():
            violating_idx = np.flatnonzero(violating)
            violating_vecs = cand_vec[violating_idx]
            first_mask = np.ones(violating_idx.size, dtype=np.bool_)
            first_mask[1:] = violating_vecs[1:] != violating_vecs[:-1]
            for cutoff in violating_idx[first_mask]:
                vector = int(cand_vec[cutoff])
                segment_end = int(np.searchsorted(cand_vec, vector, side="right"))
                status[cutoff + 1 : segment_end] = 0
                cutoff_entry = int(np.searchsorted(entry_offsets, cutoff, side="right")) - 1
                first_entry = int(np.searchsorted(entry_vector, vector, side="left"))
                expansions[vector] = cutoff_entry - first_entry + 1
                truncated[vector] = True

    counters[PATHS_EXTENDED] += int(np.count_nonzero(status))
    counters[KEYS_FOLDED] += num_candidates
    return new_keys, status, new_logs, expansions, truncated


def chain_resolve(
    group_offsets: np.ndarray,
    entry_items: np.ndarray,
    entry_offsets: np.ndarray,
    counters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve forced-collision chains: assign sub-slots within key groups.

    The entries of each group share a folded key but may carry different path
    contents; they arrive in stream (first-appearance) order.  Group ``g``
    spans entries ``group_offsets[g]:group_offsets[g + 1]``; entry ``e``'s
    path items are ``entry_items[entry_offsets[e]:entry_offsets[e + 1]]``.

    For each entry the kernel walks the group's distinct representatives in
    first-appearance order, comparing path contents (one ``CHAIN_PROBES``
    count per representative tried), and assigns the matching sub-slot — or
    opens a new one.  Returns ``(sub_slots, group_counts)``: the per-entry
    sub-slot index and the number of distinct paths per group.
    """
    num_groups = int(group_offsets.size) - 1
    num_entries = int(entry_offsets.size) - 1
    sub_slots = np.zeros(num_entries, dtype=np.int64)
    group_counts = np.zeros(num_groups, dtype=np.int64)
    probes = 0
    for group in range(num_groups):
        start = int(group_offsets[group])
        end = int(group_offsets[group + 1])
        representatives: list[tuple[int, int]] = []
        for entry in range(start, end):
            entry_start = int(entry_offsets[entry])
            entry_end = int(entry_offsets[entry + 1])
            slot = -1
            for index, (rep_start, rep_end) in enumerate(representatives):
                probes += 1
                if rep_end - rep_start == entry_end - entry_start and np.array_equal(
                    entry_items[rep_start:rep_end], entry_items[entry_start:entry_end]
                ):
                    slot = index
                    break
            if slot < 0:
                slot = len(representatives)
                representatives.append((entry_start, entry_end))
            sub_slots[entry] = slot
        group_counts[group] = len(representatives)
    counters[CHAIN_PROBES] += probes
    return sub_slots, group_counts


def merge_labeled(
    labels: np.ndarray, ids: np.ndarray, counters: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(label, id)`` pairs and drop duplicates.

    Returns ``(labels_out, ids_out)`` sorted by label then id, with exact
    duplicate pairs removed — the engine's batched candidate-merge step.
    """
    counters[MERGE_ROWS] += int(ids.size)
    if ids.size == 0:
        return labels[:0], ids[:0]
    order = np.lexsort((ids, labels))
    sorted_labels = labels[order]
    sorted_ids = ids[order]
    keep = np.ones(sorted_ids.size, dtype=np.bool_)
    keep[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (
        sorted_labels[1:] != sorted_labels[:-1]
    )
    counters[DEDUPE_HITS] += int(sorted_ids.size - np.count_nonzero(keep))
    return sorted_labels[keep], sorted_ids[keep]


def ordered_unique(
    ids: np.ndarray, counters: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate ``ids`` preserving first-appearance order.

    Returns ``(ordered, first_positions)``: the distinct values in the order
    they first appear, and the index of each value's first appearance.
    """
    counters[MERGE_ROWS] += int(ids.size)
    if ids.size == 0:
        return ids[:0], np.zeros(0, dtype=np.int64)
    _, first = np.unique(ids, return_index=True)
    first.sort()
    counters[DEDUPE_HITS] += int(ids.size - first.size)
    return ids[first], first.astype(np.int64, copy=False)


def sorted_unique(ids: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Deduplicate ``ids`` into ascending order (``np.unique``)."""
    counters[MERGE_ROWS] += int(ids.size)
    result = np.unique(ids)
    counters[DEDUPE_HITS] += int(ids.size - result.size)
    return result
