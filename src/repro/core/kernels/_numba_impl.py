"""Numba-jitted kernel backend (optional dependency).

Importing this module raises ``ImportError`` when numba is not installed;
the dispatch layer catches that and falls back to the numpy backend.  Every
kernel gives the same outputs as its :mod:`repro.core.kernels._numpy_impl`
counterpart.  The arithmetic need not match: ``_hash_key`` reduces modulo
the Mersenne prime ``2^61 - 1`` after every 32-bit-split partial product,
while the numpy form, :func:`repro.hashing.pairwise.hash_keys`, reduces
lazily.  Both compute the same residue, so hash values (and therefore every
downstream decision) are bit-identical.

Numba notes: all 64-bit hash constants are pinned as ``np.uint64`` module
globals — mixing a raw Python int literal into uint64 arithmetic would
promote to float64 and silently change the hash.
"""

from __future__ import annotations

import numpy as np
from numba import njit  # noqa: F401 - import failure selects the numpy backend

from repro.core.kernels._contract import (
    CHAIN_PROBES,
    DEDUPE_HITS,
    KEYS_FOLDED,
    MERGE_ROWS,
    PATHS_EXTENDED,
)
from repro.hashing.pairwise import MERSENNE_PRIME

_U64_PRIME = np.uint64(MERSENNE_PRIME)
_PRIME_FLOAT = float(MERSENNE_PRIME)
_U64_1 = np.uint64(1)
_U64_8 = np.uint64(8)
_U64_27 = np.uint64(27)
_U64_29 = np.uint64(29)
_U64_30 = np.uint64(30)
_U64_31 = np.uint64(31)
_U64_32 = np.uint64(32)
_U64_61 = np.uint64(61)
_U64_LOW29 = np.uint64((1 << 29) - 1)
_U64_LOW32 = np.uint64((1 << 32) - 1)
_U64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)


@njit(cache=True)
def _mod_mersenne(value):
    folded = (value & _U64_PRIME) + (value >> _U64_61)
    if folded >= _U64_PRIME:
        folded -= _U64_PRIME
    return folded


@njit(cache=True)
def _splitmix64(value):
    value = value + _U64_GOLDEN
    value = (value ^ (value >> _U64_30)) * _U64_MIX1
    value = (value ^ (value >> _U64_27)) * _U64_MIX2
    return value ^ (value >> _U64_31)


@njit(cache=True)
def _extend_key(prefix_key, item):
    return _splitmix64(prefix_key ^ (np.uint64(item) + _U64_1))


@njit(cache=True)
def _hash_key(key, a_hi, a_lo, b):
    reduced = _mod_mersenne(key)
    x_hi = reduced >> _U64_32
    x_lo = reduced & _U64_LOW32
    high = _mod_mersenne(_U64_8 * (a_hi * x_hi))
    middle = _mod_mersenne(a_hi * x_lo + a_lo * x_hi)
    middle = _mod_mersenne((middle >> _U64_29) + ((middle & _U64_LOW29) << _U64_32))
    low = _mod_mersenne(a_lo * x_lo)
    total = _mod_mersenne(high + middle + low + b)
    return np.float64(total) / _PRIME_FLOAT


@njit(cache=True)
def _extend_level_jit(
    cand_prefix_keys,
    cand_items,
    cand_probs,
    cand_parent_logs,
    cand_item_logs,
    entry_offsets,
    entry_vector,
    entry_repetition,
    num_vectors,
    vec_finished,
    log_stop,
    use_stop,
    max_paths,
    a,
    b,
    counters,
):
    num_candidates = cand_items.size
    num_entries = entry_vector.size
    new_keys = np.zeros(num_candidates, dtype=np.uint64)
    status = np.zeros(num_candidates, dtype=np.int8)
    new_logs = np.zeros(num_candidates, dtype=np.float64)
    expansions = np.zeros(num_vectors, dtype=np.int64)
    truncated = np.zeros(num_vectors, dtype=np.bool_)

    extended = 0
    entry = 0
    while entry < num_entries:
        vector = entry_vector[entry]
        run = vec_finished[vector]
        vec_truncated = False
        while entry < num_entries and entry_vector[entry] == vector:
            if not vec_truncated:
                expansions[vector] += 1
                # ``a``/``b`` are uint64 tables: the entry's repetition row.
                a_u = a[entry_repetition[entry]]
                a_hi = a_u >> _U64_32
                a_lo = a_u & _U64_LOW32
                b_u = b[entry_repetition[entry]]
                for index in range(entry_offsets[entry], entry_offsets[entry + 1]):
                    key = _extend_key(cand_prefix_keys[index], cand_items[index])
                    new_keys[index] = key
                    log_product = cand_parent_logs[index] + cand_item_logs[index]
                    new_logs[index] = log_product
                    if _hash_key(key, a_hi, a_lo, b_u) < cand_probs[index]:
                        if use_stop and log_product <= log_stop:
                            status[index] = 2
                        else:
                            status[index] = 1
                        extended += 1
                        run += 1
                        if max_paths >= 0 and run >= max_paths:
                            truncated[vector] = True
                            vec_truncated = True
                            break
            entry += 1

    counters[PATHS_EXTENDED] += extended
    counters[KEYS_FOLDED] += num_candidates
    return new_keys, status, new_logs, expansions, truncated


@njit(cache=True)
def _chain_resolve_jit(group_offsets, entry_items, entry_offsets, counters):
    num_groups = group_offsets.size - 1
    num_entries = entry_offsets.size - 1
    sub_slots = np.zeros(num_entries, dtype=np.int64)
    group_counts = np.zeros(num_groups, dtype=np.int64)
    probes = 0
    for group in range(num_groups):
        start = group_offsets[group]
        end = group_offsets[group + 1]
        rep_starts = np.empty(end - start, dtype=np.int64)
        rep_ends = np.empty(end - start, dtype=np.int64)
        num_reps = 0
        for entry in range(start, end):
            entry_start = entry_offsets[entry]
            entry_end = entry_offsets[entry + 1]
            slot = -1
            for rep in range(num_reps):
                probes += 1
                rep_start = rep_starts[rep]
                rep_end = rep_ends[rep]
                if rep_end - rep_start == entry_end - entry_start:
                    match = True
                    for offset in range(entry_end - entry_start):
                        if entry_items[rep_start + offset] != entry_items[entry_start + offset]:
                            match = False
                            break
                    if match:
                        slot = rep
                        break
            if slot < 0:
                slot = num_reps
                rep_starts[num_reps] = entry_start
                rep_ends[num_reps] = entry_end
                num_reps += 1
            sub_slots[entry] = slot
        group_counts[group] = num_reps
    counters[CHAIN_PROBES] += probes
    return sub_slots, group_counts


@njit(cache=True)
def _merge_labeled_jit(labels, ids, counters):
    size = ids.size
    counters[MERGE_ROWS] += size
    if size == 0:
        return labels[:0], ids[:0]
    # np.lexsort equivalent: stable sort by the secondary key, then a stable
    # sort by the primary key.
    by_ids = np.argsort(ids, kind="mergesort")
    order = by_ids[np.argsort(labels[by_ids], kind="mergesort")]
    out_labels = np.empty(size, dtype=labels.dtype)
    out_ids = np.empty(size, dtype=np.int64)
    count = 0
    for position in range(size):
        index = order[position]
        label = labels[index]
        value = ids[index]
        if count == 0 or out_labels[count - 1] != label or out_ids[count - 1] != value:
            out_labels[count] = label
            out_ids[count] = value
            count += 1
    counters[DEDUPE_HITS] += size - count
    return out_labels[:count], out_ids[:count]


@njit(cache=True)
def _ordered_unique_jit(ids, counters):
    size = ids.size
    counters[MERGE_ROWS] += size
    if size == 0:
        return ids[:0], np.zeros(0, dtype=np.int64)
    order = np.argsort(ids, kind="mergesort")
    first = np.empty(size, dtype=np.int64)
    count = 0
    for position in range(size):
        index = order[position]
        if position == 0 or ids[index] != ids[order[position - 1]]:
            first[count] = index
            count += 1
    first_sorted = np.sort(first[:count])
    out = np.empty(count, dtype=ids.dtype)
    for position in range(count):
        out[position] = ids[first_sorted[position]]
    counters[DEDUPE_HITS] += size - count
    return out, first_sorted


@njit(cache=True)
def _sorted_unique_jit(ids, counters):
    size = ids.size
    counters[MERGE_ROWS] += size
    if size == 0:
        return ids[:0]
    ordered = np.sort(ids)
    out = np.empty(size, dtype=ids.dtype)
    count = 0
    for position in range(size):
        value = ordered[position]
        if count == 0 or out[count - 1] != value:
            out[count] = value
            count += 1
    counters[DEDUPE_HITS] += size - count
    return out[:count]


extend_level = _extend_level_jit
chain_resolve = _chain_resolve_jit
merge_labeled = _merge_labeled_jit
ordered_unique = _ordered_unique_jit
sorted_unique = _sorted_unique_jit
