"""Shared kernel contract: counter slots and array conventions.

Every kernel accumulates work counts into a caller-owned
``int64[NUM_COUNTERS]`` vector.  The slot layout below is the contract: each
slot means exactly one thing, so ``KernelStats`` totals can be compared
across execution schedules and pinned by the equivalence suites.

Counter slots
-------------
``PATHS_EXTENDED``
    Chosen path extensions materialised by ``extend_level`` (finished paths
    and frontier children both count; candidates dropped by the hash test or
    by ``max_paths`` truncation do not).
``KEYS_FOLDED``
    Candidate extension keys submitted to ``extend_level`` — one per
    (frontier entry, available item) pair, whether or not the extension was
    chosen.
``CHAIN_PROBES``
    Path-content comparisons performed by ``chain_resolve`` while walking a
    forced-collision chain (one per distinct representative tried).
``MERGE_ROWS``
    Candidate rows entering a merge kernel (``merge_labeled``,
    ``ordered_unique``, ``sorted_unique``).
``DEDUPE_HITS``
    Rows removed by a merge kernel as duplicates (rows in minus rows out).
"""

from __future__ import annotations

import numpy as np

#: Human-readable counter names, index-aligned with the slot constants.
COUNTER_NAMES = (
    "paths_extended",
    "keys_folded",
    "chain_probes",
    "merge_rows",
    "dedupe_hits",
)

PATHS_EXTENDED, KEYS_FOLDED, CHAIN_PROBES, MERGE_ROWS, DEDUPE_HITS = range(5)

NUM_COUNTERS = len(COUNTER_NAMES)


def new_counters() -> np.ndarray:
    """A fresh all-zero counter vector in the shared slot layout."""
    return np.zeros(NUM_COUNTERS, dtype=np.int64)
