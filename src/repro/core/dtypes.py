"""The declared dtype registry for the core engine.

Every array in the engine and the on-disk formats obeys one of these
contracts; ``repro lint`` rule RPL003 enforces them statically:

* :data:`KEY_DTYPE` — folded path keys and shard fences are ``uint64``:
  the hash domain is the full 64-bit space and the v3 format stores keys
  raw, so a narrower or signed type would corrupt probe order.
* :data:`ID_DTYPE` — vector ids are ``int64``: signed so sentinel values
  and searchsorted/diff arithmetic cannot wrap.
* :data:`OFFSET_DTYPE` — CSR offsets are ``int64`` for the same reason;
  ``np.diff`` on unsigned offsets silently wraps on any bug.
* :data:`REPETITION_DTYPE` — the per-probe repetition column of a routed
  probe is ``int32``: signed so a hostile negative value is a range error
  rather than a wrap, and half the wire bytes of an id.

(On-disk containers may *narrow* ids/lengths for compression —
``serialization._compact_ints`` — but loading always widens back to the
registry types before anything probes the arrays.)
"""

from __future__ import annotations

import numpy as np

#: Folded path keys, shard fences: the uint64 hash domain.
KEY_DTYPE = np.uint64

#: Vector ids (postings, candidate arrays, tombstones).
ID_DTYPE = np.int64

#: CSR offset arrays (path_offsets, posting_offsets, vector_offsets).
OFFSET_DTYPE = np.int64

#: Path item ids (universe indexes); shares the id contract.
ITEM_DTYPE = np.int64

#: Per-probe repetition numbers of a multi-repetition (routed) probe.
REPETITION_DTYPE = np.int32

__all__ = ["KEY_DTYPE", "ID_DTYPE", "OFFSET_DTYPE", "ITEM_DTYPE", "REPETITION_DTYPE"]
