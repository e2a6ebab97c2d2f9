"""One path's posting list, read the way the program reads every store.

The stores answer one read call, ``probe_batch_routed``; a test that wants
a single path's postings asks for them through that same call.
"""

from __future__ import annotations

import numpy as np

from repro.core.paths import paths_to_csr
from repro.hashing.pairwise import fold_path


def posting_list(store, path, key: int | None = None) -> list[int]:
    """The vector ids ``store`` files under ``path`` (empty when none).

    ``key`` defaults to the path's folded key; pass one to probe with a
    forced key collision.
    """
    path = tuple(path)
    keys = np.asarray([fold_path(path) if key is None else key], dtype=np.uint64)
    ids, _offsets, _route = store.probe_batch_routed(*paths_to_csr([path]), keys)
    return ids.tolist()
