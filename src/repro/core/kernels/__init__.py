"""Hot-path kernels behind fixed array-in/array-out signatures.

The three interpreted hot loops — per-level path extension, the
forced-collision chain fallback in ``InvertedFilterIndex.compact``, and the
engine's CSR gather → sort/unique segment merges — run through the kernel
signatures defined here, implemented in numpy by
:mod:`repro.core.kernels._numpy_impl`.  Callers reach them through
:func:`get_impl`, looked up at call time, so a profiler can wrap the bundle
it returns.

Every kernel accumulates per-stage work counts into a caller-owned
``int64[NUM_COUNTERS]`` vector (:func:`new_counters`), surfaced upstream as
``KernelStats`` on query/build statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.kernels import _numpy_impl
from repro.core.kernels._contract import (
    CHAIN_PROBES,
    COUNTER_NAMES,
    DEDUPE_HITS,
    KEYS_FOLDED,
    MERGE_ROWS,
    NUM_COUNTERS,
    PATHS_EXTENDED,
    new_counters,
)

__all__ = [
    "CHAIN_PROBES",
    "COUNTER_NAMES",
    "DEDUPE_HITS",
    "KEYS_FOLDED",
    "KernelImplementation",
    "MERGE_ROWS",
    "NUM_COUNTERS",
    "PATHS_EXTENDED",
    "active_backend",
    "get_impl",
    "new_counters",
]

_ExtendLevel = Callable[
    ...,
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]
_ChainResolve = Callable[..., tuple[np.ndarray, np.ndarray]]
_MergeLabeled = Callable[..., tuple[np.ndarray, np.ndarray]]
_OrderedUnique = Callable[..., tuple[np.ndarray, np.ndarray]]
_SortedUnique = Callable[..., np.ndarray]


@dataclass(frozen=True)
class KernelImplementation:
    """The bundle of kernel entry points, with the name benchmarks record.

    All fields share the signatures documented in
    :mod:`repro.core.kernels._numpy_impl`.
    """

    name: str
    extend_level: _ExtendLevel
    chain_resolve: _ChainResolve
    merge_labeled: _MergeLabeled
    ordered_unique: _OrderedUnique
    sorted_unique: _SortedUnique


_IMPL = KernelImplementation(
    name="python",
    extend_level=_numpy_impl.extend_level,
    chain_resolve=_numpy_impl.chain_resolve,
    merge_labeled=_numpy_impl.merge_labeled,
    ordered_unique=_numpy_impl.ordered_unique,
    sorted_unique=_numpy_impl.sorted_unique,
)


def get_impl() -> KernelImplementation:
    """The kernel entry points."""
    return _IMPL


def active_backend() -> str:
    """Name of the kernel bundle :func:`get_impl` returns (``"python"``)."""
    return get_impl().name
