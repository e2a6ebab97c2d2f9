"""The three filter-engine indexes share one declared surface.

Everything a caller does with a built index is declared once, on
``EngineBackedIndex``; the facades keep only their constructors, their own
properties and ``_create_engine``.  Pinned both ways: the shared surface
behaves the same before ``build()`` on every kind, and no facade redeclares
any of it.
"""

from __future__ import annotations

import pytest

from repro.baselines.chosen_path import ChosenPathIndex
from repro.core.correlated_index import CorrelatedIndex
from repro.core.engine_index import EngineBackedIndex
from repro.core.skewed_index import SkewAdaptiveIndex

SHARED_CALLS = {
    "insert": lambda index: index.insert({1, 2}),
    "remove": lambda index: index.remove(0),
    "query": lambda index: index.query({1, 2}),
    "query_batch": lambda index: index.query_batch([{1, 2}]),
    "query_candidates": lambda index: index.query_candidates({1, 2}),
    "query_candidates_batch": lambda index: index.query_candidates_batch([{1, 2}]),
    "query_candidates_arrays_batch": (
        lambda index: index.query_candidates_arrays_batch([{1, 2}])
    ),
    "get_vector": lambda index: index.get_vector(0),
    "build_stats": lambda index: index.build_stats,
    "total_stored_filters": lambda index: index.total_stored_filters,
}
SHARED_NAMES = [*SHARED_CALLS, "build", "num_indexed", "_require_built", "__repr__"]


def _unbuilt(kind, distribution):
    if kind is SkewAdaptiveIndex:
        return SkewAdaptiveIndex(distribution, b1=0.5)
    if kind is CorrelatedIndex:
        return CorrelatedIndex(distribution, alpha=0.7)
    return ChosenPathIndex(distribution.dimension, b1=0.5, b2=0.25)


KINDS = [SkewAdaptiveIndex, CorrelatedIndex, ChosenPathIndex]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_shared_surface_is_declared_once_and_guarded(kind, skewed_distribution):
    assert issubclass(kind, EngineBackedIndex)
    assert not [name for name in SHARED_NAMES if name in vars(kind)]
    index = _unbuilt(kind, skewed_distribution)
    assert index.num_indexed == 0
    assert repr(index).startswith(f"{kind.__name__}(") and "indexed=0" in repr(index)
    for call in SHARED_CALLS.values():
        with pytest.raises(RuntimeError, match=r"not been built yet; call build\(\) first"):
            call(index)
    index.build([{1, 2}, {2, 3}])
    assert index.num_indexed == 2
    assert index.get_vector(1) == frozenset({2, 3})
