"""The surface shared by the indexes that delegate to a :class:`FilterEngine`.

:class:`~repro.core.skewed_index.SkewAdaptiveIndex`,
:class:`~repro.core.correlated_index.CorrelatedIndex` and
:class:`~repro.baselines.chosen_path.ChosenPathIndex` differ only in how they
configure their engine — threshold policy, stopping rule, depth.  Everything
a caller does with a built index forwards to that engine, so it is declared
once here; each index supplies :meth:`EngineBackedIndex._create_engine` and
its own properties.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.engine import FilterEngine
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats

SetLike = Iterable[int]


class EngineBackedIndex:
    """Build, update and query surface of a :class:`FilterEngine` index.

    The engine is created by :meth:`build` (or installed by a loader) and
    every other method raises :class:`RuntimeError` until then.
    """

    _engine: FilterEngine | None = None

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        """A fresh, empty engine for a dataset of the given size.

        Exposed so that :mod:`repro.core.serialization` can reconstruct the
        engine (hash functions, thresholds, stopping rule) from the saved
        configuration and then restore the saved state directly, without a
        placeholder build.
        """
        raise NotImplementedError

    def _require_built(self) -> FilterEngine:
        if self._engine is None:
            raise RuntimeError("the index has not been built yet; call build() first")
        return self._engine

    def _describe(self) -> str:
        """The ``name=value`` fields :meth:`__repr__` shows before ``indexed``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Build and updates
    # ------------------------------------------------------------------ #

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset (any iterable of item-id collections)."""
        vectors = [frozenset(int(item) for item in members) for members in collection]
        self._engine = self._create_engine(max(len(vectors), 1))
        return self._engine.build(vectors)

    def insert(self, members: SetLike) -> int:
        """Insert one vector into the built index and return its id.

        Suitable for a moderate number of additions: the stopping rule, the
        number of repetitions and any fixed depth were derived from the
        dataset size at build time, so growth by a large factor warrants a
        rebuild.
        """
        return self._require_built().insert(members)

    def remove(self, vector_id: int) -> None:
        """Remove a stored vector by id (it stops appearing in results)."""
        self._require_built().remove(vector_id)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, query: SetLike, mode: str = "first") -> tuple[int | None, QueryStats]:
        """Return the id of a stored vector meeting the acceptance threshold.

        ``None`` when no candidate meets it.  See
        :meth:`repro.core.engine.FilterEngine.query` for the ``mode``
        semantics.
        """
        return self._require_built().query(query, mode=mode)

    def query_batch(
        self,
        queries: Sequence[SetLike],
        mode: str = "first",
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[int | None], BatchQueryStats]:
        """Answer many queries through the vectorised batch subsystem.

        Results are identical to ``[query(q, mode)[0] for q in queries]``;
        see :meth:`repro.core.engine.FilterEngine.query_batch` for the
        execution model and parameters.
        """
        return self._require_built().query_batch(
            queries,
            mode=mode,
            batch_size=batch_size,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        """All candidate ids colliding with the query (used by joins)."""
        return self._require_built().query_candidates(query)

    def query_candidates_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[set[int]], BatchQueryStats]:
        """Batched candidate enumeration (the similarity join's primitive)."""
        return self._require_built().query_candidates_batch(
            queries,
            batch_size=batch_size,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def query_candidates_arrays_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[np.ndarray], BatchQueryStats]:
        """Batched candidate enumeration as sorted id arrays (read-only).

        The CSR merge's native output; the similarity join consumes this to
        verify candidates without materialising per-query Python sets.
        """
        return self._require_built().query_candidates_arrays_batch(
            queries,
            batch_size=batch_size,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def get_vector(self, vector_id: int) -> frozenset[int]:
        """The stored vector with the given id."""
        return self._require_built().vectors[vector_id]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def num_indexed(self) -> int:
        """Number of vectors currently indexed (0 before :meth:`build`)."""
        return len(self._engine.vectors) if self._engine is not None else 0

    @property
    def build_stats(self) -> BuildStats:
        return self._require_built().build_stats

    @property
    def total_stored_filters(self) -> int:
        """Space usage in (filter, vector) postings across repetitions."""
        return self._require_built().total_stored_filters

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._describe()}, indexed={self.num_indexed})"
