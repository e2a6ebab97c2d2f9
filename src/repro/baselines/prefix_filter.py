"""Prefix filtering baseline (Bayardo, Ma, Srikant — WWW 2007).

Prefix filtering is the dominant *exact* heuristic for set similarity search
and join on skewed data, and the method the paper benchmarks its bounds
against in the extreme-skew regime.  The idea: order the universe by
increasing item frequency and index, for every set, only a short *prefix* of
its rarest items.  Two sets meeting the similarity threshold must share at
least one prefix item, so scanning the posting lists of the query's prefix
items finds every answer; candidates are then verified exactly.

For Braun-Blanquet threshold ``b1`` and a set of size ``m``, any qualifying
partner shares at least ``ceil(b1 * m)`` items with it, so indexing the first
``m - ceil(b1 * m) + 1`` items in ascending frequency order is sufficient for
correctness (the standard prefix-length argument).

The work of a query is dominated by the posting lists of its prefix items;
on heavily skewed data prefixes consist of very rare items and the method is
extremely fast, but with little skew the posting lists approach ``n`` and the
method degenerates to a near-linear scan (exactly the behaviour the paper
describes, e.g. the ``Ω(n^0.1)`` lower bounds in Section 7).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.batch import run_loop_batch
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.similarity.measures import braun_blanquet

SetLike = Iterable[int]


def prefix_length(set_size: int, threshold: float) -> int:
    """Number of (rarest-first) items that must be indexed for one set.

    ``|x| − ceil(b1 |x|) + 1``, clamped to ``[1, |x|]`` for non-empty sets.
    """
    if set_size <= 0:
        return 0
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    required_overlap = int(math.ceil(threshold * set_size))
    return max(1, min(set_size, set_size - required_overlap + 1))


class PrefixFilterIndex:
    """Exact prefix-filtering index for Braun-Blanquet similarity search.

    Parameters
    ----------
    threshold:
        Braun-Blanquet similarity threshold ``b1``.
    item_frequencies:
        Optional global item frequencies used for the rarest-first ordering.
        When omitted, :meth:`build` computes empirical frequencies from the
        indexed data (the standard practice).
    """

    def __init__(
        self,
        threshold: float,
        item_frequencies: Sequence[float] | np.ndarray | None = None,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = float(threshold)
        self._given_frequencies = (
            np.asarray(item_frequencies, dtype=np.float64)
            if item_frequencies is not None
            else None
        )
        self._rank: dict[int, int] = {}
        self._postings: dict[int, list[int]] = {}
        self._vectors: list[frozenset[int]] = []

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def num_indexed(self) -> int:
        return len(self._vectors)

    @property
    def total_postings(self) -> int:
        """Number of (prefix item, vector) entries — the index space usage."""
        return sum(len(vector_ids) for vector_ids in self._postings.values())

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def _frequency_order(self, vectors: Sequence[frozenset[int]]) -> dict[int, int]:
        """Rank of every item in ascending frequency order (rarest first)."""
        if self._given_frequencies is not None:
            frequencies = self._given_frequencies
            dimension = frequencies.size
        else:
            dimension = 0
            for members in vectors:
                if members:
                    dimension = max(dimension, max(members) + 1)
            counts = np.zeros(dimension, dtype=np.int64)
            for members in vectors:
                for item in members:
                    counts[item] += 1
            frequencies = counts.astype(np.float64)
        order = np.argsort(frequencies, kind="stable")
        return {int(item): rank for rank, item in enumerate(order)}

    def _prefix_of(self, members: frozenset[int]) -> list[int]:
        """The prefix (rarest items first) of one set under the global order."""
        size = len(members)
        if size == 0:
            return []
        length = prefix_length(size, self._threshold)
        # Items missing from the rank map (out-of-vocabulary for supplied
        # frequencies) are treated as maximally rare: they sort first.
        ordered = sorted(members, key=lambda item: self._rank.get(item, -1))
        return ordered[:length]

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset."""
        self._vectors = [frozenset(int(item) for item in members) for members in collection]
        self._rank = self._frequency_order(self._vectors)
        self._postings = {}
        stats = BuildStats(num_vectors=len(self._vectors), repetitions=1)
        for vector_id, members in enumerate(self._vectors):
            for item in self._prefix_of(members):
                self._postings.setdefault(item, []).append(vector_id)
                stats.total_filters += 1
        return stats

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query(self, query: SetLike, mode: str = "first") -> tuple[int | None, QueryStats]:
        """Return a stored vector with ``B(x, q) >= threshold``, or ``None``.

        Prefix filtering is exact: if a qualifying vector exists it is always
        found (recall 1), at the price of candidate lists that grow with the
        frequency of the query's prefix items.
        """
        if mode not in ("first", "best"):
            raise ValueError(f"mode must be 'first' or 'best', got {mode!r}")
        query_set = frozenset(int(item) for item in query)
        stats = QueryStats(repetitions_used=1)
        if not query_set or not self._vectors:
            return None, stats
        best_id: int | None = None
        best_similarity = -1.0
        evaluated: set[int] = set()
        prefix = self._prefix_of(query_set)
        stats.filters_generated = len(prefix)
        for item in prefix:
            for candidate_id in self._postings.get(item, []):
                stats.candidates_examined += 1
                if candidate_id in evaluated:
                    continue
                evaluated.add(candidate_id)
                stats.unique_candidates += 1
                similarity = braun_blanquet(self._vectors[candidate_id], query_set)
                stats.similarity_evaluations += 1
                if similarity >= self._threshold:
                    if mode == "first":
                        stats.found = True
                        return candidate_id, stats
                    if similarity > best_similarity:
                        best_similarity = similarity
                        best_id = candidate_id
        stats.found = best_id is not None
        return best_id, stats

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        """All candidates sharing a prefix item with the query."""
        query_set = frozenset(int(item) for item in query)
        stats = QueryStats(repetitions_used=1)
        candidates: set[int] = set()
        if not query_set or not self._vectors:
            return candidates, stats
        prefix = self._prefix_of(query_set)
        stats.filters_generated = len(prefix)
        for item in prefix:
            for candidate_id in self._postings.get(item, []):
                stats.candidates_examined += 1
                candidates.add(candidate_id)
        stats.unique_candidates = len(candidates)
        return candidates, stats

    def query_batch(
        self,
        queries: Sequence[SetLike],
        mode: str = "first",
        batch_size: int | None = None,
        deduplicate: bool = True,
    ) -> tuple[list[int | None], BatchQueryStats]:
        """Batched queries (loop-based executor with query deduplication)."""
        del batch_size
        return run_loop_batch(
            lambda query_set: self.query(query_set, mode=mode), queries, deduplicate
        )

    def query_candidates_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        deduplicate: bool = True,
    ) -> tuple[list[set[int]], BatchQueryStats]:
        """Batched candidate enumeration (loop-based executor)."""
        del batch_size
        return run_loop_batch(self.query_candidates, queries, deduplicate)

    def get_vector(self, vector_id: int) -> frozenset[int]:
        return self._vectors[vector_id]

    def __repr__(self) -> str:
        return (
            f"PrefixFilterIndex(threshold={self._threshold:g}, "
            f"indexed={len(self._vectors)}, postings={self.total_postings})"
        )
