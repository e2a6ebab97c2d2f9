"""Exact brute-force similarity search (ground truth baseline).

The brute-force index stores the dataset as-is and answers every query by a
linear scan, evaluating the similarity of every stored vector.  It is the
reference the evaluation harness uses to compute ground truth and recall for
all approximate indexes, and the degenerate baseline that skew-exploiting
heuristics collapse to when there is no skew (Section 1 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.batch import run_loop_batch
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.similarity.measures import braun_blanquet
from repro.similarity.predicates import SimilarityPredicate

SetLike = Iterable[int]


class BruteForceIndex:
    """Exact linear-scan index.

    Parameters
    ----------
    predicate:
        Similarity predicate used by :meth:`query`; defaults to
        Braun-Blanquet at threshold 0.5.
    """

    def __init__(self, predicate: SimilarityPredicate | None = None):
        self._predicate = predicate or SimilarityPredicate("braun_blanquet", 0.5)
        self._vectors: list[frozenset[int]] = []

    @property
    def predicate(self) -> SimilarityPredicate:
        return self._predicate

    @property
    def num_indexed(self) -> int:
        return len(self._vectors)

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Store the dataset.  Returns trivial build statistics."""
        self._vectors = [frozenset(int(item) for item in members) for members in collection]
        return BuildStats(num_vectors=len(self._vectors), total_filters=0, repetitions=1)

    def query(self, query: SetLike, mode: str = "best") -> tuple[int | None, QueryStats]:
        """Return the most similar stored vector meeting the predicate.

        ``mode`` is accepted for interface compatibility; a linear scan
        always examines everything, so ``"first"`` and ``"best"`` only differ
        in which qualifying vector is returned (first hit versus best hit).
        """
        if mode not in ("first", "best"):
            raise ValueError(f"mode must be 'first' or 'best', got {mode!r}")
        query_set = frozenset(int(item) for item in query)
        stats = QueryStats(repetitions_used=1)
        best_id: int | None = None
        best_similarity = -1.0
        for vector_id, stored in enumerate(self._vectors):
            stats.candidates_examined += 1
            stats.unique_candidates += 1
            similarity = self._predicate.similarity(stored, query_set)
            stats.similarity_evaluations += 1
            if similarity >= self._predicate.threshold:
                if mode == "first":
                    stats.found = True
                    return vector_id, stats
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_id = vector_id
        stats.found = best_id is not None
        return best_id, stats

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        """Every stored id is a candidate (that is what brute force means)."""
        stats = QueryStats(
            candidates_examined=len(self._vectors),
            unique_candidates=len(self._vectors),
            repetitions_used=1,
        )
        return set(range(len(self._vectors))), stats

    def query_batch(
        self,
        queries: Sequence[SetLike],
        mode: str = "best",
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
        """Batched candidate enumeration (every stored id, per query)."""
        del batch_size
        return run_loop_batch(self.query_candidates, queries, deduplicate)

    def get_vector(self, vector_id: int) -> frozenset[int]:
        return self._vectors[vector_id]

    def all_matches(
        self, query: SetLike, predicate: SimilarityPredicate | None = None
    ) -> list[tuple[int, float]]:
        """All stored vectors meeting the predicate, sorted by similarity.

        This is the ground-truth primitive used by the evaluation metrics.
        """
        active_predicate = predicate or self._predicate
        query_set = frozenset(int(item) for item in query)
        matches = []
        for vector_id, stored in enumerate(self._vectors):
            similarity = active_predicate.similarity(stored, query_set)
            if similarity >= active_predicate.threshold:
                matches.append((vector_id, similarity))
        matches.sort(key=lambda entry: (-entry[1], entry[0]))
        return matches

    def nearest(self, query: SetLike) -> tuple[int | None, float]:
        """The single most similar stored vector (no threshold applied)."""
        query_set = frozenset(int(item) for item in query)
        best_id: int | None = None
        best_similarity = -1.0
        for vector_id, stored in enumerate(self._vectors):
            similarity = braun_blanquet(stored, query_set)
            if similarity > best_similarity:
                best_similarity = similarity
                best_id = vector_id
        return best_id, max(best_similarity, 0.0)

    def __repr__(self) -> str:
        return f"BruteForceIndex(indexed={len(self._vectors)}, predicate={self._predicate})"
