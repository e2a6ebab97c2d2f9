"""MinHash LSH baseline (Broder 1997; banding scheme).

MinHash is the classical locality-sensitive hashing scheme for Jaccard
similarity: the probability that two sets have the same minimum hash under a
random permutation equals their Jaccard similarity.  The index concatenates
``rows_per_band`` MinHash values into a band key and uses ``num_bands``
independent bands; two sets become candidates when they agree on at least one
full band.

The paper notes (Section 1.2) that Chosen Path strictly improves on MinHash
for sparse data; the baseline is included so the empirical comparison covers
the standard practice as well.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.batch import run_loop_batch
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.hashing.minwise import MinwiseHasher
from repro.similarity.measures import braun_blanquet
from repro.similarity.predicates import jaccard_from_braun_blanquet

SetLike = Iterable[int]


def banding_parameters(
    jaccard_threshold: float, target_bands: int = 16, max_rows: int = 8
) -> tuple[int, int]:
    """Choose (num_bands, rows_per_band) for a Jaccard threshold.

    Uses the standard rule of thumb that the S-curve threshold of a banding
    scheme is approximately ``(1/bands)^(1/rows)``; rows are chosen so that
    this value is close to (and not above) the requested threshold.
    """
    if not 0.0 < jaccard_threshold < 1.0:
        raise ValueError(f"jaccard_threshold must be in (0, 1), got {jaccard_threshold}")
    if target_bands <= 0 or max_rows <= 0:
        raise ValueError("target_bands and max_rows must be positive")
    best_rows = 1
    for rows in range(1, max_rows + 1):
        curve_threshold = (1.0 / target_bands) ** (1.0 / rows)
        if curve_threshold <= jaccard_threshold:
            best_rows = rows
            break
        best_rows = rows
    return target_bands, best_rows


class MinHashIndex:
    """MinHash LSH index with banding.

    Parameters
    ----------
    threshold:
        Braun-Blanquet similarity threshold of the search problem; converted
        to the equivalent Jaccard threshold internally.
    num_bands, rows_per_band:
        Banding parameters; when omitted they are derived from the threshold
        via :func:`banding_parameters`.
    seed:
        Hash seed.
    """

    def __init__(
        self,
        threshold: float,
        num_bands: int | None = None,
        rows_per_band: int | None = None,
        seed: int = 0,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = float(threshold)
        jaccard_threshold = jaccard_from_braun_blanquet(min(threshold, 0.999))
        if num_bands is None or rows_per_band is None:
            derived_bands, derived_rows = banding_parameters(max(jaccard_threshold, 0.01))
            num_bands = num_bands if num_bands is not None else derived_bands
            rows_per_band = rows_per_band if rows_per_band is not None else derived_rows
        if num_bands <= 0 or rows_per_band <= 0:
            raise ValueError("num_bands and rows_per_band must be positive")
        self._num_bands = int(num_bands)
        self._rows_per_band = int(rows_per_band)
        self._hasher = MinwiseHasher(self._num_bands * self._rows_per_band, seed)
        self._buckets: list[dict[tuple[int, ...], list[int]]] = [
            {} for _ in range(self._num_bands)
        ]
        self._vectors: list[frozenset[int]] = []

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def num_bands(self) -> int:
        return self._num_bands

    @property
    def rows_per_band(self) -> int:
        return self._rows_per_band

    @property
    def num_indexed(self) -> int:
        return len(self._vectors)

    def collision_probability(self, jaccard: float) -> float:
        """S-curve probability that a pair with the given Jaccard collides."""
        if not 0.0 <= jaccard <= 1.0:
            raise ValueError(f"jaccard must be in [0, 1], got {jaccard}")
        miss_one_band = 1.0 - jaccard**self._rows_per_band
        return 1.0 - miss_one_band**self._num_bands

    # ------------------------------------------------------------------ #
    # Build / query
    # ------------------------------------------------------------------ #

    def _band_keys(self, members: frozenset[int]) -> list[tuple[int, ...]]:
        signature = self._hasher.signature(sorted(members))
        keys = []
        for band in range(self._num_bands):
            start = band * self._rows_per_band
            keys.append(tuple(int(value) for value in signature[start : start + self._rows_per_band]))
        return keys

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset."""
        self._vectors = [frozenset(int(item) for item in members) for members in collection]
        self._buckets = [{} for _ in range(self._num_bands)]
        stats = BuildStats(num_vectors=len(self._vectors), repetitions=self._num_bands)
        for vector_id, members in enumerate(self._vectors):
            if not members:
                continue
            for band, key in enumerate(self._band_keys(members)):
                self._buckets[band].setdefault(key, []).append(vector_id)
                stats.total_filters += 1
        return stats

    def query(self, query: SetLike, mode: str = "first") -> tuple[int | None, QueryStats]:
        """Return a stored vector with Braun-Blanquet similarity >= threshold."""
        if mode not in ("first", "best"):
            raise ValueError(f"mode must be 'first' or 'best', got {mode!r}")
        query_set = frozenset(int(item) for item in query)
        stats = QueryStats()
        if not query_set or not self._vectors:
            return None, stats
        best_id: int | None = None
        best_similarity = -1.0
        evaluated: set[int] = set()
        for band, key in enumerate(self._band_keys(query_set)):
            stats.filters_generated += 1
            stats.repetitions_used += 1
            for candidate_id in self._buckets[band].get(key, []):
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
        """All distinct candidates sharing at least one band with the query."""
        query_set = frozenset(int(item) for item in query)
        stats = QueryStats()
        candidates: set[int] = set()
        if not query_set or not self._vectors:
            return candidates, stats
        for band, key in enumerate(self._band_keys(query_set)):
            stats.filters_generated += 1
            stats.repetitions_used += 1
            for candidate_id in self._buckets[band].get(key, []):
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
        """Batched queries (loop-based executor with query deduplication).

        ``batch_size`` is accepted for interface compatibility with the
        engine-backed indexes; the banding structure has no filter
        generation to amortise, so only duplicate queries are deduplicated.
        """
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
            f"MinHashIndex(threshold={self._threshold:g}, bands={self._num_bands}, "
            f"rows={self._rows_per_band}, indexed={len(self._vectors)})"
        )


def estimate_rho_minhash(b1_jaccard: float, b2_jaccard: float) -> float:
    """The textbook MinHash exponent ``ρ = log(b1) / log(b2)`` on Jaccard values."""
    if not 0.0 < b2_jaccard < b1_jaccard <= 1.0:
        raise ValueError("need 0 < b2 < b1 <= 1 for a meaningful exponent")
    if b1_jaccard == 1.0:
        return 0.0
    return math.log(b1_jaccard) / math.log(b2_jaccard)
