"""Binary set similarity measures.

All functions accept sets represented either as Python ``set``/``frozenset``
of item ids or as sorted sequences of item ids; the helpers normalise the
representation internally.  Vectors are *sparse*: only the indices of set
bits are passed around, never dense 0/1 arrays (the paper's dimension ``d``
can be huge while sets are small).
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

SetLike = Collection[int]


def _as_set(items: SetLike) -> frozenset[int]:
    """Normalise a collection of item ids to a frozenset."""
    if isinstance(items, (set, frozenset)):
        return frozenset(items)
    return frozenset(items)


def intersection_size(x: SetLike, q: SetLike) -> int:
    """Return ``|x ∩ q|``."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    if len(set_x) > len(set_q):
        set_x, set_q = set_q, set_x
    return sum(1 for item in set_x if item in set_q)


def braun_blanquet(x: SetLike, q: SetLike) -> float:
    """Braun-Blanquet similarity ``|x ∩ q| / max(|x|, |q|)``.

    This is the similarity measure used throughout the paper.  Returns 0 for
    a pair of empty sets (by convention).
    """
    set_x = _as_set(x)
    set_q = _as_set(q)
    denominator = max(len(set_x), len(set_q))
    if denominator == 0:
        return 0.0
    return intersection_size(set_x, set_q) / denominator


def jaccard(x: SetLike, q: SetLike) -> float:
    """Jaccard similarity ``|x ∩ q| / |x ∪ q|``.  0 for two empty sets."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    inter = intersection_size(set_x, set_q)
    union = len(set_x) + len(set_q) - inter
    if union == 0:
        return 0.0
    return inter / union


def dice(x: SetLike, q: SetLike) -> float:
    """Sørensen-Dice similarity ``2|x ∩ q| / (|x| + |q|)``.  0 for empty sets."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    total = len(set_x) + len(set_q)
    if total == 0:
        return 0.0
    return 2.0 * intersection_size(set_x, set_q) / total


def overlap_coefficient(x: SetLike, q: SetLike) -> float:
    """Overlap (Szymkiewicz-Simpson) coefficient ``|x ∩ q| / min(|x|, |q|)``."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    denominator = min(len(set_x), len(set_q))
    if denominator == 0:
        return 0.0
    return intersection_size(set_x, set_q) / denominator


def cosine(x: SetLike, q: SetLike) -> float:
    """Cosine similarity of the binary indicator vectors."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    denominator = math.sqrt(len(set_x) * len(set_q))
    if denominator == 0:
        return 0.0
    return intersection_size(set_x, set_q) / denominator


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` elementwise, 0 where the denominator is 0.

    In every measure below a zero denominator means an empty set, so the
    numerator is 0 too and dividing by 1 there yields the scalar's 0.0.
    """
    return numerator / np.maximum(denominator, 1)


#: The five measures above as functions of ``(|x ∩ q|, |x|, |q|)`` over
#: ``int64`` arrays, keyed by the scalar function.  Each applies its scalar
#: formula elementwise in the same order of operations, so every value equals
#: the scalar function's bit for bit (counts stay far below 2**53).
FROM_COUNTS: dict[Callable[..., float], Callable[..., np.ndarray]] = {
    braun_blanquet: lambda common, x, q: _ratio(common, np.maximum(x, q)),
    jaccard: lambda common, x, q: _ratio(common, x + q - common),
    dice: lambda common, x, q: _ratio(2.0 * common, x + q),
    overlap_coefficient: lambda common, x, q: _ratio(common, np.minimum(x, q)),
    cosine: lambda common, x, q: _ratio(common, np.sqrt(x * q)),
}


def hamming_distance(x: SetLike, q: SetLike) -> int:
    """Hamming distance between the binary indicator vectors, ``|x Δ q|``."""
    set_x = _as_set(x)
    set_q = _as_set(q)
    inter = intersection_size(set_x, set_q)
    return len(set_x) + len(set_q) - 2 * inter


def pearson_binary(x: SetLike, q: SetLike, dimension: int) -> float:
    """Pearson correlation between the binary indicator vectors in dimension ``d``.

    Unlike the set-only measures, Pearson correlation needs the ambient
    dimension because the 0-coordinates contribute to the means.

    Parameters
    ----------
    x, q:
        The two sets of set-bit indices.
    dimension:
        The ambient dimension ``d``; must be at least the largest index + 1
        and strictly positive.
    """
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    set_x = _as_set(x)
    set_q = _as_set(q)
    if set_x and max(set_x) >= dimension:
        raise ValueError("set x contains an index outside the ambient dimension")
    if set_q and max(set_q) >= dimension:
        raise ValueError("set q contains an index outside the ambient dimension")
    size_x = len(set_x)
    size_q = len(set_q)
    mean_x = size_x / dimension
    mean_q = size_q / dimension
    variance_x = mean_x * (1.0 - mean_x)
    variance_q = mean_q * (1.0 - mean_q)
    if variance_x == 0.0 or variance_q == 0.0:
        return 0.0
    covariance = intersection_size(set_x, set_q) / dimension - mean_x * mean_q
    return covariance / math.sqrt(variance_x * variance_q)


def similarity_matrix(
    sets: Sequence[SetLike],
    queries: Sequence[SetLike] | None = None,
    measure: str = "braun_blanquet",
) -> np.ndarray:
    """Dense matrix of pairwise similarities.

    Parameters
    ----------
    sets:
        Row collection of sets.
    queries:
        Column collection; defaults to ``sets`` (symmetric self-similarity).
    measure:
        One of ``braun_blanquet``, ``jaccard``, ``dice``, ``overlap``,
        ``cosine``.

    Notes
    -----
    Intended for small collections (tests, examples, exact verification); the
    similarity-search indexes exist precisely so that this quadratic
    computation is avoided at scale.
    """
    from repro.similarity.predicates import measure_by_name

    function = measure_by_name(measure)
    columns = sets if queries is None else queries
    normalised_rows = [_as_set(row) for row in sets]
    normalised_columns = [_as_set(column) for column in columns]
    matrix = np.zeros((len(normalised_rows), len(normalised_columns)), dtype=np.float64)
    for row_index, row in enumerate(normalised_rows):
        for column_index, column in enumerate(normalised_columns):
            matrix[row_index, column_index] = function(row, column)
    return matrix


def weight_histogram(sets: Iterable[SetLike]) -> dict[int, int]:
    """Histogram of set sizes (Hamming weights) over a collection."""
    histogram: dict[int, int] = {}
    for items in sets:
        size = len(_as_set(items))
        histogram[size] = histogram.get(size, 0) + 1
    return histogram
