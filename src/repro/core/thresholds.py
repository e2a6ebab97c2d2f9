"""Threshold (sampling probability) policies for the path construction.

Section 3 of the paper parameterises the recursive path construction by a
function ``s(x, j, i)`` giving the probability with which set bit ``i`` of
vector ``x`` is appended to a path of length ``j``.  The three policies
implemented here correspond to:

* :class:`AdversarialThreshold` — Section 5: ``s(x, j, i) = 1/(b1 |x| − j)``;
  the threshold ignores the item identity and only depends on the vector
  size and the current depth.
* :class:`CorrelatedThreshold` — Section 6:
  ``s(x, j, i) = (1 + δ)/(p̂_i m − j)`` with ``p̂_i = p_i (1 − α) + α``,
  ``m = Σ_i p_i`` (the paper's ``C log n``) and ``δ = 3/sqrt(α C)``;
  rare items (small ``p̂_i``) are sampled aggressively.
* :class:`ConstantThreshold` — the original Chosen Path policy
  ``s(x, j, i) = 1/(b1 |x|)``, used by the baseline and by ablations.

All policies clamp the returned probabilities to ``[0, 1]``: the paper's
analysis assumes the denominators stay positive (large ``C``); an
implementation must behave sensibly outside that regime too.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np


class BoundThreshold(abc.ABC):
    """A threshold policy specialised to one concrete vector."""

    @abc.abstractmethod
    def sampling_probabilities(self, level: int, items: np.ndarray) -> np.ndarray:
        """Sampling probability for appending each of ``items`` at depth ``level``."""


class BatchBoundThreshold(abc.ABC):
    """A threshold policy specialised to a whole batch of vectors at once.

    The batch is described by its vectors' items concatenated in CSR form;
    one :meth:`item_probabilities` call per recursion level replaces a
    Python-level ``sampling_probabilities`` call per vector, with the same
    elementwise float arithmetic (results are bit-identical to binding each
    vector on its own).  The probabilities depend on the level only, so they
    are computed once per level and shared by every repetition that
    generates from the same batch.
    """

    def __init__(self) -> None:
        self._by_level: dict[int, np.ndarray] = {}

    def item_probabilities(self, level: int) -> np.ndarray:
        """Sampling probability at depth ``level``, parallel to the bound items.

        The returned array is shared between calls; treat it as read-only.
        """
        probabilities = self._by_level.get(level)
        if probabilities is None:
            probabilities = self._by_level[level] = self._item_probabilities(level)
            probabilities.flags.writeable = False
        return probabilities

    @abc.abstractmethod
    def _item_probabilities(self, level: int) -> np.ndarray:
        """Compute :meth:`item_probabilities` for one level."""


class ThresholdPolicy(abc.ABC):
    """Factory of per-vector :class:`BoundThreshold` objects."""

    @abc.abstractmethod
    def bind(self, items: Sequence[int]) -> BoundThreshold:
        """Specialise the policy to the vector with the given set bits."""

    @abc.abstractmethod
    def bind_batch(self, items: np.ndarray, item_offsets: np.ndarray) -> BatchBoundThreshold:
        """Specialise the policy to many vectors given as one CSR item array.

        Vector ``k`` owns ``items[item_offsets[k]:item_offsets[k + 1]]``.
        """

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        return type(self).__name__


class _UniformBound(BoundThreshold):
    """Bound threshold whose probability depends only on the depth."""

    def __init__(self, denominator_base: float, subtract_level: bool):
        self._denominator_base = denominator_base
        self._subtract_level = subtract_level

    def sampling_probabilities(self, level: int, items: np.ndarray) -> np.ndarray:
        denominator = self._denominator_base - (level if self._subtract_level else 0.0)
        if denominator <= 0.0:
            probability = 1.0
        else:
            probability = min(1.0, 1.0 / denominator)
        return np.full(len(items), probability, dtype=np.float64)


class _UniformBatchBound(BatchBoundThreshold):
    """:class:`_UniformBound` for a batch: one denominator base per vector."""

    def __init__(self, b1: float, item_counts: np.ndarray, subtract_level: bool):
        super().__init__()
        self._item_counts = item_counts
        self._denominator_bases = b1 * item_counts.astype(np.float64)
        self._subtract_level = subtract_level

    def _item_probabilities(self, level: int) -> np.ndarray:
        denominators = self._denominator_bases - (level if self._subtract_level else 0.0)
        # min(1, 1/d) for d > 0 and 1 for d <= 0, as one division: both
        # branches equal 1 / max(d, 1) exactly.
        return np.repeat(1.0 / np.maximum(denominators, 1.0), self._item_counts)


class AdversarialThreshold(ThresholdPolicy):
    """The Theorem 2 policy ``s(x, j, i) = 1/(b1 |x| − j)``.

    Parameters
    ----------
    b1:
        Braun-Blanquet similarity threshold of the search problem.
    """

    def __init__(self, b1: float):
        if not 0.0 < b1 <= 1.0:
            raise ValueError(f"b1 must be in (0, 1], got {b1}")
        self._b1 = float(b1)

    @property
    def b1(self) -> float:
        return self._b1

    def bind(self, items: Sequence[int]) -> BoundThreshold:
        return _UniformBound(self._b1 * len(items), subtract_level=True)

    def bind_batch(self, items: np.ndarray, item_offsets: np.ndarray) -> BatchBoundThreshold:
        return _UniformBatchBound(
            self._b1, item_offsets[1:] - item_offsets[:-1], subtract_level=True
        )

    def describe(self) -> str:
        return f"adversarial(b1={self._b1:g})"


class ConstantThreshold(ThresholdPolicy):
    """The original Chosen Path policy ``s(x, j, i) = 1/(b1 |x|)``.

    The level is *not* subtracted: this is the constant-per-vector threshold
    the paper contrasts against (footnote 7).  Used by the baseline index and
    by the threshold ablation bench.
    """

    def __init__(self, b1: float):
        if not 0.0 < b1 <= 1.0:
            raise ValueError(f"b1 must be in (0, 1], got {b1}")
        self._b1 = float(b1)

    @property
    def b1(self) -> float:
        return self._b1

    def bind(self, items: Sequence[int]) -> BoundThreshold:
        return _UniformBound(self._b1 * len(items), subtract_level=False)

    def bind_batch(self, items: np.ndarray, item_offsets: np.ndarray) -> BatchBoundThreshold:
        return _UniformBatchBound(
            self._b1, item_offsets[1:] - item_offsets[:-1], subtract_level=False
        )

    def describe(self) -> str:
        return f"constant(b1={self._b1:g})"


class _CorrelatedBound(BoundThreshold):
    """Bound threshold for the correlated policy: per-item denominators."""

    def __init__(self, denominators: np.ndarray, numerator: float, item_position: dict[int, int]):
        self._denominators = denominators
        self._numerator = numerator
        self._item_position = item_position

    def sampling_probabilities(self, level: int, items: np.ndarray) -> np.ndarray:
        positions = np.fromiter(
            (self._item_position[int(item)] for item in items), dtype=np.int64, count=len(items)
        )
        return _correlated_probabilities(self._denominators[positions], self._numerator, level)


def _correlated_probabilities(
    denominators: np.ndarray, numerator: float, level: int
) -> np.ndarray:
    """``numerator / (denominators - level)`` clamped to ``[0, 1]``, elementwise."""
    shifted = denominators - float(level)
    probabilities = np.where(shifted <= 0.0, 1.0, numerator / np.maximum(shifted, 1e-300))
    return np.clip(probabilities, 0.0, 1.0)


class _CorrelatedBatchBound(BatchBoundThreshold):
    """:class:`_CorrelatedBound` for a batch: denominators parallel to the items."""

    def __init__(self, denominators: np.ndarray, numerator: float):
        super().__init__()
        self._denominators = denominators
        self._numerator = numerator

    def _item_probabilities(self, level: int) -> np.ndarray:
        return _correlated_probabilities(self._denominators, self._numerator, level)


class CorrelatedThreshold(ThresholdPolicy):
    """The Theorem 1 policy ``s(x, j, i) = (1 + δ)/(p̂_i · m − j)``.

    Parameters
    ----------
    probabilities:
        The item-level probabilities ``p_i`` of the data distribution.
    alpha:
        Correlation level of the queries.
    num_vectors:
        Dataset size ``n`` (used to derive ``C = m / ln n`` for the default
        ``δ``).
    boost_delta:
        Explicit ``δ``; ``None`` uses the paper's ``3 / sqrt(α C)``.
    """

    def __init__(
        self,
        probabilities: np.ndarray | Sequence[float],
        alpha: float,
        num_vectors: int,
        boost_delta: float | None = None,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if num_vectors <= 0:
            raise ValueError(f"num_vectors must be positive, got {num_vectors}")
        self._probabilities = np.asarray(probabilities, dtype=np.float64)
        if self._probabilities.ndim != 1 or self._probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if np.any(self._probabilities < 0.0) or np.any(self._probabilities > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        self._alpha = float(alpha)
        self._num_vectors = int(num_vectors)
        self._expected_size = float(self._probabilities.sum())
        if boost_delta is None:
            boost_delta = self.default_boost_delta(
                self._alpha, self._expected_size, self._num_vectors
            )
        self._boost_delta = float(boost_delta)
        self._conditional = self._probabilities * (1.0 - self._alpha) + self._alpha

    @staticmethod
    def default_boost_delta(alpha: float, expected_size: float, num_vectors: int) -> float:
        """The paper's ``δ = 3 / sqrt(α C)`` with ``C = m / ln n``.

        Falls back to 0 when the expected size is too small for the formula
        to be meaningful (``C <= 0``).
        """
        log_n = math.log(max(num_vectors, 2))
        capital_c = expected_size / log_n if log_n > 0 else 0.0
        if capital_c <= 0.0 or alpha <= 0.0:
            return 0.0
        return 3.0 / math.sqrt(alpha * capital_c)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def boost_delta(self) -> float:
        return self._boost_delta

    @property
    def expected_size(self) -> float:
        """The paper's ``C log n = Σ_i p_i``."""
        return self._expected_size

    @property
    def conditional_probabilities(self) -> np.ndarray:
        """``p̂_i = p_i (1 − α) + α`` for every item of the universe."""
        return self._conditional

    def bind(self, items: Sequence[int]) -> BoundThreshold:
        item_list = [int(item) for item in items]
        if item_list and (min(item_list) < 0 or max(item_list) >= self._probabilities.size):
            raise ValueError("vector contains an item outside the universe")
        denominators = self._conditional[np.asarray(item_list, dtype=np.int64)] * (
            self._expected_size
        ) if item_list else np.empty(0, dtype=np.float64)
        item_position = {item: position for position, item in enumerate(item_list)}
        return _CorrelatedBound(denominators, 1.0 + self._boost_delta, item_position)

    def bind_batch(self, items: np.ndarray, item_offsets: np.ndarray) -> BatchBoundThreshold:
        if items.size and (int(items.min()) < 0 or int(items.max()) >= self._probabilities.size):
            raise ValueError("vector contains an item outside the universe")
        denominators = self._conditional[items] * self._expected_size
        return _CorrelatedBatchBound(denominators, 1.0 + self._boost_delta)

    def describe(self) -> str:
        return (
            f"correlated(alpha={self._alpha:g}, delta={self._boost_delta:.3f}, "
            f"m={self._expected_size:.1f})"
        )
