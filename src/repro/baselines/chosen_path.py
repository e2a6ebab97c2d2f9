"""The Chosen Path baseline (Christiani & Pagh, STOC 2017).

Chosen Path solves the (b1, b2)-approximate Braun-Blanquet similarity search
problem with query exponent ``ρ = log(b1)/log(b2)``, which is optimal in the
worst case.  Its construction is the template the paper builds on, with two
crucial differences (paper footnote 7):

* the sampling threshold is the *constant* ``1/(b1 |x|)``, independent of the
  item identity and of the recursion depth, and
* the recursion depth is the *fixed* ``k = ceil(log n / log(1/b2))``
  independent of which items ended up on the path, so Chosen Path cannot stop
  early on paths through rare items.

Because of these differences its performance is the same regardless of the
skew of the data distribution — which is exactly the gap the paper closes.
The implementation reuses the shared :class:`~repro.core.engine.FilterEngine`
with a :class:`~repro.core.thresholds.ConstantThreshold` policy, a disabled
product stopping rule and ``collect_at_max_depth=True``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.engine import FilterEngine
from repro.core.engine_index import EngineBackedIndex
from repro.core.thresholds import ConstantThreshold


def chosen_path_depth(num_vectors: int, b2: float) -> int:
    """The fixed recursion depth ``k = ceil(ln n / ln(1/b2))``."""
    if num_vectors <= 1:
        return 1
    if not 0.0 < b2 < 1.0:
        raise ValueError(f"b2 must be in (0, 1), got {b2}")
    return max(1, int(math.ceil(math.log(num_vectors) / math.log(1.0 / b2))))


class ChosenPathIndex(EngineBackedIndex):
    """Worst-case optimal Chosen Path similarity search (baseline).

    Parameters
    ----------
    dimension:
        Universe size ``d`` (needed to size internal arrays; the structure
        itself is distribution-oblivious).
    b1:
        Similarity threshold of sought-for vectors.
    b2:
        The "far" similarity level of the (b1, b2)-approximate problem; the
        fixed depth is ``ceil(ln n / ln(1/b2))``.
    repetitions:
        Number of independent structures (``None`` = ``ceil(log2 n) + 1``).
    max_paths_per_vector:
        Safety cap on filters per vector.
    seed:
        Hash seed.
    """

    def __init__(
        self,
        dimension: int,
        b1: float,
        b2: float,
        repetitions: int | None = None,
        max_paths_per_vector: int | None = 50_000,
        seed: int = 0,
    ):
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        if not 0.0 < b1 <= 1.0:
            raise ValueError(f"b1 must be in (0, 1], got {b1}")
        if not 0.0 < b2 < 1.0:
            raise ValueError(f"b2 must be in (0, 1), got {b2}")
        if b2 >= b1:
            raise ValueError(f"b2 ({b2}) must be smaller than b1 ({b1})")
        self._dimension = int(dimension)
        self._b1 = float(b1)
        self._b2 = float(b2)
        self._repetitions = repetitions
        self._max_paths_per_vector = max_paths_per_vector
        self._seed = int(seed)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Universe size ``d`` the structure was sized for."""
        return self._dimension

    @property
    def b1(self) -> float:
        return self._b1

    @property
    def b2(self) -> float:
        return self._b2

    @property
    def rho(self) -> float:
        """The worst-case exponent ``log(b1)/log(b2)`` of Chosen Path."""
        return math.log(self._b1) / math.log(self._b2)

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        depth = chosen_path_depth(num_vectors, self._b2)
        # The engine needs per-item probabilities only for its stopping rule,
        # which Chosen Path does not use; pass a uniform placeholder.
        placeholder = np.full(self._dimension, 0.5, dtype=np.float64)
        return FilterEngine(
            probabilities=placeholder,
            threshold_policy=ConstantThreshold(self._b1),
            acceptance_threshold=self._b1,
            num_vectors_hint=num_vectors,
            repetitions=self._repetitions,
            max_depth=depth,
            collect_at_max_depth=True,
            stop_product_enabled=False,
            max_paths_per_vector=self._max_paths_per_vector,
            seed=self._seed,
        )

    def _describe(self) -> str:
        return f"b1={self._b1:g}, b2={self._b2:g}"
