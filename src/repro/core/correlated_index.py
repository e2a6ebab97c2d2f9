"""The correlated-query skew-adaptive index (Theorem 1).

:class:`CorrelatedIndex` is the variant of the data structure for the
"planted" setting: queries are promised to be α-correlated with some dataset
vector (Definition 3).  Knowing the correlation level lets the structure
weight its path choices by the conditional probability
``p̂_i = Pr[x_i = 1 | q_i = 1] = p_i (1 − α) + α`` (Section 6): a shared rare
item is much stronger evidence of correlation than a shared frequent item, so
rare items are sampled far more aggressively.

The acceptance rule follows Lemma 10: an α-correlated pair has Braun-Blanquet
similarity at least ``α/1.3`` with high probability, while uncorrelated pairs
stay below ``α/1.5``, so candidates are reported at threshold ``α/1.3``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import CorrelatedIndexConfig
from repro.core.engine import FilterEngine
from repro.core.engine_index import EngineBackedIndex
from repro.core.thresholds import CorrelatedThreshold
from repro.data.distributions import ItemDistribution


class CorrelatedIndex(EngineBackedIndex):
    """Skew-adaptive similarity search for α-correlated queries.

    Parameters
    ----------
    distribution:
        The item-level distribution (must be the true/estimated distribution
        of the data; the thresholds depend on it).
    alpha:
        Correlation level of the queries.
    config:
        Full configuration; when given, ``alpha`` and ``seed`` are ignored.
    seed:
        Hash-function seed.
    """

    def __init__(
        self,
        distribution: ItemDistribution | Sequence[float] | np.ndarray,
        alpha: float = 0.5,
        config: CorrelatedIndexConfig | None = None,
        seed: int = 0,
    ):
        if config is None:
            config = CorrelatedIndexConfig(alpha=alpha, seed=seed)
        self._config = config
        if isinstance(distribution, ItemDistribution):
            self._distribution = distribution
        else:
            self._distribution = ItemDistribution(np.asarray(distribution, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> CorrelatedIndexConfig:
        return self._config

    @property
    def distribution(self) -> ItemDistribution:
        return self._distribution

    @property
    def alpha(self) -> float:
        return self._config.alpha

    @property
    def acceptance_threshold(self) -> float:
        """The Braun-Blanquet threshold ``α / 1.3`` used to report candidates."""
        return self._config.acceptance_threshold

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        threshold_policy = CorrelatedThreshold(
            probabilities=self._distribution.probabilities,
            alpha=self._config.alpha,
            num_vectors=num_vectors,
            boost_delta=self._config.boost_delta,
        )
        return FilterEngine(
            probabilities=self._distribution.probabilities,
            threshold_policy=threshold_policy,
            acceptance_threshold=self._config.acceptance_threshold,
            num_vectors_hint=num_vectors,
            repetitions=self._config.repetitions,
            max_depth=self._config.max_depth,
            collect_at_max_depth=False,
            stop_product_enabled=True,
            max_paths_per_vector=self._config.max_paths_per_vector,
            seed=self._config.seed,
        )

    def threshold_policy(self) -> CorrelatedThreshold:
        """The bound threshold policy (exposed for inspection and ablations)."""
        policy = self._require_built().threshold_policy
        assert isinstance(policy, CorrelatedThreshold)
        return policy

    def _describe(self) -> str:
        return f"alpha={self._config.alpha:g}, dimension={self._distribution.dimension}"
