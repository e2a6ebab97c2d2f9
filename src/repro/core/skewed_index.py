"""The adversarial-query skew-adaptive index (Theorem 2).

:class:`SkewAdaptiveIndex` answers Braun-Blanquet similarity search queries
against a dataset sampled from a known product distribution
``D[p_1, ..., p_d]``.  The sampling thresholds follow Section 5:
``s(x, j, i) = 1/(b1 |x| − j)``, the recursion stops once the probability
product along a path drops below ``1/n``, and the skew of the distribution
enters through that stopping rule — paths through rare items terminate after
very few steps, while paths through frequent items must grow long before
their collision probability with uncorrelated vectors is under control.

Typical usage::

    from repro import SkewAdaptiveIndex, ItemDistribution

    distribution = ItemDistribution(probabilities)
    index = SkewAdaptiveIndex(distribution, b1=0.5, seed=7)
    index.build(dataset)                      # iterable of item-id sets
    match, stats = index.query(query_set)     # index into dataset, or None
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.engine import FilterEngine
from repro.core.engine_index import EngineBackedIndex, SetLike
from repro.core.thresholds import AdversarialThreshold
from repro.data.distributions import ItemDistribution


class SkewAdaptiveIndex(EngineBackedIndex):
    """Skew-adaptive set similarity search for adversarial queries.

    Parameters
    ----------
    distribution:
        The item-level distribution the dataset is drawn from, either an
        :class:`ItemDistribution` or a raw probability array.  For real data
        with unknown probabilities use
        :meth:`SkewAdaptiveIndex.from_collection`, which plugs in empirical
        frequencies (Section 9 of the paper).
    b1:
        Braun-Blanquet similarity threshold: a query returns a vector ``x``
        with ``B(x, q) >= b1`` when one exists (with constant probability per
        the paper's guarantee, boosted by repetitions).
    config:
        Full configuration object; when given, ``b1`` and ``seed`` arguments
        are ignored.
    seed:
        Hash-function seed.
    """

    def __init__(
        self,
        distribution: ItemDistribution | Sequence[float] | np.ndarray,
        b1: float = 0.5,
        config: SkewAdaptiveIndexConfig | None = None,
        seed: int = 0,
    ):
        if config is None:
            config = SkewAdaptiveIndexConfig(b1=b1, seed=seed)
        self._config = config
        if isinstance(distribution, ItemDistribution):
            self._distribution = distribution
        else:
            self._distribution = ItemDistribution(np.asarray(distribution, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> SkewAdaptiveIndexConfig:
        return self._config

    @property
    def distribution(self) -> ItemDistribution:
        return self._distribution

    @property
    def b1(self) -> float:
        return self._config.b1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_collection(
        cls,
        collection: Iterable[SetLike],
        b1: float = 0.5,
        config: SkewAdaptiveIndexConfig | None = None,
        seed: int = 0,
        dimension: int | None = None,
    ) -> "SkewAdaptiveIndex":
        """Build an index over a dataset using its empirical item frequencies.

        The collection is materialised, empirical frequencies are computed,
        the index is constructed with those as the distribution, and the data
        is indexed immediately.
        """
        from repro.data.datasets import SetCollection

        if isinstance(collection, SetCollection):
            materialised = collection
        else:
            materialised = SetCollection(collection, dimension=dimension)
        index = cls(materialised.empirical_distribution(), b1=b1, config=config, seed=seed)
        index.build(materialised)
        return index

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        return FilterEngine(
            probabilities=self._distribution.probabilities,
            threshold_policy=AdversarialThreshold(self._config.b1),
            acceptance_threshold=self._config.b1,
            num_vectors_hint=num_vectors,
            repetitions=self._config.repetitions,
            max_depth=self._config.max_depth,
            collect_at_max_depth=False,
            stop_product_enabled=True,
            max_paths_per_vector=self._config.max_paths_per_vector,
            seed=self._config.seed,
        )

    def _describe(self) -> str:
        return f"b1={self._config.b1:g}, dimension={self._distribution.dimension}"
