"""The :class:`SetCollection` container used by indexes and analyses.

A :class:`SetCollection` is an immutable, ordered collection of sets over an
integer universe, together with cached empirical statistics (item frequencies,
set-size distribution).  It is the common currency between the data
generators, the search indexes, the join algorithms and the analysis code.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.distributions import ItemDistribution


class SetCollection:
    """An ordered, immutable collection of sets over the universe ``[0, d)``.

    Parameters
    ----------
    sets:
        Iterable of item-id collections.  Each set is stored as a frozenset.
    dimension:
        Universe size ``d``.  If omitted it is inferred as one plus the
        largest item id present (and 0 for an empty collection).
    """

    def __init__(self, sets: Iterable[Iterable[int]], dimension: int | None = None):
        self._sets: list[frozenset[int]] = [
            frozenset(int(item) for item in members) for members in sets
        ]
        inferred = 0
        for members in self._sets:
            if members:
                largest = max(members)
                if largest + 1 > inferred:
                    inferred = largest + 1
                if min(members) < 0:
                    raise ValueError("item ids must be non-negative")
        if dimension is None:
            dimension = inferred
        elif dimension < inferred:
            raise ValueError(
                f"dimension {dimension} is smaller than required by the data ({inferred})"
            )
        self._dimension = int(dimension)
        self._frequencies: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self._sets)

    def __getitem__(self, index: int) -> frozenset[int]:
        return self._sets[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetCollection):
            return NotImplemented
        return (  # noqa: SLF001 - same-class comparison
            self._dimension == other._dimension and self._sets == other._sets
        )

    def __repr__(self) -> str:
        return (
            f"SetCollection(num_sets={len(self._sets)}, dimension={self._dimension}, "
            f"average_size={self.average_size():.2f})"
        )

    # ------------------------------------------------------------------ #
    # Basic statistics
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Universe size ``d``."""
        return self._dimension

    @property
    def sets(self) -> Sequence[frozenset[int]]:
        """The underlying list of frozensets (do not mutate)."""
        return self._sets

    def sizes(self) -> np.ndarray:
        """Array of set sizes (Hamming weights)."""
        return np.asarray([len(members) for members in self._sets], dtype=np.int64)

    def average_size(self) -> float:
        """Mean set size; 0.0 for an empty collection."""
        if not self._sets:
            return 0.0
        return float(self.sizes().mean())

    def item_counts(self) -> np.ndarray:
        """Occurrence count of every item in the universe."""
        counts = np.zeros(self._dimension, dtype=np.int64)
        for members in self._sets:
            for item in members:
                counts[item] += 1
        return counts

    def item_frequencies(self) -> np.ndarray:
        """Empirical item frequencies ``p_i = count_i / n`` (cached)."""
        if self._frequencies is None:
            if not self._sets:
                self._frequencies = np.zeros(self._dimension, dtype=np.float64)
            else:
                self._frequencies = self.item_counts() / float(len(self._sets))
            self._frequencies.setflags(write=False)
        return self._frequencies

    def empirical_distribution(self) -> ItemDistribution:
        """The :class:`ItemDistribution` with the empirical frequencies.

        This is the standard way to instantiate the paper's data structures
        on real data where the true ``p_i`` are unknown (Section 9 notes the
        estimation approach).
        """
        return ItemDistribution(np.clip(self.item_frequencies(), 0.0, 1.0))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def subset(self, indices: Sequence[int]) -> "SetCollection":
        """New collection containing the sets at the given positions."""
        return SetCollection([self._sets[index] for index in indices], dimension=self._dimension)

    def remap_by_frequency(self, descending: bool = True) -> tuple["SetCollection", np.ndarray]:
        """Relabel items so item 0 is the most (or least) frequent.

        Returns the relabelled collection and the permutation array ``perm``
        mapping old item id to new item id.  Useful for prefix filtering
        (ascending order) and for the Figure 2 frequency plots (descending).
        """
        frequencies = self.item_frequencies()
        order = np.argsort(-frequencies if descending else frequencies, kind="stable")
        permutation = np.empty(self._dimension, dtype=np.int64)
        permutation[order] = np.arange(self._dimension)
        remapped = [
            frozenset(int(permutation[item]) for item in members) for members in self._sets
        ]
        return SetCollection(remapped, dimension=self._dimension), permutation

    def concatenate(self, other: "SetCollection") -> "SetCollection":
        """Concatenate two collections over the union of their universes."""
        dimension = max(self._dimension, other.dimension)
        return SetCollection(list(self._sets) + list(other.sets), dimension=dimension)

    @classmethod
    def from_distribution(
        cls, distribution: ItemDistribution, count: int, seed: int
    ) -> "SetCollection":
        """Sample a collection of ``count`` vectors from a product distribution."""
        from repro.data.distributions import sample_dataset

        vectors = sample_dataset(distribution, count, seed)
        return cls(vectors, dimension=distribution.dimension)
