"""Seed management for reproducible randomized data structures.

Every randomized component in the library (path hashers, dataset generators,
baseline indexes) takes an explicit integer seed.  This module centralises the
way seeds are derived from each other so that, for instance, an index built
with seed 7 always draws the same hash functions regardless of the order in
which its sub-components are constructed.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

_MASK_63 = (1 << 63) - 1


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a new 63-bit seed from ``base_seed`` and a sequence of labels.

    The derivation is a SHA-256 hash of the textual representation of the
    base seed and labels, so it is stable across processes and Python
    versions (unlike the built-in ``hash``).

    Parameters
    ----------
    base_seed:
        The parent seed.
    labels:
        Arbitrary hashable labels (strings, integers) distinguishing the
        derived stream, e.g. ``derive_seed(seed, "level", 3)``.

    Returns
    -------
    int
        A non-negative integer strictly below ``2**63``.
    """
    digest = hashlib.sha256()
    digest.update(repr(int(base_seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little") & _MASK_63


def split_seed(base_seed: int, count: int, label: str = "split") -> list[int]:
    """Derive ``count`` independent seeds from ``base_seed``.

    Parameters
    ----------
    base_seed:
        The parent seed.
    count:
        Number of child seeds to derive.  Must be non-negative.
    label:
        Namespace label so different call sites do not collide.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [derive_seed(base_seed, label, index) for index in range(count)]


class RandomSource:
    """A seeded random source wrapping :class:`numpy.random.Generator`.

    The class exists so that components can pass around a single object that
    yields both numpy generators (for vectorised sampling) and derived child
    seeds (for constructing further reproducible components).
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._generator = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (shared, stateful)."""
        return self._generator

    def child(self, *labels: object) -> "RandomSource":
        """Return a new independent :class:`RandomSource` derived by labels."""
        return RandomSource(derive_seed(self._seed, *labels))

    def fresh_generator(self, *labels: object) -> np.random.Generator:
        """Return a new numpy generator seeded by the derived labels."""
        return np.random.default_rng(derive_seed(self._seed, *labels))

    def integers(
        self, low: int, high: int, size: int | None = None
    ) -> np.int64 | np.ndarray:
        """Sample integers in ``[low, high)`` from the shared generator."""
        return self._generator.integers(low, high, size=size)

    def uniform(self, size: int | None = None) -> float | np.ndarray:
        """Sample uniform floats in ``[0, 1)`` from the shared generator."""
        return self._generator.random(size)

    def stream(self, label: str = "stream") -> Iterator[int]:
        """Yield an endless stream of derived seeds."""
        index = 0
        while True:
            yield derive_seed(self._seed, label, index)
            index += 1

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed})"
