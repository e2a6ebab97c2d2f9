"""Shared fixtures for the test suite.

Fixtures are deliberately small (hundreds of vectors at most, few
repetitions) so that the whole suite runs in well under a minute; the
benchmark harness is where larger instances live.

All randomness is seeded through :mod:`repro.testing`, the deterministic
seed registry shared with ``benchmarks/conftest.py``, so test and benchmark
datasets stay reproducible from a single source of truth (override the base
with the ``REPRO_SEED_BASE`` environment variable).
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.data.distributions import ItemDistribution
from repro.data.families import two_block_probabilities, uniform_probabilities
from repro.hashing.pairwise import MERSENNE_PRIME
from repro.testing import base_seed, rng_for


@pytest.fixture(scope="session")
def deterministic_seed() -> int:
    """The base seed every dataset fixture derives from (default 0)."""
    return base_seed()


@pytest.fixture(scope="session")
def skewed_distribution() -> ItemDistribution:
    """A small two-block skewed distribution (frequent block + rare tail)."""
    probabilities = np.concatenate(
        [
            two_block_probabilities(40, 0.30, 0.30 / 8.0),
            np.full(400, 0.02),
        ]
    )
    return ItemDistribution(probabilities)


@pytest.fixture(scope="session")
def uniform_distribution() -> ItemDistribution:
    """A no-skew distribution with comparable expected set size."""
    return ItemDistribution(uniform_probabilities(150, 0.10))


@pytest.fixture(scope="session")
def skewed_dataset(skewed_distribution: ItemDistribution) -> list[frozenset[int]]:
    """150 vectors sampled from the skewed distribution (deterministic)."""
    vectors = skewed_distribution.sample_many(150, rng_for("tests:skewed-dataset"))
    return [vector if vector else frozenset({0}) for vector in vectors]


@pytest.fixture(scope="session")
def uniform_dataset(uniform_distribution: ItemDistribution) -> list[frozenset[int]]:
    """150 vectors sampled from the uniform distribution (deterministic)."""
    vectors = uniform_distribution.sample_many(150, rng_for("tests:uniform-dataset"))
    return [vector if vector else frozenset({0}) for vector in vectors]


@pytest.fixture(scope="session")
def hash_edge_keys() -> list[int]:
    """uint64 keys at the edges of the Mersenne-prime hash arithmetic.

    Around ``p = 2^61 - 1`` and its double, the powers ``2^61`` and
    ``2^62`` just above them, and both ends and the middle of the uint64
    range.
    """
    p = MERSENNE_PRIME
    return [0, 1, p - 1, p, p + 1, 2 * p, 1 << 61, 1 << 62, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]


@pytest.fixture(scope="session")
def hash_grid(hash_edge_keys: list[int]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Keys and ``(a, b)`` pairs at the bounds of the lazily reduced hash.

    The keys are the edge keys plus 5000 random ones; ``a`` runs over the
    values whose 32-bit halves are smallest and largest, ``b`` over both
    ends of its range.
    """
    random_keys = rng_for("tests:hash-grid").integers(0, 2**64, size=5000, dtype=np.uint64)
    keys = np.concatenate([np.array(hash_edge_keys, dtype=np.uint64), random_keys])
    p = MERSENNE_PRIME
    pairs = list(
        product([1, 2**32 - 1, 2**32, 2**32 + 1, p - 2, p - 1], [0, 1, p - 1])
    )
    return keys, pairs
