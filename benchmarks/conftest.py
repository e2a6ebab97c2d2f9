"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures (or
an ablation / empirical validation of them).  Conventions:

* each bench prints the paper-style table or series to stdout (run pytest
  with ``-s`` to see it) and records the headline numbers in
  ``benchmark.extra_info`` so they end up in the pytest-benchmark JSON;
* datasets are synthetic and scaled so a full ``pytest benchmarks/
  --benchmark-only`` run completes in a few minutes on a laptop;
* all randomness is seeded through :mod:`repro.testing`, the deterministic
  seed registry shared with ``tests/conftest.py``, so CI benchmark runs are
  reproducible (override the base with ``REPRO_SEED_BASE``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.data.distributions import ItemDistribution
from repro.data.families import two_block_probabilities, uniform_probabilities
from repro.testing import base_seed, rng_for


def warm_up(*actions: Callable[[], object], repeats: int = 1) -> None:
    """Run each action before the timed region to exclude one-time costs.

    The first execution of a query or build surface pays for hash-level
    instantiation, CSR store materialisation and probe-table construction.
    Benchmarks measure steady state, so every timed
    code path must be exercised once through this helper first; passing the
    surfaces as thunks keeps the call sites explicit about exactly which
    paths are warmed.
    """
    for _ in range(repeats):
        for action in actions:
            action()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--drop-caches",
        action="store_true",
        default=False,
        help=(
            "sync and drop the kernel page cache (/proc/sys/vm/drop_caches) "
            "before each cold-start scenario so 'cold' really means cold "
            "disk, not warm page cache.  Needs root and Linux; intended for "
            "off-CI acceptance runs of benchmarks/bench_cold_start.py "
            "(see docs/benchmarks.md)."
        ),
    )


@pytest.fixture(scope="session")
def drop_caches(request: pytest.FixtureRequest) -> bool:
    """Whether ``--drop-caches`` was passed (see ``pytest_addoption``)."""
    return bool(request.config.getoption("--drop-caches"))


@pytest.fixture(scope="session")
def deterministic_seed() -> int:
    """The base seed every dataset fixture derives from (default 0)."""
    return base_seed()


@pytest.fixture(scope="session")
def bench_skewed_distribution() -> ItemDistribution:
    """Two-block skewed distribution used by the empirical benches."""
    probabilities = np.concatenate(
        [
            two_block_probabilities(60, 0.25, 0.25 / 8.0),
            np.full(1200, 0.01),
        ]
    )
    return ItemDistribution(probabilities)


@pytest.fixture(scope="session")
def bench_uniform_distribution() -> ItemDistribution:
    """No-skew distribution with a comparable expected set size."""
    return ItemDistribution(uniform_probabilities(250, 0.08))


@pytest.fixture(scope="session")
def bench_skewed_dataset(bench_skewed_distribution) -> list[frozenset[int]]:
    vectors = bench_skewed_distribution.sample_many(400, rng_for("bench:skewed-dataset"))
    return [vector if vector else frozenset({0}) for vector in vectors]


@pytest.fixture(scope="session")
def bench_uniform_dataset(bench_uniform_distribution) -> list[frozenset[int]]:
    vectors = bench_uniform_distribution.sample_many(400, rng_for("bench:uniform-dataset"))
    return [vector if vector else frozenset({0}) for vector in vectors]
