"""Deterministic seed handling shared by the test suite and the benchmarks.

``tests/conftest.py`` and ``benchmarks/conftest.py`` previously hard-coded
their dataset seeds independently; this module is the single source of truth
so CI runs are reproducible and the two harnesses cannot drift.  Every seed
is derived from one base seed plus a role name; setting the
``REPRO_SEED_BASE`` environment variable shifts *all* derived seeds at once
(useful for fuzzing a CI matrix across seeds without editing code).

The per-role offsets preserve the exact datasets the suite has always used,
so changing this module is a behavioural change to the tests — treat it like
test code.
"""

from __future__ import annotations

import os

import numpy as np

#: Role → seed offset.  Offsets are the historical hard-coded seeds so the
#: fixture datasets stay byte-for-byte identical to earlier revisions.
ROLE_SEEDS: dict[str, int] = {
    "tests:skewed-dataset": 12345,
    "tests:uniform-dataset": 54321,
    "bench:skewed-dataset": 2024,
    "bench:uniform-dataset": 4202,
    "bench:queries": 97,
    "bench:candidate-throughput": 98,
    "bench:kernels-dataset": 99,
    "tests:save-load:skew_adaptive": 7100,
    "tests:save-load:correlated": 7101,
    "tests:save-load:chosen_path": 7102,
    "bench:serialization-dataset": 7200,
    "bench:serving-dataset": 7300,
    "bench:serving-replay": 7301,
    "tests:dist-queries": 7400,
    "bench:shard-fanout-dataset": 7401,
    "bench:shard-fanout-queries": 7402,
    "tests:chaos-queries": 7403,
    "bench:latency-queries": 7404,
    "tests:hash-grid": 7500,
    "tests:lone-batch-pool": 7501,
}


def base_seed() -> int:
    """The global seed base (``REPRO_SEED_BASE`` env var, default 0)."""
    return int(os.environ.get("REPRO_SEED_BASE", "0"))


def seed_for(role: str) -> int:
    """Deterministic seed for a named role, shifted by the global base."""
    if role not in ROLE_SEEDS:
        raise KeyError(
            f"unknown seed role {role!r}; expected one of {sorted(ROLE_SEEDS)}"
        )
    return ROLE_SEEDS[role] + base_seed()


def rng_for(role: str) -> np.random.Generator:
    """A NumPy generator seeded deterministically for the given role."""
    return np.random.default_rng(seed_for(role))
