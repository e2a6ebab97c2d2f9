"""Property-based batch/single equivalence (hypothesis).

Random universes, random datasets, random queries: the batched execution
path must return exactly what the single-query loop returns, at every layer
(path generation, full engine queries, candidate enumeration).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dtypes import ITEM_DTYPE, KEY_DTYPE, OFFSET_DTYPE
from repro.core.engine import FilterEngine
from repro.core.kernels import PATHS_EXTENDED, new_counters
from repro.core.paths import PathGenerator, VectorBatch, default_max_depth
from repro.core.thresholds import AdversarialThreshold, ConstantThreshold, CorrelatedThreshold
from repro.hashing.pairwise import PathHasher

DIMENSION = 48

item_sets = st.frozensets(
    st.integers(min_value=0, max_value=DIMENSION - 1), min_size=0, max_size=14
)
set_lists = st.lists(item_sets, min_size=1, max_size=20)
probability_arrays = st.lists(
    st.floats(min_value=0.01, max_value=0.5), min_size=DIMENSION, max_size=DIMENSION
).map(lambda values: np.asarray(values))

#: Hashers of the generator under test; a fused pass covers any subset of
#: them, in any order (one repetition is the unfused pass).
REPETITIONS = 4
repetition_subsets = st.lists(
    st.integers(min_value=0, max_value=REPETITIONS - 1),
    min_size=1,
    max_size=REPETITIONS,
    unique=True,
)

generation_variants = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["adversarial", "constant", "correlated"]),
        "stop_rule": st.booleans(),
        "collect_at_max_depth": st.booleans(),
        "max_paths": st.sampled_from([None, 5, 200]),
    }
)

FILTER_ARRAYS = ("path_items", "path_offsets", "keys", "vector_offsets", "truncated", "expansions")


def assert_same_arrays(left, right):
    for name in FILTER_ARRAYS:
        assert getattr(left, name).tolist() == getattr(right, name).tolist(), name


@given(
    probability_arrays,
    set_lists,
    st.integers(min_value=0, max_value=2**31),
    generation_variants,
    repetition_subsets,
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_filter_batch_rows_equal_serial_generate(
    probabilities, vectors, seed, variant, repetitions
):
    """Every row of the array-native ``FilterBatch`` is the serial result.

    Paths, their order, keys, ``truncated`` and ``expansions`` per
    (repetition, vector) row of a pass fused over any repetition subset,
    across the stop rule, ``max_paths`` truncation (the cutoff fires inside
    the fused pass, per row), the Chosen Path collection of the final
    frontier, empty vectors, uniform and correlated thresholds and every
    installed kernel backend.
    """
    policy = {
        "adversarial": AdversarialThreshold(0.5),
        "constant": ConstantThreshold(0.5),
        "correlated": CorrelatedThreshold(probabilities, alpha=0.6, num_vectors=64),
    }[variant["policy"]]
    generator = PathGenerator(
        probabilities,
        [PathHasher(seed + repetition) for repetition in range(REPETITIONS)],
        stop_product=1.0 / 64.0 if variant["stop_rule"] else None,
        # Without the stop rule only the depth cap ends recursion; keep the
        # serial reference affordable.
        max_depth=default_max_depth(64, float(probabilities.max())) if variant["stop_rule"] else 3,
        collect_at_max_depth=variant["collect_at_max_depth"],
        max_paths=variant["max_paths"],
    )
    serial_counters = new_counters()
    serial = [
        generator.generate(
            sorted(members), policy.bind(sorted(members)), serial_counters, repetition
        )
        for repetition in repetitions
        for members in vectors
    ]

    bound = VectorBatch.bind(vectors, policy)
    counters = new_counters()
    batch = generator.generate_batch(bound, counters, repetitions)
    unfused_counters = new_counters()
    unfused = [
        generator.generate_batch(bound, unfused_counters, [repetition])
        for repetition in repetitions
    ]
    one_by_one = new_counters()
    singles = [
        generator.generate_batch(
            VectorBatch.bind([members], policy), one_by_one, [repetition]
        )
        for repetition in repetitions
        for members in vectors
    ]

    assert list(batch) == serial
    assert [single[0] for single in singles] == serial
    # The arrays themselves, not only the tuple view of them.
    assert (batch.path_items.dtype, batch.keys.dtype) == (ITEM_DTYPE, KEY_DTYPE)
    assert batch.path_offsets.dtype == batch.vector_offsets.dtype == OFFSET_DTYPE
    assert batch.vector_offsets.tolist() == np.cumsum(
        [0] + [len(result.paths) for result in serial]
    ).tolist()
    assert batch.path_items.tolist() == [
        item for result in serial for path in result.paths for item in path
    ]
    assert batch.keys.tolist() == [key for result in serial for key in result.keys]
    assert batch.truncated.tolist() == [result.truncated for result in serial]
    assert batch.expansions.tolist() == [result.expansions for result in serial]
    # A repetition's view of the fused pass is that repetition's own
    # pass, and a row subset of it is the pass over those vectors.
    assert batch.repetitions == len(repetitions)
    for position, alone in enumerate(unfused):
        assert_same_arrays(batch.repetition(position), alone)
    rows = np.arange(len(vectors) - 1, -1, -2)
    kept = unfused[-1].take(rows)
    assert list(kept) == [unfused[-1][row] for row in rows.tolist()]
    assert kept.path_offsets.tolist() == np.cumsum(
        [0] + [len(path) for result in kept for path in result.paths]
    ).tolist()
    # Counter totals: every batch shape agrees always; the serial loop
    # stops hashing a truncated vector's level at the cutoff entry, so
    # it folds fewer keys there but extends exactly the same paths.
    assert counters.tolist() == unfused_counters.tolist() == one_by_one.tolist()
    assert counters[PATHS_EXTENDED] == serial_counters[PATHS_EXTENDED]
    if not batch.truncated.any():
        assert counters.tolist() == serial_counters.tolist()


def test_fused_pass_over_multi_word_masks_equals_serial_generate():
    """Vectors of more than 64 items carry multi-word availability masks;
    a fused pass tiles them per repetition and must still match the serial
    generator, with and without the ``max_paths`` cutoff."""
    rng = np.random.default_rng(5)
    probabilities = rng.uniform(0.01, 0.4, size=200)
    policy = AdversarialThreshold(0.5)
    vectors = [
        frozenset(rng.choice(200, size=size, replace=False).tolist())
        for size in (70, 0, 129, 64, 65, 3)
    ]
    bound = VectorBatch.bind(vectors, policy)
    assert max(map(len, vectors)) > 128  # more than two 64-bit mask words' worth
    for max_paths in (None, 25):
        generator = PathGenerator(
            probabilities,
            [PathHasher(seed) for seed in range(3)],
            stop_product=1.0 / 64.0,
            max_depth=default_max_depth(64, float(probabilities.max())),
            max_paths=max_paths,
        )
        fused = generator.generate_batch(bound, None, [2, 0, 1])
        serial = [
            generator.generate(sorted(members), policy.bind(sorted(members)), None, repetition)
            for repetition in (2, 0, 1)
            for members in vectors
        ]
        assert list(fused) == serial
        assert fused.truncated.any() == (max_paths is not None)


@given(
    st.lists(item_sets, min_size=2, max_size=12),
    st.lists(item_sets, min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["first", "best"]),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_batch_equals_loop(dataset, queries, seed, mode):
    probabilities = np.full(DIMENSION, 0.12)
    engine = FilterEngine(
        probabilities,
        AdversarialThreshold(0.5),
        acceptance_threshold=0.5,
        num_vectors_hint=max(len(dataset), 1),
        repetitions=3,
        seed=seed,
    )
    engine.build(dataset)
    expected_ids = [engine.query(query, mode=mode)[0] for query in queries]
    batched_ids, _stats = engine.query_batch(queries, mode=mode, batch_size=4)
    assert batched_ids == expected_ids
    expected_candidates = [engine.query_candidates(query)[0] for query in queries]
    batched_candidates, _cstats = engine.query_candidates_batch(queries, batch_size=4)
    assert batched_candidates == expected_candidates
