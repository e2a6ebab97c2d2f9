"""Configuration dataclasses for the skew-adaptive indexes.

The dataclasses bundle the parameters that the paper treats as inputs to the
data structure (similarity threshold ``b1``, correlation ``α``, the number of
repetitions used to boost success probability) together with implementation
knobs (depth and path-count safety caps) that a pure asymptotic analysis does
not need but a production implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default number of queries processed per vectorised execution chunk by
#: ``query_batch``.  Large enough to amortise per-level hashing across many
#: frontiers, small enough to keep per-chunk memory modest.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class BatchQueryConfig:
    """Execution parameters for the batched query subsystem.

    Chunks run one after another on the calling thread; the only fan-out
    is the shard router's, over worker processes, chosen when the index is
    opened (:func:`repro.dist.load_routed_index`), not per call.

    Attributes
    ----------
    batch_size:
        Number of queries per vectorised execution chunk.  Filter hashing,
        probe deduplication and candidate verification are amortised within
        a chunk.
    deduplicate_queries:
        Answer exact duplicate queries in a batch once and copy the result.
    allow_partial:
        Router-backed execution only: serve degraded answers from the
        live shards when a worker's circuit breaker is open, instead of
        failing the batch.  Degraded batches mark the missing shards in
        ``BatchQueryStats.fanout`` (``completeness`` / ``shards_missing``)
        so callers can tell a full answer from a partial one.  No effect
        on single-process modes, which have no workers to lose.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    deduplicate_queries: bool = True
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    def as_kwargs(self) -> dict[str, object]:
        """Keyword arguments accepted by every index's ``query_batch`` methods."""
        kwargs: dict[str, object] = {
            "batch_size": self.batch_size,
            "deduplicate": self.deduplicate_queries,
        }
        # Only forwarded when set: non-engine implementations (baselines)
        # accept the two standard knobs but not the degraded-mode flag.
        if self.allow_partial:
            kwargs["allow_partial"] = True
        return kwargs


@dataclass(frozen=True)
class PersistenceConfig:
    """Knobs of the index persistence layer (formats v2 and v3).

    Attributes
    ----------
    format_version:
        On-disk format ``save_index`` writes: 3 (default) is the sharded,
        mmap-native directory layout; 2 is the legacy single-file compressed
        ``.npz`` container, kept as the downgrade target for deployments
        that have not migrated.  Loading auto-detects the format regardless.
    shards:
        Number of folded-key-range shards a v3 save splits each postings
        store into.  More shards mean more parallel save/load/probe lanes
        and finer-grained lazy paging; 8 is a good default for typical
        multi-core hosts.  A v3 save and a RAM-mode load write and read the
        shard files on ``min(shards, cpu_count)`` threads.  Ignored by v2.
    compress:
        Write the v2 array container deflate-compressed (default).  v3 is
        deliberately uncompressed — raw little-endian arrays at page-aligned
        offsets are what ``np.memmap`` can serve zero-copy.
    validate_postings:
        Verify on (RAM) load that every repetition's postings reference only
        stored vectors and in-universe items (vectorised cross-checks over
        the whole store).  Catches corrupted or hand-edited files before
        they can produce wrong query results; the cost is a few array
        passes, so leaving it on is recommended.  mmap-mode loads validate
        manifest consistency and file sizes instead — paging every shard in
        just to cross-check it would defeat lazy loading.
    """

    format_version: int = 3
    shards: int = 8
    compress: bool = True
    validate_postings: bool = True

    def __post_init__(self) -> None:
        if self.format_version not in (2, 3):
            raise ValueError(
                f"format_version must be 2 or 3, got {self.format_version}"
            )
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")


@dataclass(frozen=True)
class SkewAdaptiveIndexConfig:
    """Parameters of the adversarial-query index (Theorem 2).

    Attributes
    ----------
    b1:
        The Braun-Blanquet similarity threshold a reported vector must meet.
    repetitions:
        Number of independent copies of the filter structure.  Each copy
        succeeds with probability at least ``1/log n`` per Lemma 5 and
        ``Θ(log n)`` copies give constant success probability; more
        repetitions boost it further (footnote 2 of the paper).  When
        ``None``, the index picks ``ceil(log2 n) + 1`` at build time.
    max_depth:
        Hard cap on the recursion depth (safety net for degenerate
        probability inputs; the product stopping rule normally fires first).
        ``None`` means "derive from n and the probabilities".
    max_paths_per_vector:
        Safety cap on the number of filters generated for any single vector
        in a single repetition.  ``None`` disables the cap.  When the cap
        triggers, the affected vector simply has fewer filters: recall can
        suffer but correctness of returned results is unaffected.
    seed:
        Seed for the hash functions.
    """

    b1: float = 0.5
    repetitions: int | None = None
    max_depth: int | None = None
    max_paths_per_vector: int | None = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.b1 <= 1.0:
            raise ValueError(f"b1 must be in (0, 1], got {self.b1}")
        if self.repetitions is not None and self.repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")
        if self.max_paths_per_vector is not None and self.max_paths_per_vector <= 0:
            raise ValueError(
                f"max_paths_per_vector must be positive, got {self.max_paths_per_vector}"
            )


@dataclass(frozen=True)
class CorrelatedIndexConfig:
    """Parameters of the correlated-query index (Theorem 1).

    Attributes
    ----------
    alpha:
        The correlation level the queries are assumed to have with their
        planted partner.
    acceptance_divisor:
        A candidate is reported when its Braun-Blanquet similarity is at
        least ``alpha / acceptance_divisor``; the paper uses 1.3 (Section 6)
        so that correlated pairs pass (Lemma 10) while uncorrelated pairs,
        whose similarity concentrates below ``alpha / 1.5``, do not.
    boost_delta:
        The ``δ`` in the sampling threshold ``(1 + δ)/(p̂_i C log n − j)``.
        ``None`` means "use the paper's ``3 / sqrt(α C)``"; the paper notes a
        smaller constant is likely sufficient in practice.
    repetitions, max_depth, max_paths_per_vector, seed:
        As in :class:`SkewAdaptiveIndexConfig`.
    """

    alpha: float = 0.5
    acceptance_divisor: float = 1.3
    boost_delta: float | None = None
    repetitions: int | None = None
    max_depth: int | None = None
    max_paths_per_vector: int | None = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.acceptance_divisor < 1.0:
            raise ValueError(
                f"acceptance_divisor must be at least 1, got {self.acceptance_divisor}"
            )
        if self.boost_delta is not None and self.boost_delta < 0.0:
            raise ValueError(f"boost_delta must be non-negative, got {self.boost_delta}")
        if self.repetitions is not None and self.repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")
        if self.max_paths_per_vector is not None and self.max_paths_per_vector <= 0:
            raise ValueError(
                f"max_paths_per_vector must be positive, got {self.max_paths_per_vector}"
            )

    @property
    def acceptance_threshold(self) -> float:
        """The Braun-Blanquet similarity at which candidates are reported."""
        return self.alpha / self.acceptance_divisor
