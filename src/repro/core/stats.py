"""Work accounting for index construction and queries.

The paper's evaluation is expressed in units of work (`n^ρ` filters and
candidates), not seconds.  These dataclasses record exactly those quantities
so that the benchmark harness can compare the measured work against the
analytic predictions of :mod:`repro.theory`.

Every record derives from :class:`StatsRecord`, which accumulates and
round-trips all of them; each field's accumulate rule sits beside the field.
"""

from __future__ import annotations

from dataclasses import Field, asdict, dataclass, field, fields, replace
from itertools import zip_longest
from typing import Any, ClassVar, Mapping, TypeVar

_Record = TypeVar("_Record", bound="StatsRecord")


def _sum(mine: Any, theirs: Any) -> Any:
    """The default accumulate rule: numbers add, bools OR, and lists add slot
    by slot, growing to the longer list."""
    if isinstance(mine, bool):
        return mine or theirs
    if isinstance(mine, list):
        return [a + b for a, b in zip_longest(mine, theirs, fillvalue=0)]
    return mine + theirs


def _union(mine: list[int], theirs: list[int]) -> list[int]:
    return sorted(set(mine) | set(theirs))


def _parse(kind: Any, value: Any, strict: bool) -> Any:
    """``value`` parsed as a ``kind`` record if ``kind`` is a record type and
    ``value`` a payload, else ``value`` itself."""
    if isinstance(kind, type) and issubclass(kind, StatsRecord) and isinstance(value, Mapping):
        return kind.from_dict(value, strict)
    return value


class StatsRecord:
    """Base of the stats dataclasses: one accumulate and round-trip rule set.

    ``field(metadata={"add": rule})`` gives a field the accumulate rule
    ``rule(mine, theirs) -> merged`` (``None``: left alone), and
    ``metadata={"items": Record}`` declares a list of nested records.
    Otherwise the rule follows the value: nested records accumulate
    recursively, numbers are summed, bools OR-ed and lists added slot by slot.
    """

    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

    def add(self: _Record, other: _Record) -> None:
        """Accumulate another record of the same type into this one (in place)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, StatsRecord):
                mine.add(getattr(other, spec.name))
                continue
            rule = spec.metadata.get("add", _sum)
            if rule is not None:
                setattr(self, spec.name, rule(mine, getattr(other, spec.name)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable, nested records as dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(
        cls: type[_Record], payload: Mapping[str, Any], strict: bool = False
    ) -> _Record:
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored by default; with ``strict=True`` they raise
        :class:`ValueError` at every nesting level — persistence uses this so
        a file written by a newer (or corrupted) version fails loudly rather
        than silently losing fields.
        """
        specs = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(payload) - set(specs))
        if strict and unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields {unknown}; "
                f"expected a subset of {sorted(specs)}"
            )
        values: dict[str, Any] = {}
        for name, value in payload.items():
            if name not in specs:
                continue
            items = specs[name].metadata.get("items")
            if items is not None:
                values[name] = [_parse(items, entry, strict) for entry in value]
            else:
                values[name] = _parse(specs[name].default_factory, value, strict)
        record = cls(**values)
        record._check_parsed(payload)
        return record

    def _check_parsed(self, payload: Mapping[str, Any]) -> None:
        """Post-parse hook: validate what :meth:`from_dict` built from ``payload``."""


@dataclass
class KernelStats(StatsRecord):
    """Per-stage work counts reported by the hot-path kernels.

    Each field mirrors one slot of the kernel counter vector (see
    :mod:`repro.core.kernels._contract`).  They count the work actually
    done, so unlike ``QueryStats`` they may move with the generation
    schedule; ``TestPinnedWork`` pins them for one seeded batch.

    Attributes
    ----------
    paths_extended:
        Candidate extensions the path-extension kernel accepted (hash below
        the sampling probability), before any truncation zeroing.
    keys_folded:
        Candidate keys submitted to the SplitMix64 fold, accepted or not.
    chain_probes:
        Pairwise path comparisons the forced-collision chain resolver
        performed while bucketing same-key entries during ``compact``.
    merge_rows:
        Rows fed through the sort/unique merge kernels (CSR posting-segment
        merges and candidate dedupe).
    dedupe_hits:
        Rows the merge kernels dropped as duplicates.
    """

    paths_extended: int = 0
    keys_folded: int = 0
    chain_probes: int = 0
    merge_rows: int = 0
    dedupe_hits: int = 0

    def add_counters(self, counters: Any) -> None:
        """Fold a kernel counter vector (``int64[NUM_COUNTERS]``) in place.

        The argument is the caller-owned numpy array the kernels accumulate
        into; field order matches ``repro.core.kernels.COUNTER_NAMES``.
        """
        self.paths_extended += int(counters[0])
        self.keys_folded += int(counters[1])
        self.chain_probes += int(counters[2])
        self.merge_rows += int(counters[3])
        self.dedupe_hits += int(counters[4])


@dataclass
class ShardFanoutStats(StatsRecord):
    """Cross-shard execution accounting of the router-backed query mode.

    One slot per shard *worker* (a process or remote server owning a
    contiguous shard range), parallel lists so the record stays a flat,
    JSON-friendly dataclass.  A non-routed execution leaves every list
    empty — ``workers == 0`` means "no fan-out happened", not "one worker".

    Accumulating (:meth:`add`) matches worker slots by position and grows
    the record to the wider of the two, so folding a routed batch into a
    fresh accumulator just adopts its shape.  Degradation markers
    accumulate pessimistically, so a merged record never overstates what
    was answered.

    Attributes
    ----------
    workers:
        Fan-out width (number of shard workers the router owns).
    requests:
        Probe round-trips sent to each worker.
    rows:
        Posting rows each worker returned (CSR ``ids`` lengths summed).
    seconds:
        Wall-clock seconds spent waiting on each worker, summed over
        requests (includes transport + worker-side resolution time).
    failures:
        Transport failures observed per worker (timeouts, dead processes,
        dropped connections) — counted even when recovery succeeded.
    respawns:
        Successful automatic recoveries per worker (process respawns for
        the spawn transport, reconnects for sockets).
    aborts:
        Requests per worker that were abandoned because the query's
        deadline expired (router-side pre-send checks plus worker-side
        mid-probe aborts) — budget outcomes, not worker faults.
    completeness:
        Fraction of shards that contributed to the answer: ``1.0`` for a
        full answer, lower when ``allow_partial`` served around open
        circuit breakers.  Accumulating records keeps the minimum (the
        worst batch's guarantee is the honest one to report).
    shards_missing:
        Sorted shard ids whose postings are absent from a degraded
        answer (empty for full answers); accumulating unions them.
    """

    workers: int = field(default=0, metadata={"add": max})
    requests: list[int] = field(default_factory=list)
    rows: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    failures: list[int] = field(default_factory=list)
    respawns: list[int] = field(default_factory=list)
    aborts: list[int] = field(default_factory=list)
    completeness: float = field(default=1.0, metadata={"add": min})
    shards_missing: list[int] = field(default_factory=list, metadata={"add": _union})

    @classmethod
    def sized(cls, workers: int) -> "ShardFanoutStats":
        """A zeroed record with one slot per worker."""
        return cls(
            workers=workers,
            requests=[0] * workers,
            rows=[0] * workers,
            seconds=[0.0] * workers,
            failures=[0] * workers,
            respawns=[0] * workers,
            aborts=[0] * workers,
        )

    @property
    def total_requests(self) -> int:
        """Probe round-trips summed over all workers."""
        return sum(self.requests)

    @property
    def total_rows(self) -> int:
        """Posting rows returned, summed over all workers."""
        return sum(self.rows)

    def _check_parsed(self, payload: Mapping[str, Any]) -> None:
        """The parallel lists must agree with ``workers`` — a payload whose
        lists drifted apart is corrupt, not merely stale."""
        if "aborts" not in payload:
            # Absent in records written before degraded-mode support:
            # default to "no aborts" rather than rejecting.
            self.aborts = [0] * self.workers
        for name in ("requests", "rows", "seconds", "failures", "respawns", "aborts"):
            values = getattr(self, name)
            if len(values) != self.workers:
                raise ValueError(
                    f"ShardFanoutStats payload is inconsistent: {name} has "
                    f"{len(values)} entries for {self.workers} workers"
                )
        if not 0.0 <= self.completeness <= 1.0:
            raise ValueError(
                f"ShardFanoutStats payload is inconsistent: completeness "
                f"{self.completeness} is outside [0, 1]"
            )


@dataclass
class BuildStats(StatsRecord):
    """Statistics collected while building an index.

    ``build_seconds`` records the wall-clock time of the build (not
    saved with the index: a loaded index reports 0.0);
    ``generation_batches`` counts the vectorised generation batches the
    build was executed in (0 for non-batched builders); ``kernel`` carries
    the per-stage kernel work counters accumulated across path generation
    and index compaction.
    """

    num_vectors: int = 0
    total_filters: int = 0
    truncated_vectors: int = 0
    repetitions: int = 0
    build_seconds: float = 0.0
    generation_batches: int = 0
    kernel: KernelStats = field(default_factory=KernelStats)

    @property
    def filters_per_vector(self) -> float:
        """Average number of filters stored per vector (all repetitions)."""
        if self.num_vectors == 0:
            return 0.0
        return self.total_filters / self.num_vectors


@dataclass
class QueryStats(StatsRecord):
    """Statistics collected while answering one query.

    The work counters are the paper's *as-if* work, the same on every
    surface (``query``, each ``query_batch`` entry, RAM, mmap or routed):
    in ``mode="first"`` the paper's query stops at the first candidate that
    meets the threshold, so ``candidates_examined``, ``unique_candidates``
    and ``similarity_evaluations`` end at that hit, even where the engine
    verified the rest of the hit's repetition in the same vectorised pass.
    ``kernel`` is the one record of work actually done.

    Attributes
    ----------
    filters_generated:
        ``|F(q)|`` summed over repetitions — the number of paths the query
        chose.
    candidates_examined:
        Number of (filter, stored vector) collisions inspected, i.e.
        ``Σ_x |F(q) ∩ F(x)|`` in the paper's notation, up to the hit in
        ``"first"`` mode.  This is the dominating term of the query cost in
        Lemma 7.
    unique_candidates:
        Number of distinct dataset vectors whose similarity the paper's
        query evaluates (up to and including the hit in ``"first"`` mode).
    similarity_evaluations:
        Number of exact similarity computations the paper's query makes;
        equal to ``unique_candidates``.
    found:
        Whether a vector satisfying the acceptance predicate was returned.
    repetitions_used:
        Number of repetitions inspected before the query terminated.
    shards_probed:
        Number of (repetition, shard) probe tables the query's filters
        routed to.  An in-memory (RAM-mode) store counts as one shard per
        repetition probed; a sharded mmap store counts the distinct
        key-range shards actually touched — this is an execution-strategy
        observable, not part of the paper's work measure, so it is the one
        counter allowed to differ between RAM and mmap mode.
    from_cache:
        True when this entry describes a query answered from a batch's
        duplicate-query cache (see :meth:`cache_hit`); accumulating leaves
        it alone.
    kernel:
        Per-stage work counts reported by the hot-path kernels this query
        drove (path extension, CSR merges); see :class:`KernelStats`.
    """

    filters_generated: int = 0
    candidates_examined: int = 0
    unique_candidates: int = 0
    similarity_evaluations: int = 0
    found: bool = False
    repetitions_used: int = 0
    shards_probed: int = 0
    from_cache: bool = field(default=False, metadata={"add": None})
    kernel: KernelStats = field(default_factory=KernelStats)

    @property
    def total_work(self) -> int:
        """A single work figure: filters generated plus candidates examined."""
        return self.filters_generated + self.candidates_examined

    def cache_hit(self) -> "QueryStats":
        """This entry as a duplicate query answered from the batch cache.

        The answer's outcome (``found``) is kept, every work counter is zero
        and the kernel record is fresh, with ``from_cache=True``: the work
        was done once, by the first occurrence, so aggregating ``per_query``
        work never counts the original execution twice.
        """
        return QueryStats(found=self.found, from_cache=True)


@dataclass
class BatchQueryStats(StatsRecord):
    """Statistics for one ``query_batch`` / ``query_candidates_batch`` call.

    The per-query entries of ``query_batch`` equal what ``query`` reports
    for each query (the paper's as-if work, see :class:`QueryStats`; a
    duplicate query's entry is its first occurrence's ``cache_hit()``), and
    results are identical to running the queries one by one.  The
    batch-level counters below are the work the batched execution did:
    probes are deduplicated across queries, filter generation is amortised
    and ``kernel`` counts every row generated and merged.

    Attributes
    ----------
    num_queries:
        Number of queries in the batch (including deduplicated ones).
    per_query:
        One :class:`QueryStats` per input query, in input order.
    distinct_filter_probes:
        Number of distinct (repetition, filter) inverted-index lookups the
        batch performed.
    duplicate_filter_probes:
        Lookups answered from the batch probe cache because another query in
        the batch (or an earlier repetition pass) already probed the same
        filter — the "dedupe hits".
    queries_deduplicated:
        Queries that were exact duplicates of an earlier query in the batch
        and were answered without re-executing.
    elapsed_seconds:
        Wall-clock time of the whole batch call.
    generation_seconds / verification_seconds:
        Time spent in batched filter generation and in candidate
        verification (0 for loop-based fallbacks that do not split phases).
    merge_seconds:
        Time spent in the CSR probe/merge phase — resolving the batch's
        folded path keys against the postings store and merging the gathered
        posting segments into per-query candidate sets.
    shards_probed:
        Number of (chunk, repetition, shard) probe-table visits the batch's
        deduplicated probe sets performed.  A RAM-mode store is one shard,
        so this counts probed repetitions per chunk; a sharded mmap store
        counts the distinct key-range shards each chunk-repetition probe
        actually touched (the fan-out width the per-shard thread pool can
        exploit).
    minor_page_faults / major_page_faults:
        Process-wide page-fault deltas (``getrusage``) across the batch
        call.  Chiefly interesting in mmap mode, where major faults are the
        cost of paging cold shards in from disk; 0 on platforms without
        ``resource``.  Advisory — concurrent activity in the process is
        included.
    kernel:
        Batch-wide kernel work counts (path extension, chain resolution,
        CSR merges) summed across every chunk and repetition; see
        :class:`KernelStats`.
    fanout:
        Cross-shard execution accounting when the batch ran through a
        :class:`~repro.dist.router.ShardRouter` (per-worker requests, rows,
        latency, failures); an empty record (``workers == 0``) in every
        single-process mode.  See :class:`ShardFanoutStats`.
    """

    num_queries: int = 0
    per_query: list[QueryStats] = field(
        default_factory=list, metadata={"add": None, "items": QueryStats}
    )
    distinct_filter_probes: int = 0
    duplicate_filter_probes: int = 0
    queries_deduplicated: int = 0
    elapsed_seconds: float = 0.0
    generation_seconds: float = 0.0
    verification_seconds: float = 0.0
    merge_seconds: float = 0.0
    shards_probed: int = 0
    minor_page_faults: int = 0
    major_page_faults: int = 0
    kernel: KernelStats = field(default_factory=KernelStats)
    fanout: ShardFanoutStats = field(default_factory=ShardFanoutStats)

    @property
    def dedupe_hit_rate(self) -> float:
        """Fraction of filter probes answered from the batch probe cache."""
        total = self.distinct_filter_probes + self.duplicate_filter_probes
        if total == 0:
            return 0.0
        return self.duplicate_filter_probes / total

    @property
    def num_found(self) -> int:
        """Number of queries that found an acceptable vector."""
        return sum(1 for stats in self.per_query if stats.found)

    @property
    def queries_per_second(self) -> float:
        """Throughput of the batch call (0 when no time was recorded)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.elapsed_seconds

    @property
    def total_work(self) -> int:
        """Total filters generated plus candidates examined over the batch."""
        return sum(stats.total_work for stats in self.per_query)

    def accumulate(self, other: "BatchQueryStats", per_query: bool = False) -> None:
        """Fold another batch's counters into this one, in place.

        :meth:`add` for long-running aggregation (the serving layer folds
        every coalesced engine call into one accumulator for ``/stats``):
        all scalar counters and phase timings are added, while the
        ``per_query`` list is **not** extended unless explicitly requested —
        an accumulator that lives for the process lifetime must stay bounded.
        """
        self.add(other)
        if per_query:
            self.per_query.extend(other.per_query)

    def summary(self) -> dict[str, Any]:
        """Compact scalar view (no per-query entries), JSON-serialisable.

        The serving layer exposes this on ``/stats``: everything
        :meth:`to_dict` reports except the unbounded ``per_query`` list,
        plus the derived ``dedupe_hit_rate`` and ``queries_per_second``.
        """
        payload = asdict(replace(self, per_query=[]))
        del payload["per_query"]
        payload["dedupe_hit_rate"] = self.dedupe_hit_rate
        payload["queries_per_second"] = self.queries_per_second
        return payload
