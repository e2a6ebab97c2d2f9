"""Set similarity join built on the batched query subsystem.

Section 1.1 of the paper observes that the indexing results transfer to the
similarity join problem: preprocess ``S`` into the search structure and probe
it once per element of ``R``, giving time ``O(d |R| |S|^ρ)`` when the output
is small.  :func:`similarity_join` implements that strategy as a *batched
consumer*: the probe collection is streamed through the index's batched
candidate enumeration in chunks, so filter hashing, probe deduplication and
candidate merging are amortised across probes instead of repeating an
isolated single-query loop ``|R|`` times.  Indexes exposing
``query_candidates_arrays_batch`` (the filter-engine family) hand the CSR
merge's sorted id arrays straight to verification — no per-probe Python set
is ever materialised — and their engine verifies a whole chunk's
(probe, candidate) pairs in one segmented pass; others fall back to
``query_candidates_batch`` and finally to per-probe queries, verified pair
by pair.  Candidates are always verified exactly against the requested
similarity predicate, so the reported pairs are never false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence

import numpy as np

from repro.core.config import DEFAULT_BATCH_SIZE
from repro.core.engine import FilterEngine
from repro.core.stats import QueryStats, ShardFanoutStats
from repro.similarity.predicates import SimilarityPredicate, measure_by_name

SetLike = Iterable[int]


class _CandidateIndex(Protocol):
    """Anything that can enumerate join candidates for a probe set."""

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        ...

    def get_vector(self, vector_id: int) -> frozenset[int]:
        ...


@dataclass
class JoinResult:
    """Outcome of a similarity join.

    Attributes
    ----------
    pairs:
        List of ``(r_index, s_index, similarity)`` triples meeting the
        predicate.  ``r_index`` indexes the probe collection ``R`` and
        ``s_index`` the indexed collection ``S``.
    candidates_examined:
        Total (filter, vector) collisions across all probes.
    similarity_evaluations:
        Number of exact similarity evaluations performed.
    num_probes:
        Number of probe sets processed.
    fanout:
        Accumulated shard fan-out telemetry across all probe batches.  On a
        degraded router-backed join (``allow_partial=True`` with an open
        circuit breaker) ``fanout.completeness`` drops below 1 and
        ``fanout.shards_missing`` lists the skipped shards; everywhere else
        it stays at the pristine default.
    """

    pairs: list[tuple[int, int, float]] = field(default_factory=list)
    candidates_examined: int = 0
    similarity_evaluations: int = 0
    num_probes: int = 0
    fanout: ShardFanoutStats = field(default_factory=ShardFanoutStats)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        """The reported (r_index, s_index) pairs as a set, ignoring scores."""
        return {(r_index, s_index) for r_index, s_index, _similarity in self.pairs}


def similarity_join(
    index: _CandidateIndex,
    probes: Sequence[SetLike],
    predicate: SimilarityPredicate,
    batch_size: int | None = None,
    allow_partial: bool = False,
    deadline: float | None = None,
) -> JoinResult:
    """Join a probe collection ``R`` against an already-built index over ``S``.

    Parameters
    ----------
    index:
        A built index over ``S`` (e.g. :class:`~repro.core.SkewAdaptiveIndex`).
    probes:
        The collection ``R``; each element is probed once.  When the index
        exposes ``query_candidates_batch`` the probes are streamed through
        it in chunks of ``batch_size``, amortising filter generation and
        deduplicating shared probes across the batch.
    predicate:
        The similarity predicate the reported pairs must satisfy; candidates
        are verified exactly, so precision is 1 by construction (recall
        depends on the index's filters).
    batch_size:
        Probes per batch (default
        :data:`~repro.core.config.DEFAULT_BATCH_SIZE`).
    allow_partial:
        Router-backed indexes only: serve the join from live shards when a
        worker's circuit breaker is open instead of failing (degraded
        pairs are a subset of the full join).  Forwarded only when set, so
        baseline indexes without the flag keep working.
    deadline:
        Absolute ``time.time()`` epoch after which the join must stop;
        forwarded to the batched candidate enumeration (engine-family
        indexes raise ``DeadlineExceededError`` past it).
    """
    result = JoinResult()
    probe_sets = [frozenset(int(item) for item in probe) for probe in probes]
    result.num_probes = len(probe_sets)

    def verify(
        probe_index: int, probe_set: frozenset[int], candidates: Iterable[int]
    ) -> None:
        # ``candidates`` is either a sorted id array (the CSR merge's native
        # output, consumed as-is) or a set from a fallback path; both are
        # verified in ascending id order, so results are identical.
        ordered = candidates if isinstance(candidates, np.ndarray) else sorted(candidates)
        for candidate_id in ordered:
            candidate_id = int(candidate_id)
            stored = index.get_vector(candidate_id)
            similarity = predicate.similarity(stored, probe_set)
            result.similarity_evaluations += 1
            if similarity >= predicate.threshold:
                result.pairs.append((probe_index, candidate_id, similarity))

    batch_method = getattr(index, "query_candidates_arrays_batch", None)
    if batch_method is None:
        batch_method = getattr(index, "query_candidates_batch", None)
    if batch_method is not None:
        chunk_size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        if chunk_size <= 0:
            raise ValueError(f"batch_size must be positive, got {chunk_size}")
        batch_kwargs: dict[str, Any] = {"batch_size": chunk_size}
        if allow_partial:
            batch_kwargs["allow_partial"] = True
        if deadline is not None:
            batch_kwargs["deadline"] = deadline
        engine = getattr(index, "_engine", None)  # noqa: SLF001 - a friend module
        measure = measure_by_name(predicate.measure)
        for start in range(0, len(probe_sets), chunk_size):
            block = probe_sets[start : start + chunk_size]
            candidate_lists, batch_stats = batch_method(block, **batch_kwargs)
            result.candidates_examined += sum(
                stats.candidates_examined for stats in batch_stats.per_query
            )
            result.fanout.add(batch_stats.fanout)
            if isinstance(engine, FilterEngine):
                # One segmented pass over the chunk's (probe, candidate) pairs,
                # in the order ``verify`` visits them.
                sizes = [candidates.size for candidates in candidate_lists]
                labels = np.repeat(np.arange(len(block), dtype=np.int64), sizes)
                candidate_ids = np.concatenate(candidate_lists)
                scores = engine._pair_similarities(  # noqa: SLF001 - a friend module
                    engine._label_sets(block), labels, candidate_ids, measure  # noqa: SLF001
                )
                result.similarity_evaluations += int(candidate_ids.size)
                accepted = np.flatnonzero(scores >= predicate.threshold)
                result.pairs += zip(
                    (labels[accepted] + start).tolist(),
                    candidate_ids[accepted].tolist(),
                    scores[accepted].tolist(),
                )
                continue
            for offset, (probe_set, candidates) in enumerate(zip(block, candidate_lists)):
                if not probe_set:
                    continue
                verify(start + offset, probe_set, candidates)
        return result

    for probe_index, probe_set in enumerate(probe_sets):
        if not probe_set:
            continue
        candidates, stats = index.query_candidates(probe_set)
        result.candidates_examined += stats.candidates_examined
        verify(probe_index, probe_set, candidates)
    return result


def similarity_self_join(
    index: _CandidateIndex,
    collection: Sequence[SetLike],
    predicate: SimilarityPredicate,
    include_self_pairs: bool = False,
    batch_size: int | None = None,
) -> JoinResult:
    """Self-join: find all similar pairs inside one collection.

    The index must have been built over ``collection`` with ids matching the
    positions in the sequence.  Each unordered pair is reported once, as
    ``(i, j)`` with ``i < j``.

    Parameters
    ----------
    index:
        A built index over ``collection``.
    collection:
        The collection itself (used as the probes).
    predicate:
        Similarity predicate for reported pairs.
    include_self_pairs:
        Report the trivial ``(i, i)`` pairs as well (disabled by default).
    batch_size:
        Forwarded to :func:`similarity_join`.
    """
    raw = similarity_join(index, collection, predicate, batch_size=batch_size)
    deduplicated: list[tuple[int, int, float]] = []
    if raw.pairs:
        probe_ids, candidate_ids, scores = (np.asarray(column) for column in zip(*raw.pairs))
        low = np.minimum(probe_ids, candidate_ids)
        high = np.maximum(probe_ids, candidate_ids)
        kept = np.flatnonzero(include_self_pairs | (low != high))
        # Each unordered pair once, at its first appearance.
        _pairs, first = np.unique(
            low[kept] * (int(high.max()) + 1) + high[kept], return_index=True
        )
        kept = kept[np.sort(first)]
        deduplicated = list(zip(low[kept].tolist(), high[kept].tolist(), scores[kept].tolist()))
    return JoinResult(
        pairs=deduplicated,
        candidates_examined=raw.candidates_examined,
        similarity_evaluations=raw.similarity_evaluations,
        num_probes=raw.num_probes,
        fanout=raw.fanout,
    )
