"""Workload runner: build an index, run queries, collect results.

The harness is deliberately index-agnostic: anything exposing the common
``build`` / ``query`` surface (the paper's two indexes, the three baselines)
can be driven by :func:`run_workload`, so comparative experiments are a loop
over index factories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.stats import BatchQueryStats, QueryStats
from repro.evaluation.metrics import (
    WorkSummary,
    acceptable_rate,
    recall_at_one,
    success_rate,
    work_summary,
)

SetLike = Iterable[int]


class SearchIndex(Protocol):
    """The minimal index interface the harness drives."""

    def build(self, collection: Iterable[SetLike]):  # pragma: no cover - protocol
        ...

    def query(self, query: SetLike, mode: str = "first"):  # pragma: no cover - protocol
        ...


@dataclass
class QueryWorkload:
    """A batch of queries with optional ground truth.

    Attributes
    ----------
    queries:
        The query sets.
    expected_ids:
        For planted workloads, the id of the vector each query is correlated
        with (used for recall@1).
    acceptable_ids:
        For adversarial workloads, the full set of acceptable answers per
        query (any vector meeting the similarity threshold).
    """

    queries: list[frozenset[int]]
    expected_ids: list[int] | None = None
    acceptable_ids: list[set[int]] | None = None

    def __post_init__(self) -> None:
        self.queries = [frozenset(int(item) for item in query) for query in self.queries]
        if self.expected_ids is not None and len(self.expected_ids) != len(self.queries):
            raise ValueError("expected_ids must have one entry per query")
        if self.acceptable_ids is not None and len(self.acceptable_ids) != len(self.queries):
            raise ValueError("acceptable_ids must have one entry per query")

    def __len__(self) -> int:
        return len(self.queries)


@dataclass
class ExperimentResult:
    """Everything measured while running one workload against one index."""

    method: str
    num_indexed: int
    num_queries: int
    build_seconds: float
    query_seconds: float
    returned_ids: list[int | None] = field(default_factory=list)
    query_stats: list[QueryStats] = field(default_factory=list)
    recall: float | None = None
    success: float = 0.0
    acceptable: float | None = None
    work: WorkSummary | None = None
    total_stored_filters: int | None = None
    batch_stats: BatchQueryStats | None = None

    def as_row(self) -> dict[str, object]:
        """Flat dictionary suitable for the text-table reporter."""
        row: dict[str, object] = {
            "method": self.method,
            "n": self.num_indexed,
            "queries": self.num_queries,
            "build_s": round(self.build_seconds, 4),
            "query_s": round(self.query_seconds, 4),
            "success": round(self.success, 3),
        }
        if self.recall is not None:
            row["recall@1"] = round(self.recall, 3)
        if self.acceptable is not None:
            row["acceptable"] = round(self.acceptable, 3)
        if self.work is not None:
            row["mean_candidates"] = round(self.work.mean_candidates, 1)
            row["mean_filters"] = round(self.work.mean_filters, 1)
        if self.total_stored_filters is not None:
            row["stored_filters"] = self.total_stored_filters
        if self.batch_stats is not None:
            row["dedupe_rate"] = round(self.batch_stats.dedupe_hit_rate, 3)
        return row


def run_workload(
    index_factory: Callable[[], SearchIndex],
    dataset: Sequence[SetLike],
    workload: QueryWorkload,
    method_name: str,
    query_mode: str = "first",
    batch_size: int | None = None,
) -> ExperimentResult:
    """Build an index over ``dataset`` and run every query of the workload.

    Parameters
    ----------
    index_factory:
        Zero-argument callable constructing a fresh (unbuilt) index.
    dataset:
        The collection to index.
    workload:
        Queries plus optional ground truth.
    method_name:
        Label recorded in the result (used by the reporters).
    query_mode:
        Forwarded to the index's ``query`` method.
    batch_size:
        When set and the index exposes ``query_batch``, the workload runs
        through the batched subsystem in chunks of this size (the results
        are identical to the per-query loop); the returned result then
        carries the batch statistics.
    """
    index = index_factory()
    build_start = time.perf_counter()
    index.build(dataset)
    build_seconds = time.perf_counter() - build_start

    returned: list[int | None] = []
    stats: list[QueryStats] = []
    batch_stats: BatchQueryStats | None = None
    query_start = time.perf_counter()
    if batch_size is not None and hasattr(index, "query_batch"):
        returned, batch_stats = index.query_batch(
            workload.queries, mode=query_mode, batch_size=batch_size
        )
        stats = batch_stats.per_query
    else:
        for query in workload.queries:
            result_id, query_stat = index.query(query, mode=query_mode)
            returned.append(result_id)
            stats.append(query_stat)
    query_seconds = time.perf_counter() - query_start

    result = ExperimentResult(
        method=method_name,
        num_indexed=len(dataset),
        num_queries=len(workload),
        build_seconds=build_seconds,
        query_seconds=query_seconds,
        returned_ids=returned,
        query_stats=stats,
        success=success_rate(returned),
        work=work_summary(stats),
        total_stored_filters=getattr(index, "total_stored_filters", None),
        batch_stats=batch_stats,
    )
    if workload.expected_ids is not None:
        result.recall = recall_at_one(returned, workload.expected_ids)
    if workload.acceptable_ids is not None:
        result.acceptable = acceptable_rate(returned, workload.acceptable_ids)
    return result


def compare_indexes(
    factories: dict[str, Callable[[], SearchIndex]],
    dataset: Sequence[SetLike],
    workload: QueryWorkload,
    query_mode: str = "first",
    batch_size: int | None = None,
) -> list[ExperimentResult]:
    """Run the same workload against several index factories.

    Returns one :class:`ExperimentResult` per method, in the iteration order
    of the ``factories`` mapping.  ``batch_size`` routes the workload
    through each index's batched execution path where available.
    """
    return [
        run_workload(
            factory,
            dataset,
            workload,
            method_name=name,
            query_mode=query_mode,
            batch_size=batch_size,
        )
        for name, factory in factories.items()
    ]
