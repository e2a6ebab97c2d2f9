"""Shared set-up and measuring helpers of the four workloads.

Everything a workload needs that is not specific to it: the seeded dataset
and query mix, the one timed build + save every invocation starts with, the
time-boxed round loop, percentiles, memory and cold-open probes, the
machine fingerprint, and the failure ledger behind ``failed``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from bootstrap import PERF_DIR, REPO_ROOT
from repro.core import kernels, serialization
from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.join import similarity_join
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.data.distributions import ItemDistribution
from repro.data.families import two_block_probabilities
from repro.similarity.measures import braun_blanquet

#: Similarity threshold of the index and of every answer check (b1).
THRESHOLD = 0.5
#: Correlation of a planted query with its stored vector.
PLANTED_ALPHA = 0.8
#: Request mix of the serving workloads: three singles, then one batch.
SINGLES_PER_BATCH = 3
BATCH_REQUEST_QUERIES = 8
#: Load generator width: at most this many threads or connections.
CLIENTS = min(len(os.sched_getaffinity(0)), 4)
#: Saves per set-up; ``save_s`` is their median.
SAVES_PER_SETUP = 5
#: A workload that runs longer than this is killed (the driver allows 180 s).
WORKLOAD_TIMEOUT_SECONDS = 150.0
#: An untraced workload visits its phases this many times, a third of each
#: phase's time per visit.  This VM's cores switch between two speeds ~20 %
#: apart every 2-20 s; a phase measured in one 3 s stretch lands wholly in
#: one of them, one sampled three times across the run sees the mix.
CYCLES = 3

# Independent random streams of one seed: default_rng([seed, stream]).
STREAM_DATASET, STREAM_QUERIES, STREAM_CHURN, STREAM_COLD_OPEN = range(4)


@dataclass(frozen=True)
class Scale:
    """Problem size: the full benchmark or the ``--smoke`` miniature."""

    name: str
    num_vectors: int
    repetitions: int | None
    batch_queries: int
    join_probes: int
    churn_inserts: int
    churn_removes: int
    churn_queries: int
    oracle_probes: int


FULL = Scale("full", 5000, None, 512, 250, 32, 16, 64, 100)
SMOKE = Scale("smoke", 1000, 4, 128, 64, 8, 4, 16, 20)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def skewed_distribution() -> ItemDistribution:
    """The two-block skewed distribution of ``benchmarks/conftest.py``."""
    return ItemDistribution(
        np.concatenate([two_block_probabilities(60, 0.25, 0.25 / 8.0), np.full(1200, 0.01)])
    )


def non_empty(vector: frozenset[int]) -> frozenset[int]:
    return vector if vector else frozenset({0})


@dataclass
class QuerySet:
    """Queries plus, for the planted ones, the stored id each was drawn from."""

    queries: list[frozenset[int]]
    planted_from: list[int | None]

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def num_planted(self) -> int:
        return sum(1 for source in self.planted_from if source is not None)


def half_planted(count: int, rng: np.random.Generator) -> list[bool]:
    """``count`` flags, exactly half of them true, in a seeded random order.

    An exact half (not a coin per query) keeps the share of cheap planted
    and dear fresh queries the same for every seed, so seeds differ in the
    data and not in the mix.
    """
    flags = np.arange(count) % 2 == 0
    rng.shuffle(flags)
    return flags.tolist()


def mixed_queries(
    distribution: ItemDistribution,
    stored: Sequence[frozenset[int]],
    planted: Sequence[bool],
    rng: np.random.Generator,
) -> QuerySet:
    """One query per flag: planted (correlated with a stored vector) or fresh.

    A planted query exits early in ``mode="first"``; a fresh one runs every
    repetition and finds nothing — the two kinds load the filter funnel
    differently, which is what the paper's analysis turns on.
    """
    queries: list[frozenset[int]] = []
    sources: list[int | None] = []
    for is_planted in planted:
        if is_planted:
            source = int(rng.integers(len(stored)))
            queries.append(
                non_empty(distribution.sample_correlated(stored[source], PLANTED_ALPHA, rng))
            )
            sources.append(source)
        else:
            queries.append(non_empty(distribution.sample(rng)))
            sources.append(None)
    return QuerySet(queries, sources)


def request_mix(
    distribution: ItemDistribution,
    stored: Sequence[frozenset[int]],
    count: int,
    rng: np.random.Generator,
) -> list[QuerySet]:
    """``count`` requests: three single queries to every batch of eight."""
    sizes = [
        BATCH_REQUEST_QUERIES if number % (SINGLES_PER_BATCH + 1) == SINGLES_PER_BATCH else 1
        for number in range(count)
    ]
    flags = iter(half_planted(sum(sizes), rng))
    return [
        mixed_queries(distribution, stored, [next(flags) for _ in range(size)], rng)
        for size in sizes
    ]


# ---------------------------------------------------------------------- #
# Failure ledger
# ---------------------------------------------------------------------- #


@dataclass
class Ledger:
    """Operations attempted and failed; the first few failures are kept."""

    attempted: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, operations: int = 1) -> None:
        """Count ``operations`` attempts; all of them fail when ``ok`` is false."""
        self.attempted += operations
        if not ok:
            self.failed += operations
            if len(self.examples) < 10:
                self.examples.append(what)


def check_match(
    ledger: Ledger,
    query: frozenset[int],
    match: int | None,
    vector_of: Callable[[int], frozenset[int]],
    what: str,
) -> None:
    """A returned id must really satisfy the similarity threshold."""
    ok = match is None or braun_blanquet(vector_of(int(match)), query) >= THRESHOLD
    ledger.check(ok, f"{what}: id {match} is below the threshold")


# ---------------------------------------------------------------------- #
# The shared set-up: generate, build (timed), save
# ---------------------------------------------------------------------- #


@dataclass
class Shared:
    """What every workload starts from."""

    scale: Scale
    seed: int
    distribution: ItemDistribution
    vectors: list[frozenset[int]]
    index: SkewAdaptiveIndex
    path: Path
    tmp: Path
    build_seconds: float
    save_seconds: float
    seconds: float
    disk_bytes: int
    total_filters: int
    #: Span window of the build, when the traced pass ran it under wrappers.
    build_spans: tuple[int, int] | None = None

    @property
    def build_vectors_per_s(self) -> float:
        return len(self.vectors) / self.build_seconds

    @property
    def bytes_per_posting(self) -> float:
        return self.disk_bytes / self.total_filters


def save_median(index: Any, directory: Path, stem: str) -> tuple[Path, float]:
    """Save ``SAVES_PER_SETUP`` times to fresh paths; last path, median seconds."""
    seconds = []
    path = directory / f"{stem}_0.v3"
    for number in range(SAVES_PER_SETUP):
        path = directory / f"{stem}_{number}.v3"
        start = time.perf_counter()
        serialization.save_index(index, path, config=PersistenceConfig(shards=8))
        seconds.append(time.perf_counter() - start)
    return path, statistics.median(seconds)


def shared_setup(scale: Scale, seed: int, tmp: Path) -> Shared:
    """Generate the dataset, build the index once (timed) and save it as v3."""
    start = time.perf_counter()
    distribution = skewed_distribution()
    vectors = [
        non_empty(vector)
        for vector in distribution.sample_many(scale.num_vectors, rng_for(seed, STREAM_DATASET))
    ]
    generated = time.perf_counter()
    index = SkewAdaptiveIndex(
        distribution,
        config=SkewAdaptiveIndexConfig(seed=3, repetitions=scale.repetitions),
    )
    index.build(vectors)
    built = time.perf_counter()
    path, save_seconds = save_median(index, tmp, "index")
    return Shared(
        scale=scale,
        seed=seed,
        distribution=distribution,
        vectors=vectors,
        index=index,
        path=path,
        tmp=tmp,
        build_seconds=built - generated,
        save_seconds=save_seconds,
        seconds=time.perf_counter() - start,
        disk_bytes=serialization.index_disk_bytes(path),
        total_filters=index.total_stored_filters,
    )


# ---------------------------------------------------------------------- #
# Inputs and reference answers shared by the read workloads
# ---------------------------------------------------------------------- #


def planted_probe_pool(shared: Shared, rng: np.random.Generator, count: int) -> list[QuerySet]:
    """``count`` sets of planted join probes (every probe has a true partner)."""
    return [
        mixed_queries(
            shared.distribution, shared.vectors, [True] * shared.scale.join_probes, rng
        )
        for _ in range(count)
    ]


@dataclass
class Reference:
    """The saved files opened in this process (mmap) and what they answer."""

    index: Any
    answers: list[list[int | None]]
    pairs: list[set[tuple[int, int]]]
    recall: float


def reference_answers(
    shared: Shared, requests: Sequence[QuerySet], join_pool: Sequence[QuerySet], predicate: Any
) -> Reference:
    """Expected results of the serving workloads, outside every timed region.

    One large ``query_batch`` answers like the many small calls (the batch
    contract), so the whole request pool is resolved in one pass.
    """
    index = serialization.load_index(shared.path, mode="mmap")
    flat, _ = index.query_batch([query for request in requests for query in request.queries])
    answers: list[list[int | None]] = []
    position = 0
    for request in requests:
        answers.append(flat[position : position + len(request)])
        position += len(request)
    planted = sum(request.num_planted for request in requests)
    found = sum(
        1
        for request, matches in zip(requests, answers)
        for source, match in zip(request.planted_from, matches)
        if source is not None and match is not None
    )
    pairs = [similarity_join(index, pool.queries, predicate).pair_set() for pool in join_pool]
    return Reference(index, answers, pairs, found / planted)


# ---------------------------------------------------------------------- #
# Measuring
# ---------------------------------------------------------------------- #


def timed_rounds(
    budget_seconds: float, min_rounds: int, run_round: Callable[[int], None], walls: list[float]
) -> None:
    """Call ``run_round(k)`` for k = len(walls), … until the budget is spent.

    Each round's wall seconds are appended to ``walls``, so a phase that is
    visited once per cycle keeps counting where it stopped.  ``min_rounds``
    (in total) run whatever they cost: the counts taken from that prefix
    repeat exactly for a seed on any machine.
    """
    deadline = time.perf_counter() + budget_seconds
    while len(walls) < min_rounds or time.perf_counter() < deadline:
        start = time.perf_counter()
        run_round(len(walls))
        walls.append(time.perf_counter() - start)


def per_second(work_per_round: float, walls: Sequence[float]) -> float:
    """Throughput over all rounds: total work over total wall."""
    return work_per_round * len(walls) / sum(walls)


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (the definition ``serve.metrics`` uses)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], quantile: float = 0.95) -> float:
    """Median over consecutive time slices of each slice's percentile.

    ``values`` are in time order.  A percentile of the whole run is set by
    whichever few seconds the machine happened to be slow in; the median of
    per-slice percentiles keeps measuring the steady-state tail (slices of
    at least 40 samples, five at most) and shrugs off one bad stretch.
    """
    slices = max(1, min(5, len(values) // 40))
    size = len(values) / slices
    return statistics.median(
        percentile(values[round(k * size) : round((k + 1) * size)], quantile)
        for k in range(slices)
    )


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cold_opens(
    context: "Context", path: Path, mode: str, count: int, reference: Any
) -> list[dict[str, Any]]:
    """Time ``load_index(path, mode)`` + a first query in ``count`` fresh interpreters.

    Imports are excluded (done before the clock starts in the child); the
    page cache is warm, so this is process cold start, not cold disk.  The
    query is a fresh draw, which runs every repetition and so touches every
    shard file; its answer must equal ``reference.query``'s.
    """
    shared = context.shared
    query = non_empty(shared.distribution.sample(rng_for(shared.seed, STREAM_COLD_OPEN)))
    results = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(PERF_DIR / "cold_open.py"), str(path), mode],
            input=json.dumps(sorted(query)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        results.append(json.loads(completed.stdout.splitlines()[-1]))
    expected = reference.query(query)[0]
    context.ledger.check(
        all(entry["match"] == expected for entry in results),
        f"cold open ({mode}): first answer differs from the reference index's {expected}",
        count,
    )
    return results


def cold_open_ms(results: Sequence[dict[str, Any]]) -> float:
    return statistics.median(entry["open_ms"] + entry["query_ms"] for entry in results)


# ---------------------------------------------------------------------- #
# Fingerprint
# ---------------------------------------------------------------------- #


def _git(*args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _cpu_brand() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict[str, Any]:
    """Where a result came from; ``compare.py`` refuses to gate across classes."""
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_brand(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels.active_backend(),
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
    }


# ---------------------------------------------------------------------- #
# What a workload is handed and hands back
# ---------------------------------------------------------------------- #


@dataclass
class Context:
    """One workload run: its inputs, budget, ledger and (traced pass) tracer."""

    shared: Shared
    seconds: float
    ledger: Ledger
    tracer: Any = None
    layers: Any = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def cycles(self) -> int:
        """Visits per phase: the traced pass keeps each phase in one span window."""
        return 1 if self.traced else CYCLES

    def mark(self) -> int:
        """Current position in the span list (0 in an untraced run)."""
        return self.tracer.mark() if self.traced else 0

    def wrappers(self, on: bool) -> None:
        """Install or remove the span wrappers; nothing to do in an untraced run."""
        if self.traced:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    def paired(self, rounds: int) -> int:
        """``rounds`` inputs' worth of rounds: twice as many when they come in pairs."""
        return rounds * 2 if self.traced else rounds

    def paired_round(self, number: int) -> tuple[int, bool]:
        """Map round ``number`` to ``(input round, runs under the wrappers)``.

        In the traced pass the rounds of a workload's main phase come in
        pairs over the same inputs: first with the wrappers off (the
        reference), then with them on.  The two legs interleave, so machine
        drift cancels and ``trace.overhead_share`` is their ratio.
        """
        if not self.traced:
            return number, False
        pair, second = divmod(number, 2)
        self.wrappers(bool(second))
        return pair, bool(second)


def overhead_share(paired_walls: Sequence[float]) -> float:
    """Median over the pairs of traced wall / reference wall, minus one.

    The two legs of a pair are a fraction of a second apart, so they mostly
    share a machine state; the median drops the pairs that straddle a change.
    """
    ratios = [
        traced / reference for reference, traced in zip(paired_walls[0::2], paired_walls[1::2])
    ]
    return statistics.median(ratios) - 1.0


@dataclass
class Outcome:
    """A workload's own preparation time, metrics and the sample counts behind them."""

    prep_seconds: float
    metrics: dict[str, float]
    samples: dict[str, int] = field(default_factory=dict)
