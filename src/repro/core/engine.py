"""The generic locality-sensitive filtering engine.

Both index variants of the paper (adversarial and correlated) and the Chosen
Path baseline share the same skeleton — generate filters for every dataset
vector, store them in an inverted index, and at query time examine the
vectors colliding with the query's filters.  :class:`FilterEngine`
implements that skeleton once, parameterised by a
:class:`~repro.core.thresholds.ThresholdPolicy` and by the stopping rule.

Multiple independent repetitions are used to boost the per-repetition success
probability of Lemma 5 (roughly ``1/log n``) to a constant; the engine builds
``repetitions`` copies of the filter structure, each with its own hash
functions, and a query probes them in order until it finds an acceptable
vector.

Query execution is CSR-native: from probe-key lookup to the final candidate
set, data stays in flat numpy arrays.  Every query surface resolves its
folded path keys through the stores' ``probe_batch_routed`` (one
``searchsorted`` over a sorted key table per repetition and shard), the
gathered posting segments are merged with sort/unique array passes,
tombstones are filtered as a vectorised mask, and verification consumes the
merged id arrays directly.

The engine is storage-agnostic: the per-repetition postings stores may be
in-memory :class:`~repro.core.inverted_index.InvertedFilterIndex` instances
(built or RAM-loaded), memory-mapped
:class:`~repro.core.mmap_store.ShardedInvertedFilterIndex` views of a
format v3 file set, or shard workers behind a router — all serve the same
probe contract, so every query surface answers bit-identically in any mode;
:class:`_WaveProbes` is the one place that knows which it is talking to.
Execution is serial on the calling thread: chunks run one after another and
a sharded store resolves its shards in turn; the one fan-out is the shard
router's, over worker processes.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from repro.core.config import DEFAULT_BATCH_SIZE
from repro.core.dtypes import ID_DTYPE, OFFSET_DTYPE, REPETITION_DTYPE
from repro.core.inverted_index import InvertedFilterIndex, _segment_gather, _segments_differ
from repro.core.kernels import get_impl, new_counters
from repro.core.mmap_store import LazyVectorStore
from repro.core.paths import FilterBatch, PathGenerator, VectorBatch, default_max_depth
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.core.thresholds import ThresholdPolicy
from repro.hashing.pairwise import PathHasher
from repro.hashing.random_source import derive_seed
from repro.similarity.measures import FROM_COUNTS, braun_blanquet

SetLike = Iterable[int]
SimilarityFunction = Callable[[frozenset[int], frozenset[int]], float]


class DeadlineExceededError(TimeoutError):
    """A query's deadline expired before execution finished.

    Deadlines are absolute wall-clock epochs (``time.time()`` scale) so
    they survive process and host boundaries: the serving layer stamps one
    from ``X-Repro-Deadline-Ms``, the engine checks it between execution
    chunks, and the shard router forwards it inside each probe frame so
    workers stop working — not just stop being waited on — once the budget
    is spent.  The serving layer maps this to ``504 Gateway Timeout``.
    """

#: Vectors per generation chunk during :meth:`FilterEngine.build`.  Results
#: do not depend on it.  Deliberately small for now: the array-native build
#: is about twice as fast again at 512 (the per-level array-operation
#: overhead amortises over more vectors), but the repository benchmark
#: bounds a metric's run-to-run spread at 25 % of the *previous* commit's
#: median, so it cannot resolve a build-throughput step much beyond 1.5x on
#: a box whose speed drifts ~10 % between runs.  Raise it in steps (ROADMAP,
#: "Open items") rather than at once.
_BUILD_GENERATION_BATCH = 24

#: Rows — (repetition, query) pairs — one fused generation pass is sized for:
#: the read surfaces generate ``max(1, _WAVE_VIRTUAL_VECTORS // live
#: queries)`` repetitions per pass.  A level-synchronous pass costs a fixed
#: number of array operations per level whatever it carries, so few queries
#: gain most from sharing one.  Generating all 14 repetitions of a chunk,
#: fused against one repetition per pass (n = 5000, numpy kernels): 7.3x
#: for 1 query, 4.7x for 8, 2.7x for 18; at this constant's widths 2.2x for
#: 32 queries (8 per pass), 1.4x for 64 (4), 1.1x for 128 (2); for 256
#: queries every width above 1 loses (0.7-0.97x).  Wider waves than that
#: buy little and make ``mode="first"`` generate more filters it never probes.
_WAVE_VIRTUAL_VECTORS = 256

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: Ends every sorted packed array searched below, so a lookup never runs off it.
_SENTINEL = np.iinfo(np.int64).max


class _LabelledSets(NamedTuple):
    """Sets as sorted packed ``label * stride + item`` members (label: position
    in ``sets``), then ``_SENTINEL``; all items are in ``[0, stride)``."""

    sets: Sequence[frozenset[int]]
    members: np.ndarray
    sizes: np.ndarray
    stride: int


def default_repetitions(num_vectors: int) -> int:
    """Default number of independent filter structures: ``ceil(log2 n) + 1``.

    Lemma 5 guarantees a per-repetition collision probability of at least
    ``1/log n`` for similar pairs, so a logarithmic number of repetitions
    yields constant success probability (the paper's footnote 2).
    """
    if num_vectors <= 1:
        return 1
    return int(math.ceil(math.log2(num_vectors))) + 1


def _first_filter_with_same_path(filters: FilterBatch) -> np.ndarray | None:
    """Per filter of a batch, the index of the first filter with the same path.

    ``None`` when no two filters share a folded key (then none share a path
    either) — the common case for a single query.  Filters are grouped by
    key with one stable sort; every repeat of a key is then compared
    item-by-item against the group's first filter, and a group found to hold
    two *distinct* paths (a 64-bit collision) is re-resolved exactly by path
    content, so deduplicating on the result is as collision-free as
    deduplicating on the paths themselves.
    """
    keys = filters.keys
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats_key = sorted_keys[1:] == sorted_keys[:-1]
    if not repeats_key.any():
        return None
    # Stable order: each equal-key run starts at its earliest filter.
    starts_run = np.ones(keys.size, dtype=bool)
    np.logical_not(repeats_key, out=starts_run[1:])
    run_first = order[np.flatnonzero(starts_run)]
    representative = np.empty(keys.size, dtype=OFFSET_DTYPE)
    representative[order] = run_first[np.cumsum(starts_run) - 1]

    repeats = order[1:][repeats_key]
    originals = representative[repeats]
    path_items = filters.path_items
    path_offsets = filters.path_offsets
    path_lengths = np.diff(path_offsets)
    foreign = path_lengths[repeats] != path_lengths[originals]
    same_length = np.flatnonzero(~foreign)
    foreign[same_length] = _segments_differ(
        path_items,
        path_offsets[repeats[same_length]],
        path_items,
        path_offsets[originals[same_length]],
        path_lengths[repeats[same_length]],
    )
    if foreign.any():
        colliding = np.flatnonzero(np.isin(representative, originals[foreign]))
        first_with_path: dict[tuple[int, tuple[int, ...]], int] = {}
        for probe, key_group in zip(colliding.tolist(), representative[colliding].tolist()):
            path = tuple(path_items[path_offsets[probe] : path_offsets[probe + 1]].tolist())
            representative[probe] = first_with_path.setdefault((key_group, path), probe)
    return representative


class _FilterWaves:
    """Each repetition's query filters in turn, generated in fused waves.

    The read surfaces probe repetitions strictly in order (``mode="first"``
    decides its early exits between them), but filters need not be
    *generated* one repetition at a time: a wave generates the next
    ``max(1, _WAVE_VIRTUAL_VECTORS // live queries)`` repetitions of the
    live queries in one pass, and :meth:`filters` hands them out one
    repetition at a time, restricted to the queries still live by then.
    The width depends only on the input — how many queries are live and how
    many repetitions remain — and never changes what a repetition's filters
    are, only when they are computed; the kernel counters do count a wave's
    unused tail.
    """

    def __init__(
        self,
        generator: PathGenerator,
        policy: ThresholdPolicy,
        queries: Sequence[frozenset[int]],
        counters: np.ndarray,
    ):
        self._generator = generator
        self._policy = policy
        self._queries = queries
        self._counters = counters
        self._vectors: VectorBatch | None = None
        self._wave: FilterBatch | None = None
        self._wave_start = 0
        #: Positions in ``queries`` the current wave was generated for.
        self._wave_queries = np.empty(0, dtype=OFFSET_DTYPE)
        #: Wall time spent binding, generating and subsetting.
        self.seconds = 0.0

    def filters(self, repetition: int, live: Sequence[int]) -> FilterBatch:
        """``repetition``'s filters of ``queries[k] for k in live``.

        ``live`` is ascending and only ever shrinks from one call to the
        next; repetitions are asked for in order.
        """
        start = time.perf_counter()
        wave = self._wave
        if wave is None or repetition >= self._wave_start + wave.repetitions:
            if self._vectors is None or len(live) != self._wave_queries.size:
                self._vectors = VectorBatch.bind(
                    [self._queries[position] for position in live], self._policy
                )
            width = min(
                self._generator.repetitions - repetition,
                max(1, _WAVE_VIRTUAL_VECTORS // len(live)),
            )
            wave = self._wave = self._generator.generate_batch(
                self._vectors, self._counters, range(repetition, repetition + width)
            )
            self._wave_start = repetition
            self._wave_queries = np.asarray(live, dtype=OFFSET_DTYPE)
        filters = wave.repetition(repetition - self._wave_start)
        if len(live) != self._wave_queries.size:
            filters = filters.take(np.searchsorted(self._wave_queries, live))
        self.seconds += time.perf_counter() - start
        return filters

    @property
    def end(self) -> int:
        """The first repetition past the current wave."""
        assert self._wave is not None
        return self._wave_start + self._wave.repetitions


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive ``values`` begins."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _distinct_probes(
    filters: FilterBatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """A batch's filters deduplicated *by path*: the probes, and who shares them.

    Two queries sharing a filter probe it once: :func:`_first_filter_with_
    same_path` groups the filters by folded key and verifies the paths, so
    the dedupe stays as collision-free as the probe itself.  Returns the
    distinct probes ``(probe_items, probe_offsets, probe_keys)`` in
    first-appearance order and each filter's index among them — ``None``
    when the filters are the probes: no two even share a key, or they are
    one vector's (distinct nodes of one tree, by construction).
    """
    representative = None if len(filters) == 1 else _first_filter_with_same_path(filters)
    if representative is None:
        return filters.path_items, filters.path_offsets, filters.keys, None
    is_distinct = representative == np.arange(filters.num_filters, dtype=OFFSET_DTYPE)
    distinct_filters = np.flatnonzero(is_distinct)
    probe_lengths = np.diff(filters.path_offsets)[distinct_filters]
    probe_offsets = np.zeros(distinct_filters.size + 1, dtype=OFFSET_DTYPE)
    np.cumsum(probe_lengths, out=probe_offsets[1:])
    probe_items = _segment_gather(
        filters.path_items, filters.path_offsets[distinct_filters], probe_lengths
    )
    slots = (np.cumsum(is_distinct) - 1)[representative]
    return probe_items, probe_offsets, filters.keys[distinct_filters], slots


class _WaveProbes:
    """Each repetition's resolved probes for the live queries, in turn.

    The read runners merge, verify and decide ``mode="first"`` exits one
    repetition at a time, in order; this is the one place that decides *when*
    a repetition's filters meet the store.  An in-process store (RAM, mmap)
    is probed on demand, one repetition per call: it has no round trip to
    save, and a probe an early exit avoids is work avoided.  Behind a shard
    router every call is a round trip per worker whatever it carries, so a
    whole span of repetitions is resolved in **one** fan-out as soon as its
    filters exist — the generation wave, or every repetition on an
    ``exhaustive`` surface (no early exit: certain to probe them all) — and
    handed out repetition by repetition, restricted to the queries still
    live.  What is handed out is, row for row and count for count, what
    probing just those queries returns; only the router's own fan-out record
    counts the speculative tail.

    Each repetition's probes are deduplicated across the queries first.
    ``seconds`` is the wall time of probing and bookkeeping, generation
    excluded — merge time, even for a fan-out issued when a wave is generated.
    ``allow_partial`` and ``deadline`` are the request's scope, handed to
    every router fan-out (in-process stores have no workers to lose).
    """

    def __init__(
        self,
        engine: "FilterEngine",
        waves: _FilterWaves,
        exhaustive: bool,
        allow_partial: bool = False,
        deadline: float | None = None,
    ):
        self._waves = waves
        self._indexes = engine._indexes
        self._router = engine._shard_router
        self._allow_partial = allow_partial
        self._deadline = deadline
        #: Where a routed span ends; ``None``: with the generation wave.
        self._span_end = engine.repetitions if exhaustive else None
        #: Repetitions ``[_start, _end)`` are resolved, for the queries ``_live``.
        self._start = self._end = 0
        self._live: Sequence[int] = ()
        self._resolved: list[Any] = []
        self.seconds = 0.0

    def _probe_set(self, repetition: int, live: Sequence[int]) -> tuple[Any, ...]:
        """``(vector_offsets, probe_items, probe_offsets, probe_keys, slots)``."""
        filters = self._waves.filters(repetition, live)
        return (filters.vector_offsets, *_distinct_probes(filters))

    def _resolve(self, repetition: int, live: Sequence[int]) -> None:
        """Generate and probe the span of repetitions starting at ``repetition``."""
        sets = [self._probe_set(repetition, live)]
        end = repetition + 1
        if self._router is None:
            vector_offsets, items, probe_offsets, keys, slots = sets[0]
            resolved = self._indexes[repetition].probe_batch_routed(items, probe_offsets, keys)
            self._resolved = [(vector_offsets, *resolved, slots)]
        else:
            end = self._span_end or self._waves.end
            sets += [self._probe_set(later, live) for later in range(repetition + 1, end)]
            # One request for the span; rebinding each name to its concatenation
            # leaves the request the only holder of the span's filters.
            vector_offsets, items, probe_offsets, keys, slots = zip(*sets)
            del sets
            bounds = np.cumsum([0, *(part.size for part in keys)]).tolist()
            column = np.repeat(np.arange(repetition, end, dtype=REPETITION_DTYPE), np.diff(bounds))
            items, keys = np.concatenate(items), np.concatenate(keys)
            lengths = np.concatenate([np.diff(part) for part in probe_offsets])
            probe_offsets = np.zeros(keys.size + 1, dtype=OFFSET_DTYPE)
            np.cumsum(lengths, out=probe_offsets[1:])
            ids, offsets, route = self._router.probe_batch_routed(
                column,
                items,
                probe_offsets,
                keys,
                allow_partial=self._allow_partial,
                deadline=self._deadline,
            )
            self._resolved = [
                (
                    vector_offsets[position],
                    ids[offsets[low] : offsets[high]],
                    offsets[low : high + 1] - offsets[low],
                    route[low:high],
                    slots[position],
                )
                for position, (low, high) in enumerate(zip(bounds, bounds[1:]))
            ]
        self._start, self._end, self._live = repetition, end, live

    def probe(self, repetition: int, live: Sequence[int]) -> tuple[Any, ...]:
        """``repetition``'s probes of ``queries[k] for k in live``, resolved.

        Returns ``(vector_offsets, ids, offsets, route, slots, distinct)``:
        live query ``k`` owns the filters ``vector_offsets[k]:vector_offsets[k
        + 1]``; filter ``f`` collided with ``ids[offsets[s]:offsets[s + 1]]``
        in shard ``route[s]``, where ``s = slots[f]`` (``f`` itself when
        ``slots`` is ``None``); ``distinct`` of those filters are distinct
        paths.  ``live`` is ascending and only ever shrinks; repetitions are
        asked for in order, each once.
        """
        start = time.perf_counter()
        generating = self._waves.seconds
        if repetition >= self._end:
            self._resolve(repetition, live)
        position = repetition - self._start
        vector_offsets, ids, offsets, route, slots = self._resolved[position]
        self._resolved[position] = None  # handed out once: rows die with their reader
        distinct = offsets.size - 1
        if len(live) != len(self._live):
            # Resolved for more queries than are still live: keep their filters.
            alive = np.isin(self._live, live, assume_unique=True)
            counts = np.diff(vector_offsets)
            kept = np.flatnonzero(np.repeat(alive, counts))
            slots = kept if slots is None else slots[kept]
            distinct = int(np.unique(slots).size)
            vector_offsets = np.zeros(len(live) + 1, dtype=OFFSET_DTYPE)
            np.cumsum(counts[alive], out=vector_offsets[1:])
        self.seconds += time.perf_counter() - start - (self._waves.seconds - generating)
        return vector_offsets, ids, offsets, route, slots, distinct

    def chunk(
        self, repetition: int, live: Sequence[int], chunk_stats: BatchQueryStats
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """:meth:`probe` for a chunk: per-query collision streams, accounted.

        Returns ``(occurrence_ids, occurrence_labels)``: the live queries'
        streams concatenated in ``live`` order — each query's filters' posting
        lists in path order — and each occurrence's label, its query's chunk
        position (ascending, so a label's stream ends where
        ``occurrence_labels.searchsorted(label, side="right")`` says).
        ``None`` when no live query collided with anything.  Accounts every
        as-if count the repetition moves: the chunk's distinct / duplicate
        probes and distinct shards, and per live query its filters, its
        stream length and the distinct shards its own filters routed to, all
        from the probe's one routing vector.
        """
        vector_offsets, ids, offsets, route, slots, distinct = self.probe(repetition, live)
        num_filters = int(vector_offsets[-1])
        if not num_filters:
            for index in live:
                chunk_stats.per_query[index].repetitions_used += 1
            return None
        start = time.perf_counter()
        if slots is None:
            occurrence_ids, occurrence_bounds, filter_route = ids, offsets, route
        else:
            # Re-expand the distinct probes' segments to one per filter.
            per_path = (offsets[1:] - offsets[:-1])[slots]
            occurrence_ids = _segment_gather(ids, offsets[:-1][slots], per_path)
            occurrence_bounds = np.zeros(num_filters + 1, dtype=OFFSET_DTYPE)
            np.cumsum(per_path, out=occurrence_bounds[1:])
            filter_route = route[slots]
        query_offsets = occurrence_bounds[vector_offsets]
        filter_counts = vector_offsets[1:] - vector_offsets[:-1]
        stream_counts = query_offsets[1:] - query_offsets[:-1]
        # The distinct shards the chunk touched, and each query.  (Array
        # methods and ufuncs throughout: a repetition's arrays are small, so
        # numpy's Python-level wrappers would cost more than the work.)
        width = int(np.maximum.reduce(filter_route)) + 1
        if width == 1:  # one shard, say an in-memory store
            query_shards = (filter_counts > 0).astype(np.int64)
            chunk_stats.shards_probed += 1
        else:
            filter_query = np.arange(len(live), dtype=OFFSET_DTYPE).repeat(filter_counts)
            touched = np.zeros((len(live), width), dtype=bool)
            touched[filter_query, filter_route] = True
            query_shards = touched.sum(axis=1)
            chunk_stats.shards_probed += int(np.count_nonzero(np.logical_or.reduce(touched)))
        chunk_stats.distinct_filter_probes += distinct
        chunk_stats.duplicate_filter_probes += num_filters - distinct
        self.seconds += time.perf_counter() - start
        for index, count, examined, shards in zip(
            live, filter_counts.tolist(), stream_counts.tolist(), query_shards.tolist()
        ):
            query_stats = chunk_stats.per_query[index]
            query_stats.filters_generated += count
            query_stats.repetitions_used += 1
            query_stats.candidates_examined += examined
            query_stats.shards_probed += shards
        if not occurrence_ids.size:
            return None
        return occurrence_ids, np.asarray(live, dtype=np.int64).repeat(stream_counts)


class FilterEngine:
    """Shared build/query machinery for locality-sensitive filtering indexes.

    Parameters
    ----------
    probabilities:
        Item-level probabilities ``p_i`` (used by the stopping rule and, for
        the correlated policy, by the thresholds).
    threshold_policy:
        The sampling-threshold policy ``s(x, j, i)``.
    acceptance_threshold:
        Braun-Blanquet similarity at which a candidate is reported.
    num_vectors_hint:
        Expected dataset size ``n``; used for the ``1/n`` stopping product
        and the default number of repetitions before :meth:`build` is called.
    repetitions:
        Number of independent filter structures (``None`` = default).
    max_depth:
        Hard recursion-depth cap (``None`` = derive from ``n`` and ``p_max``).
    collect_at_max_depth:
        Baseline behaviour flag forwarded to :class:`PathGenerator`.
    stop_product_enabled:
        If False, the ``1/n`` product stopping rule is disabled (Chosen Path
        baseline uses only the fixed depth).
    max_paths_per_vector:
        Safety cap forwarded to :class:`PathGenerator`.
    similarity:
        Similarity function used for candidate verification (defaults to
        Braun-Blanquet, the paper's measure).
    seed:
        Master seed for all hash functions.
    """

    def __init__(
        self,
        probabilities: np.ndarray | Sequence[float],
        threshold_policy: ThresholdPolicy,
        acceptance_threshold: float,
        num_vectors_hint: int,
        repetitions: int | None = None,
        max_depth: int | None = None,
        collect_at_max_depth: bool = False,
        stop_product_enabled: bool = True,
        max_paths_per_vector: int | None = 50_000,
        similarity: SimilarityFunction | None = None,
        seed: int = 0,
    ):
        self._probabilities = np.asarray(probabilities, dtype=np.float64)
        if self._probabilities.ndim != 1 or self._probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if not 0.0 <= acceptance_threshold <= 1.0:
            raise ValueError(
                f"acceptance_threshold must be in [0, 1], got {acceptance_threshold}"
            )
        if num_vectors_hint <= 0:
            raise ValueError(f"num_vectors_hint must be positive, got {num_vectors_hint}")

        self._threshold_policy = threshold_policy
        self._acceptance_threshold = float(acceptance_threshold)
        self._num_vectors_hint = int(num_vectors_hint)
        self._repetitions = (
            repetitions if repetitions is not None else default_repetitions(num_vectors_hint)
        )
        if self._repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {self._repetitions}")
        max_probability = float(self._probabilities.max())
        self._max_depth = (
            max_depth
            if max_depth is not None
            else default_max_depth(num_vectors_hint, max_probability)
        )
        self._collect_at_max_depth = bool(collect_at_max_depth)
        self._stop_product = (
            1.0 / float(num_vectors_hint) if stop_product_enabled else None
        )
        self._max_paths_per_vector = max_paths_per_vector
        self._similarity = similarity if similarity is not None else braun_blanquet
        self._seed = int(seed)
        # Shard router behind a router-backed (multi-process) index; set by
        # repro.dist.load_routed_index.  Typed loosely to keep core free of
        # a dist dependency — the engine only drains its fan-out stats.
        self._shard_router: Any | None = None

        # One generator owns every repetition's hash functions, so a pass
        # can cover several repetitions and the per-engine tables (clamped
        # log-probabilities, per-level coefficients) exist once.
        self._generator = PathGenerator(
            self._probabilities,
            [
                PathHasher(derive_seed(self._seed, "repetition", repetition))
                for repetition in range(self._repetitions)
            ],
            stop_product=self._stop_product,
            max_depth=self._max_depth,
            collect_at_max_depth=self._collect_at_max_depth,
            max_paths=self._max_paths_per_vector,
        )
        self._indexes: list[InvertedFilterIndex] = [
            InvertedFilterIndex() for _ in range(self._repetitions)
        ]
        self._vectors: list[frozenset[int]] = []
        self._removed: set[int] = set()
        self._build_stats = BuildStats()
        # CSR view (flat items, start offsets, sizes) of the stored vectors,
        # built lazily for vectorised verification; reset by build()/insert().
        self._candidate_store: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Tombstones as a boolean mask over vector ids, built lazily for the
        # vectorised filtering step; invalidated whenever the removed set or
        # the vector count changes.
        self._removed_mask: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def repetitions(self) -> int:
        return self._repetitions

    @property
    def num_vectors_hint(self) -> int:
        """The dataset-size hint the engine's parameters were derived from.

        The stopping product, default repetition count, default depth and
        (for the correlated policy) the sampling thresholds all depend on
        this value, so persistence must reconstruct the engine with the
        *original* hint — not the current vector count, which drifts as
        vectors are inserted after the build.
        """
        return self._num_vectors_hint

    @property
    def acceptance_threshold(self) -> float:
        return self._acceptance_threshold

    @property
    def threshold_policy(self) -> ThresholdPolicy:
        return self._threshold_policy

    @property
    def vectors(self) -> Sequence[frozenset[int]]:
        """The stored dataset vectors (indexable by the returned ids)."""
        return self._vectors

    @property
    def build_stats(self) -> BuildStats:
        return self._build_stats

    @property
    def total_stored_filters(self) -> int:
        """Total number of (filter, vector) postings across repetitions."""
        return sum(index.total_entries for index in self._indexes)

    @property
    def filter_indexes(self) -> Sequence[InvertedFilterIndex]:
        """The per-repetition postings stores (read-only view)."""
        return tuple(self._indexes)

    @property
    def removed_ids(self) -> frozenset[int]:
        """The currently tombstoned vector ids."""
        return frozenset(self._removed)

    @property
    def shard_router(self) -> Any | None:
        """The shard router fanning this engine's probes across workers.

        ``None`` in every single-process mode.  Set by
        :func:`repro.dist.load_routed_index`; the query surfaces hand it
        whole waves of repetitions (``probe_batch_routed``) and drain its
        per-batch fan-out accounting into ``BatchQueryStats.fanout``.
        """
        return self._shard_router

    @shard_router.setter
    def shard_router(self, router: Any | None) -> None:
        if router is not None and not (
            hasattr(router, "probe_batch_routed") and hasattr(router, "take_fanout_stats")
        ):
            raise ValueError(
                "shard_router must expose probe_batch_routed() and "
                f"take_fanout_stats() (got {type(router).__name__})"
            )
        self._shard_router = router

    # ------------------------------------------------------------------ #
    # State restoration (persistence)
    # ------------------------------------------------------------------ #

    def restore_state(
        self,
        vectors: Sequence[frozenset[int]],
        removed: Iterable[int],
        build_stats: BuildStats,
        filter_indexes: Sequence[InvertedFilterIndex],
    ) -> None:
        """Adopt a previously built engine state (used by ``load_index``).

        Replaces the stored vectors, tombstones, build statistics and
        per-repetition postings stores wholesale — no filters are generated.
        The engine must have been constructed with the same configuration
        (seed, thresholds, repetitions) as the one that produced the state,
        otherwise queries will not line up with the stored postings.
        """
        if len(filter_indexes) != self._repetitions:
            raise ValueError(
                f"state has {len(filter_indexes)} repetitions, "
                f"engine expects {self._repetitions}"
            )
        # mmap mode adopts the mapped view as-is: materialising it here would
        # page the whole vector store in and defeat lazy loading.
        if not isinstance(vectors, LazyVectorStore):
            vectors = [
                members
                if type(members) is frozenset
                else frozenset(int(item) for item in members)
                for members in vectors
            ]
        removed_set = {int(vector_id) for vector_id in removed}
        out_of_range = [v for v in removed_set if not 0 <= v < len(vectors)]
        if out_of_range:
            raise ValueError(f"removed ids out of range: {sorted(out_of_range)}")
        self._vectors = vectors
        self._removed = removed_set
        self._build_stats = build_stats
        self._indexes = list(filter_indexes)
        self._removed_mask = None
        # Vectorised verification reads a mapped store's CSR arrays directly;
        # only the small per-vector offset/size arrays are materialised.
        self._candidate_store = (
            vectors.csr_view() if isinstance(vectors, LazyVectorStore) else None
        )

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset.  Replaces any previously indexed data.

        Filter generation runs through the batched path generator: the
        vectors are processed in chunks whose candidate extensions are
        hashed in one vectorised call per recursion level, which is
        substantially faster than per-vector generation while producing
        exactly the same filters.  Each chunk is prepared once and generated
        per repetition; the resulting filter arrays go into the stores'
        append-only overlays as they are and are folded into the CSR arrays
        by one vectorised bulk compaction per repetition at the end.
        """
        build_start = time.perf_counter()
        self._vectors = [frozenset(int(item) for item in members) for members in collection]
        self._indexes = [InvertedFilterIndex() for _ in range(self._repetitions)]
        self._removed = set()
        self._candidate_store = None
        self._removed_mask = None
        stats = BuildStats(num_vectors=len(self._vectors), repetitions=self._repetitions)
        counters = new_counters()
        non_empty = np.asarray(
            [vector_id for vector_id, members in enumerate(self._vectors) if members],
            dtype=ID_DTYPE,
        )
        for start in range(0, non_empty.size, _BUILD_GENERATION_BATCH):
            vector_ids = non_empty[start : start + _BUILD_GENERATION_BATCH]
            vectors = VectorBatch.bind(
                [self._vectors[vector_id] for vector_id in vector_ids.tolist()],
                self._threshold_policy,
            )
            for repetition, index in enumerate(self._indexes):
                filters = self._generator.generate_batch(vectors, counters, (repetition,))
                index.add_csr(
                    np.repeat(vector_ids, filters.filter_counts),
                    filters.keys,
                    filters.path_items,
                    filters.path_offsets,
                )
                stats.total_filters += filters.num_filters
                stats.truncated_vectors += int(np.count_nonzero(filters.truncated))
                stats.generation_batches += 1
        for index in self._indexes:
            index.compact()
            # Fresh stores: their lifetime counters are exactly this build's
            # compaction work (forced-collision chain resolution).
            stats.kernel.add_counters(index.kernel_counters)
        stats.kernel.add_counters(counters)
        stats.build_seconds = time.perf_counter() - build_start
        self._build_stats = stats
        return stats

    # ------------------------------------------------------------------ #
    # Dynamic updates
    # ------------------------------------------------------------------ #

    def insert(self, members: SetLike) -> int:
        """Insert one vector into the already-built index and return its id.

        The structure's parameters (stopping product, repetitions, depth) were
        derived from the dataset size at build time; inserting a moderate
        number of additional vectors keeps the guarantees intact, but growing
        the dataset by large factors warrants a rebuild with an updated size
        hint.
        """
        vector = frozenset(int(item) for item in members)
        vector_id = len(self._vectors)
        self._vectors.append(vector)
        self._candidate_store = None
        self._removed_mask = None
        self._build_stats.num_vectors += 1
        if not vector:
            return vector_id
        counters = new_counters()
        members = sorted(vector)
        bound = self._threshold_policy.bind(members)
        for repetition, index in enumerate(self._indexes):
            result = self._generator.generate(members, bound, counters, repetition)
            index.add(vector_id, result.paths, keys=result.keys)
            self._build_stats.total_filters += len(result.paths)
            if result.truncated:
                self._build_stats.truncated_vectors += 1
        self._build_stats.kernel.add_counters(counters)
        return vector_id

    def remove(self, vector_id: int) -> None:
        """Remove a stored vector by id (tombstone; postings are not compacted).

        Removed ids are skipped by queries and joins; the space they occupy in
        posting lists is reclaimed on the next :meth:`build`.
        """
        if not 0 <= vector_id < len(self._vectors):
            raise IndexError(f"vector id {vector_id} is out of range")
        self._removed.add(vector_id)
        self._removed_mask = None

    def is_removed(self, vector_id: int) -> bool:
        """Whether the given id has been removed."""
        return vector_id in self._removed

    def _removed_lookup(self) -> np.ndarray | None:
        """Tombstones as a boolean mask over vector ids (``None`` if empty)."""
        if not self._removed:
            return None
        if self._removed_mask is None:
            self._removed_mask = np.zeros(len(self._vectors), dtype=bool)
            self._removed_mask[list(self._removed)] = True
        return self._removed_mask

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query_filters(self, query: SetLike, repetition: int) -> list[tuple[int, ...]]:
        """The filters ``F(q)`` of a query in one repetition (mainly for tests)."""
        members = sorted(int(item) for item in query)
        if not members:
            return []
        bound = self._threshold_policy.bind(members)
        return self._generator.generate(members, bound, repetition=repetition).paths

    def query(
        self,
        query: SetLike,
        mode: str = "first",
    ) -> tuple[int | None, QueryStats]:
        """Search for a stored vector similar to ``query``.

        Parameters
        ----------
        query:
            The query set.
        mode:
            ``"first"`` (default) returns the first candidate meeting the
            acceptance threshold, probing repetitions in order and stopping
            early — this matches the paper's query procedure.  ``"best"``
            examines all repetitions and returns the most similar candidate
            meeting the threshold (higher recall, more work).

        Returns
        -------
        (vector_id, stats):
            ``vector_id`` is the index of the reported vector in the built
            dataset, or ``None`` when no candidate met the threshold.
            ``stats`` is the paper's as-if work (see :class:`QueryStats`).

        The query runs as a one-query chunk of :meth:`query_batch`'s runner
        (so it never drains a shard router's pending fan-out record); the
        chunk's kernel counters are the query's.
        """
        if mode not in ("first", "best"):
            raise ValueError(f"mode must be 'first' or 'best', got {mode!r}")
        (result,), chunk_stats = self._query_batch_chunk(
            [frozenset(int(item) for item in query)], mode
        )
        stats = chunk_stats.per_query[0]
        stats.kernel = chunk_stats.kernel
        return result, stats

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        """All distinct candidate ids colliding with the query, plus stats.

        This is the primitive used by the similarity join: the caller decides
        which candidates to verify and against which predicate.  It runs as
        a one-query chunk of :meth:`query_candidates_arrays_batch` (so it
        never drains a shard router's pending fan-out record); the chunk's
        kernel counters are the query's.
        """
        (candidates,), chunk_stats = self._candidate_arrays_chunk(
            [frozenset(int(item) for item in query)]
        )
        stats = chunk_stats.per_query[0]
        stats.kernel = chunk_stats.kernel
        return set(candidates.tolist()), stats

    # ------------------------------------------------------------------ #
    # Batched queries
    # ------------------------------------------------------------------ #

    def query_batch(
        self,
        queries: Sequence[SetLike],
        mode: str = "first",
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[int | None], BatchQueryStats]:
        """Answer many queries at once, amortising work across the batch.

        Returns exactly the ids ``[query(q, mode)[0] for q in queries]``
        would return, and per query exactly ``query(q, mode)[1]``'s work
        counters (a duplicate query's entry is a cache hit), but executes
        the batch through the vectorised
        subsystem: filter generation is level-synchronous across the whole
        batch (one hash call per level per repetition), the batch's folded
        path keys are deduplicated and resolved in one array probe per
        repetition, candidate merging and verification run as array
        operations over CSR views, and exact duplicate queries are answered
        once.

        Parameters
        ----------
        queries:
            The query sets, in answer order.
        mode:
            ``"first"`` or ``"best"``; see :meth:`query`.
        batch_size:
            Queries per vectorised execution chunk
            (default :data:`~repro.core.config.DEFAULT_BATCH_SIZE`); chunks
            run one after another on the calling thread.
        allow_partial:
            Router-backed mode only: serve from the live shard workers when
            a worker's circuit breaker is open instead of failing the whole
            batch.  The returned ``BatchQueryStats.fanout`` then reports
            ``completeness < 1`` and the skipped ``shards_missing``;
            results are exactly the full results restricted to the live
            shards.  No effect (complete results) in single-process modes.
        deadline:
            Absolute wall-clock epoch (``time.time()`` scale) after which
            execution stops with :class:`DeadlineExceededError`; checked
            before every execution chunk and propagated into shard-worker
            probe frames in router-backed mode.
        """
        if mode not in ("first", "best"):
            raise ValueError(f"mode must be 'first' or 'best', got {mode!r}")
        return self._execute_batched(
            queries,
            lambda chunk: self._query_batch_chunk(chunk, mode, allow_partial, deadline),
            batch_size,
            deadline,
        )

    def query_candidates_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[set[int]], BatchQueryStats]:
        """Batched :meth:`query_candidates`: one candidate set per query.

        Results are exactly ``[query_candidates(q)[0] for q in queries]``.
        Consumers that can work on arrays directly (the similarity join)
        should prefer :meth:`query_candidates_arrays_batch`, which skips the
        final set materialisation.  The parameters are
        :meth:`query_batch`'s.
        """
        arrays, stats = self.query_candidates_arrays_batch(
            queries, batch_size, allow_partial, deadline
        )
        return [set(candidates.tolist()) for candidates in arrays], stats

    def query_candidates_arrays_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[np.ndarray], BatchQueryStats]:
        """Batched candidate enumeration returning sorted id arrays.

        Per query, the sorted ``int64`` array of distinct live candidate ids
        — the CSR merge's native output, handed over without building a
        Python set.  Treat the arrays as read-only (duplicate queries share
        one array).  Results are elementwise equal to
        ``sorted(query_candidates(q)[0])``.  The parameters are
        :meth:`query_batch`'s.
        """
        return self._execute_batched(
            queries,
            lambda chunk: self._candidate_arrays_chunk(chunk, allow_partial, deadline),
            batch_size,
            deadline,
        )

    def _execute_batched(
        self,
        queries: Sequence[SetLike],
        chunk_runner: Callable[[list[frozenset[int]]], tuple[list[Any], BatchQueryStats]],
        batch_size: int | None,
        deadline: float | None,
    ) -> tuple[list[Any], BatchQueryStats]:
        """Shared orchestration: dedupe, run the chunks in turn, merge."""
        start = time.perf_counter()
        usage_before = resource.getrusage(resource.RUSAGE_SELF) if resource else None
        query_sets = [frozenset(int(item) for item in query) for query in queries]
        chunk_size = int(batch_size) if batch_size is not None else DEFAULT_BATCH_SIZE
        if chunk_size <= 0:
            raise ValueError(f"batch_size must be positive, got {chunk_size}")

        # Each distinct set's position among the distinct sets, in
        # first-appearance order (dicts keep insertion order).
        position_of: dict[frozenset[int], int] = {}
        source = [position_of.setdefault(query, len(position_of)) for query in query_sets]
        unique_sets = list(position_of)

        outputs: list[tuple[list[Any], BatchQueryStats]] = []
        for first in range(0, len(unique_sets), chunk_size):
            # The budget is checked at every chunk boundary — coarse-grained
            # on purpose: a chunk is the unit of vectorised work, and stopping
            # between chunks never leaves partially merged state behind.
            if deadline is not None and time.time() >= deadline:
                raise DeadlineExceededError(
                    f"deadline expired {time.time() - deadline:.3f}s before "
                    f"execution chunk {first // chunk_size}"
                )
            outputs.append(chunk_runner(unique_sets[first : first + chunk_size]))

        merged = BatchQueryStats()
        unique_results: list[Any] = []
        unique_stats: list[QueryStats] = []
        for results, chunk_stats in outputs:
            unique_results.extend(results)
            unique_stats.extend(chunk_stats.per_query)
            merged.accumulate(chunk_stats)

        final_results: list[Any] = []
        answered: set[int] = set()
        for position in source:
            final_results.append(unique_results[position])
            entry = unique_stats[position]
            merged.per_query.append(entry.cache_hit() if position in answered else entry)
            answered.add(position)
        merged.num_queries = len(query_sets)
        merged.queries_deduplicated = len(query_sets) - len(unique_sets)
        if self._shard_router is not None:
            # Drain the router's per-worker accounting accrued by this
            # batch's probes (requests, rows, latency, failures) into the
            # batch record; lifetime totals stay with the router.
            merged.fanout.add(self._shard_router.take_fanout_stats())
        merged.elapsed_seconds = time.perf_counter() - start
        if usage_before is not None:
            usage_after = resource.getrusage(resource.RUSAGE_SELF)
            merged.minor_page_faults = usage_after.ru_minflt - usage_before.ru_minflt
            merged.major_page_faults = usage_after.ru_majflt - usage_before.ru_majflt
        return final_results, merged

    # ------------------------------------------------------------------ #
    # Batched chunk execution (CSR-native)
    # ------------------------------------------------------------------ #

    def _query_batch_chunk(
        self,
        chunk: Sequence[frozenset[int]],
        mode: str,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[int | None], BatchQueryStats]:
        """Answer one chunk of (already normalised, deduplicated) queries.

        One labelled pass per repetition: collisions are packed as ``label *
        n + id`` (label: the query's chunk position), so one first-appearance
        ``ordered_unique`` over the label-major stream is every query's own
        dedupe concatenated, and one segmented pass verifies the new pairs.

        Each query's counts are the paper's as-if work: in ``"first"`` mode
        they end at its hit — the hit's first appearance in the query's own
        collision stream, and its rank among the query's new pairs — where
        the paper's per-candidate loop stops, even though the pass verified
        the whole repetition.
        """
        chunk_stats = BatchQueryStats(
            num_queries=len(chunk), per_query=[QueryStats() for _ in chunk]
        )
        results: list[int | None] = [None] * len(chunk)
        if not len(self._vectors):
            return results, chunk_stats
        active = [index for index, query_set in enumerate(chunk) if query_set]
        if not active:
            return results, chunk_stats
        stride = len(self._vectors)
        queries = self._label_sets(chunk)
        # The (label, id) pairs verified so far, sorted and packed like ``labelled``.
        evaluated = np.array([_SENTINEL], dtype=np.int64)
        best_ids = np.full(len(chunk), -1, dtype=np.int64)
        best_similarities = np.full(len(chunk), -1.0, dtype=np.float64)
        removed = self._removed_lookup()
        impl = get_impl()
        counters = new_counters()
        waves = _FilterWaves(self._generator, self._threshold_policy, chunk, counters)
        probes = _WaveProbes(self, waves, mode == "best", allow_partial, deadline)

        for repetition in range(self._repetitions):
            if not active:
                break
            streams = probes.chunk(repetition, active, chunk_stats)
            if streams is None:
                continue
            occurrence_ids, occurrence_labels = streams
            merge_start = time.perf_counter()
            labelled = occurrence_labels * stride
            labelled += occurrence_ids
            ordered, first_positions = impl.ordered_unique(labelled, counters)
            fresh = evaluated[evaluated.searchsorted(ordered)] != ordered
            if removed is not None:
                fresh &= ~removed[ordered % stride]
            pairs = ordered[fresh]
            if pairs.size:
                # The fresh pairs are distinct and new: sorting the union is its merge.
                evaluated = np.sort(np.concatenate((evaluated, pairs)))
            chunk_stats.merge_seconds += time.perf_counter() - merge_start
            if not pairs.size:
                continue
            verification_start = time.perf_counter()
            labels, candidate_ids = np.divmod(pairs, stride)
            similarities = self._pair_similarities(queries, labels, candidate_ids)
            if mode == "first":
                hits = (similarities >= self._acceptance_threshold).nonzero()[0]
                if hits.size:
                    # The first hit of each label, in first-appearance order,
                    # and how much of the label's stream and new pairs follow it.
                    firsts = hits[_run_starts(labels[hits])]
                    hit_labels = labels[firsts]
                    unseen = occurrence_labels.searchsorted(hit_labels, side="right")
                    unseen -= first_positions[fresh][firsts] + 1
                    unverified = labels.searchsorted(hit_labels, side="right") - firsts - 1
                    for label, vector_id, skipped, spared in zip(
                        hit_labels.tolist(),
                        candidate_ids[firsts].tolist(),
                        unseen.tolist(),
                        unverified.tolist(),
                    ):
                        results[label] = vector_id
                        query_stats = chunk_stats.per_query[label]
                        query_stats.found = True
                        query_stats.candidates_examined -= skipped
                        query_stats.unique_candidates -= spared
                        query_stats.similarity_evaluations -= spared
                    active = [index for index in active if results[index] is None]
            else:
                # Each label's most similar candidate; ties go to the first.
                top = np.lexsort((-similarities, labels))[_run_starts(labels)]
                top_labels, top_similarities = labels[top], similarities[top]
                better = (top_similarities >= self._acceptance_threshold) & (
                    top_similarities > best_similarities[top_labels]
                )
                best_similarities[top_labels[better]] = top_similarities[better]
                best_ids[top_labels[better]] = candidate_ids[top[better]]
            chunk_stats.verification_seconds += time.perf_counter() - verification_start

        # Every pair verified, per label (less, above, what followed a hit);
        # the sentinel sorts last.
        verified = np.bincount(evaluated[:-1] // stride, minlength=len(chunk))
        for query_stats, count in zip(chunk_stats.per_query, verified.tolist()):
            query_stats.unique_candidates += count
            query_stats.similarity_evaluations += count
        if mode == "best":
            for index in np.flatnonzero(best_ids >= 0).tolist():
                results[index] = int(best_ids[index])
                chunk_stats.per_query[index].found = True
        chunk_stats.generation_seconds = waves.seconds
        chunk_stats.merge_seconds += probes.seconds
        chunk_stats.kernel.add_counters(counters)
        return results, chunk_stats

    def _candidate_arrays_chunk(
        self,
        chunk: Sequence[frozenset[int]],
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[np.ndarray], BatchQueryStats]:
        """Batched candidate enumeration for one chunk, as sorted id arrays.

        The CSR merge proper: every repetition contributes one labelled
        collision stream, the streams are merged with a single lexsort over
        ``(query, id)``, duplicates collapse on the boundary mask, and the
        tombstone filter is one boolean gather.
        """
        chunk_stats = BatchQueryStats(
            num_queries=len(chunk), per_query=[QueryStats() for _ in chunk]
        )
        results: list[np.ndarray] = [_EMPTY_IDS] * len(chunk)
        if not len(self._vectors):
            return results, chunk_stats
        active = [index for index, query_set in enumerate(chunk) if query_set]
        if not active:
            return results, chunk_stats
        id_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        impl = get_impl()
        counters = new_counters()
        waves = _FilterWaves(self._generator, self._threshold_policy, chunk, counters)
        probes = _WaveProbes(self, waves, True, allow_partial, deadline)

        for repetition in range(self._repetitions):
            streams = probes.chunk(repetition, active, chunk_stats)
            if streams is not None:
                id_parts.append(streams[0])
                label_parts.append(streams[1])

        merge_start = time.perf_counter()
        if id_parts:
            all_ids = np.concatenate(id_parts)
            all_labels = np.concatenate(label_parts)
            if all_ids.size:
                labels_unique, ids_unique = impl.merge_labeled(
                    all_labels, all_ids, counters
                )
                removed = self._removed_lookup()
                if removed is not None:
                    alive = ~removed[ids_unique]
                    ids_unique = ids_unique[alive]
                    labels_unique = labels_unique[alive]
                boundaries = np.searchsorted(
                    labels_unique, np.arange(len(chunk) + 1, dtype=np.int64)
                )
                for index in active:
                    segment = ids_unique[boundaries[index] : boundaries[index + 1]]
                    results[index] = segment
                    chunk_stats.per_query[index].unique_candidates = int(segment.size)
        chunk_stats.merge_seconds += probes.seconds + time.perf_counter() - merge_start
        chunk_stats.generation_seconds = waves.seconds
        chunk_stats.kernel.add_counters(counters)
        return results, chunk_stats

    # ------------------------------------------------------------------ #
    # Vectorised candidate verification
    # ------------------------------------------------------------------ #

    def _ensure_candidate_store(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view (flat items, start offsets, sizes) of the stored vectors."""
        if self._candidate_store is None:
            sizes = np.fromiter(map(len, self._vectors), dtype=np.int64, count=len(self._vectors))
            flat_items = np.fromiter(
                itertools.chain.from_iterable(self._vectors), dtype=np.int64, count=int(sizes.sum())
            )
            self._candidate_store = (flat_items, np.cumsum(sizes) - sizes, sizes)
        return self._candidate_store

    def _label_sets(self, sets: Sequence[frozenset[int]]) -> _LabelledSets:
        """``sets`` labelled with a stride of the universe size (the generator
        rejects any query or stored item outside the universe)."""
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        items = np.fromiter(
            itertools.chain.from_iterable(sets), dtype=np.int64, count=int(sizes.sum())
        )
        stride = self._probabilities.size
        members = (np.arange(len(sets), dtype=np.int64) * stride).repeat(sizes) + items
        return _LabelledSets(sets, np.sort(np.append(members, _SENTINEL)), sizes, stride)

    def _pair_similarities(
        self,
        queries: _LabelledSets,
        labels: np.ndarray,
        candidate_ids: np.ndarray,
        similarity: SimilarityFunction | None = None,
    ) -> np.ndarray:
        """Similarities (default: the engine's) of the pairs ``(vector
        candidate_ids[k], queries.sets[labels[k]])``.

        Candidates' items are gathered from the CSR store, packed with their
        pair's label and looked up among the queries' packed members; the
        counts feed the measure's :data:`~repro.similarity.measures.FROM_COUNTS`
        form.  A similarity without one is evaluated pair by pair.
        """
        similarity = self._similarity if similarity is None else similarity
        from_counts = FROM_COUNTS.get(similarity)
        if from_counts is None:
            pairs = zip(labels.tolist(), candidate_ids.tolist())
            sets, vectors = queries.sets, self._vectors
            return np.asarray([similarity(vectors[v], sets[q]) for q, v in pairs], dtype=np.float64)
        flat_items, starts, sizes = self._ensure_candidate_store()
        lengths = sizes[candidate_ids]
        items = _segment_gather(flat_items, starts[candidate_ids], lengths).astype(
            np.int64, copy=False
        )
        pair = np.arange(lengths.size, dtype=np.int64).repeat(lengths)
        # A lone set's label is 0: its members are its items.
        labelled = items if len(queries.sets) == 1 else labels[pair] * queries.stride + items
        matches = queries.members[queries.members.searchsorted(labelled)] == labelled
        common = np.bincount(pair[matches], minlength=lengths.size)
        return from_counts(common, lengths, queries.sizes[labels])
