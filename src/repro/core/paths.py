"""Recursive path (filter) generation — the heart of the data structure.

Section 3 of the paper defines the mapping from a vector ``x`` to its set of
filters ``F(x)``:

* start from the empty path;
* a path ``v`` of length ``j`` whose item-probability product has dropped to
  ``∏_{i ∈ v} p_i ≤ 1/n`` stops recursing and becomes a filter of ``x``;
* otherwise every set bit ``i`` of ``x`` not already on the path is appended
  with probability ``s(x, j, i)``, decided by the shared hash
  ``h_{j+1}(v ∘ i) < s(x, j, i)``.

The construction guarantees that a path chosen by both ``x`` and ``q`` is the
same object (same item sequence), because the hash value of an extension
depends only on the path content, the item and the level — never on the
vector doing the extending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.dtypes import ITEM_DTYPE, KEY_DTYPE, OFFSET_DTYPE
from repro.core.kernels import KEYS_FOLDED, PATHS_EXTENDED, get_impl, new_counters
from repro.core.thresholds import BatchBoundThreshold, BoundThreshold, ThresholdPolicy
from repro.hashing.pairwise import EMPTY_PATH_KEY, PathHasher, extend_key, fold_path

Path = tuple[int, ...]


def paths_to_csr(paths: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of paths into CSR form ``(items, offsets)``.

    Path ``k`` occupies ``items[offsets[k]:offsets[k + 1]]``.  This is the
    bridge from tuples of ints to the array-native filter flow, for the
    places that still start from tuples: the serial generator's results and
    the stores' tuple ``add``.
    """
    offsets = _running_offsets(map(len, paths), len(paths))
    items = np.fromiter(chain.from_iterable(paths), dtype=ITEM_DTYPE, count=int(offsets[-1]))
    return items, offsets


def _running_offsets(lengths: Iterable[int], count: int) -> np.ndarray:
    """CSR offsets ``[0, l0, l0 + l1, ...]`` of ``count`` segment lengths."""
    return np.fromiter(accumulate(lengths, initial=0), dtype=OFFSET_DTYPE, count=count + 1)


def _segment_gather(
    source: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Concatenate ``source[starts[k] : starts[k] + lengths[k]]`` for all k.

    The workhorse of the CSR pipeline: one fancy-indexing pass replaces a
    Python loop over variable-length segments.  It runs several times per
    query repetition on a handful of segments, so it calls array methods
    rather than numpy's Python-level wrappers, which would cost more than
    the work.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    out_starts = lengths.cumsum() - lengths
    indices = np.arange(total, dtype=np.int64) + (starts - out_starts).repeat(lengths)
    return source[indices]


def default_max_depth(num_vectors: int, max_probability: float) -> int:
    """Depth at which the product stopping rule must have fired.

    A path of length ``L`` consisting of items with probability at most
    ``p_max`` has product at most ``p_max^L``, so the stopping rule
    ``∏ p ≤ 1/n`` fires by ``L = ceil(log n / log(1/p_max))``.  Two extra
    levels are added as slack for rounding.
    """
    if num_vectors <= 1:
        return 2
    bounded = min(max(max_probability, 1e-12), 0.9999)
    return int(math.ceil(math.log(num_vectors) / math.log(1.0 / bounded))) + 2


@dataclass
class PathGenerationResult:
    """Outcome of generating the filters of one vector.

    ``keys`` carries the folded 64-bit key (:func:`~repro.hashing.pairwise.
    fold_path`) of each path, parallel to ``paths``.  The generators track
    keys incrementally anyway (they are the hash inputs), so exposing them
    lets the inverted index file and probe postings without re-folding every
    path in Python.  The field is required and validated against ``paths``
    because downstream consumers zip the two lists — a silent length
    mismatch would truncate candidate enumeration to nothing.
    """

    paths: list[Path]
    truncated: bool
    expansions: int
    keys: list[int]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.paths):
            raise ValueError(
                f"got {len(self.keys)} keys for {len(self.paths)} paths; "
                "need exactly one key per path"
            )


@dataclass(frozen=True)
class VectorBatch:
    """The generation input of one chunk of vectors, prepared once.

    Holds what every repetition's generator needs and none of them changes:
    each vector's items sorted ascending in one CSR array, the chunk's
    batch-bound thresholds (which memoise their per-level probabilities),
    and the root frontier of the kernel pipeline.  Callers :meth:`bind` a
    chunk once and pass it to :meth:`PathGenerator.generate_batch`, for one
    repetition or for several at a time.
    """

    items: np.ndarray
    item_offsets: np.ndarray
    bounds: BatchBoundThreshold

    @classmethod
    def bind(
        cls, items_per_vector: Sequence[Iterable[int]], policy: ThresholdPolicy
    ) -> "VectorBatch":
        """Sort every vector's items and bind ``policy`` to the whole chunk."""
        sorted_vectors = [sorted(map(int, members)) for members in items_per_vector]
        item_offsets = _running_offsets(map(len, sorted_vectors), len(sorted_vectors))
        items = np.fromiter(
            chain.from_iterable(sorted_vectors), dtype=ITEM_DTYPE, count=int(item_offsets[-1])
        )
        return cls(items, item_offsets, policy.bind_batch(items, item_offsets))

    def __len__(self) -> int:
        return self.item_offsets.size - 1

    @cached_property
    def root_frontier(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vectors, masks)`` of the level-0 frontier, one entry per non-empty vector.

        ``masks[r]`` holds the bitmask words of vector ``vectors[r]`` with
        one bit set per item position (bit ``p`` = position ``p``,
        little-endian).
        """
        sizes = np.diff(self.item_offsets)
        non_empty = np.flatnonzero(sizes)
        word_count = max(1, (int(sizes.max(initial=0)) + 63) >> 6)
        available = np.arange(word_count * 64, dtype=OFFSET_DTYPE) < sizes[non_empty, None]
        masks = np.packbits(available, axis=1, bitorder="little").view(np.uint64)
        masks.flags.writeable = False  # shared by every repetition's level 0
        return non_empty, masks


@dataclass(frozen=True)
class FilterBatch:
    """The filters of a batch of vectors as flat arrays — no tuples.

    Filter ``f`` is the item sequence ``path_items[path_offsets[f]:
    path_offsets[f + 1]]`` with folded key ``keys[f]``; vector ``k`` of the
    batch owns the filters ``vector_offsets[k]:vector_offsets[k + 1]``, in
    the serial generator's order.  ``truncated`` and ``expansions`` are per
    vector.  This is what the stores ingest and probe directly; indexing the
    batch (``batch[k]``) materialises one vector's filters as the tuple-based
    :class:`PathGenerationResult`, which only tests and diagnostics need.

    A pass fused over ``repetitions`` repetitions of ``V`` vectors lays its
    rows out repetition-major: row ``r * V + v`` holds vector ``v``'s filters
    under the pass's ``r``-th repetition, and :meth:`repetition` hands out
    one repetition's ``V`` rows as a batch of its own.
    """

    path_items: np.ndarray
    path_offsets: np.ndarray
    keys: np.ndarray
    vector_offsets: np.ndarray
    truncated: np.ndarray
    expansions: np.ndarray
    repetitions: int = 1

    @classmethod
    def from_results(cls, results: Sequence[PathGenerationResult]) -> "FilterBatch":
        """Flatten per-vector tuple results (the serial generator's output)."""
        path_items, path_offsets = paths_to_csr(
            [path for result in results for path in result.paths]
        )
        return cls(
            path_items=path_items,
            path_offsets=path_offsets,
            keys=np.fromiter(
                chain.from_iterable(result.keys for result in results),
                dtype=KEY_DTYPE,
                count=path_offsets.size - 1,
            ),
            vector_offsets=_running_offsets(
                (len(result.paths) for result in results), len(results)
            ),
            truncated=np.array([result.truncated for result in results], dtype=np.bool_),
            expansions=np.array(
                [result.expansions for result in results], dtype=OFFSET_DTYPE
            ),
        )

    def repetition(self, index: int) -> "FilterBatch":
        """The rows of the pass's ``index``-th repetition, as array views.

        Slices only — the two offset arrays are re-based to start at 0, so
        the result is an ordinary single-repetition batch.
        """
        if not 0 <= index < self.repetitions:
            raise IndexError(
                f"repetition {index} is out of range for a pass over {self.repetitions}"
            )
        if self.repetitions == 1:
            return self
        size = len(self) // self.repetitions
        rows = slice(index * size, (index + 1) * size)
        vector_offsets = self.vector_offsets[index * size : (index + 1) * size + 1]
        first_filter, last_filter = int(vector_offsets[0]), int(vector_offsets[-1])
        path_offsets = self.path_offsets[first_filter : last_filter + 1]
        first_item = int(path_offsets[0])
        return FilterBatch(
            path_items=self.path_items[first_item : int(path_offsets[-1])],
            path_offsets=path_offsets - first_item,
            keys=self.keys[first_filter:last_filter],
            vector_offsets=vector_offsets - first_filter,
            truncated=self.truncated[rows],
            expansions=self.expansions[rows],
        )

    def take(self, rows: np.ndarray) -> "FilterBatch":
        """The batch restricted to ``rows`` (indices, kept in the given order).

        A row's filters and their items are each one contiguous run of the
        flat arrays, so the subset is three segment gathers.
        """
        filter_starts = self.vector_offsets[rows]
        counts = self.vector_offsets[rows + 1] - filter_starts
        item_starts = self.path_offsets[filter_starts]
        item_counts = self.path_offsets[filter_starts + counts] - item_starts
        filters = _segment_gather(
            np.arange(self.num_filters, dtype=OFFSET_DTYPE), filter_starts, counts
        )
        path_offsets = np.zeros(filters.size + 1, dtype=OFFSET_DTYPE)
        np.cumsum(self.path_offsets[filters + 1] - self.path_offsets[filters], out=path_offsets[1:])
        vector_offsets = np.zeros(rows.size + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=vector_offsets[1:])
        return FilterBatch(
            path_items=_segment_gather(self.path_items, item_starts, item_counts),
            path_offsets=path_offsets,
            keys=self.keys[filters],
            vector_offsets=vector_offsets,
            truncated=self.truncated[rows],
            expansions=self.expansions[rows],
        )

    def __len__(self) -> int:
        """Number of rows: vectors, times repetitions for a fused pass."""
        return self.vector_offsets.size - 1

    @property
    def num_filters(self) -> int:
        return self.keys.size

    @property
    def filter_counts(self) -> np.ndarray:
        """Number of filters of each vector."""
        return np.diff(self.vector_offsets)

    def __getitem__(self, vector: int) -> PathGenerationResult:
        """One vector's filters as tuples (materialised on demand)."""
        if not 0 <= vector < len(self):
            raise IndexError(f"vector {vector} is out of range for a batch of {len(self)}")
        start = int(self.vector_offsets[vector])
        end = int(self.vector_offsets[vector + 1])
        bounds = self.path_offsets[start : end + 1].tolist()
        items = self.path_items[bounds[0] : bounds[-1]].tolist()
        return PathGenerationResult(
            paths=[
                tuple(items[low - bounds[0] : high - bounds[0]])
                for low, high in zip(bounds, bounds[1:])
            ],
            truncated=bool(self.truncated[vector]),
            expansions=int(self.expansions[vector]),
            keys=self.keys[start:end].tolist(),
        )

    def __iter__(self) -> Iterator[PathGenerationResult]:
        return (self[vector] for vector in range(len(self)))


class PathGenerator:
    """Generates the chosen paths ``F(x)`` of a vector.

    Parameters
    ----------
    probabilities:
        Item-level probabilities ``p_i`` used by the stopping rule.
    hasher:
        The shared per-level path hasher — or one per repetition, when the
        generator serves a whole engine.  Indexes and queries must use the
        *same* hasher instance (or one built from the same seed) for filters
        to collide.
    stop_product:
        A path stops recursing once the product of its item probabilities is
        at most this value (the paper uses ``1/n``).  ``None`` disables the
        product rule (then only ``max_depth`` stops recursion).
    max_depth:
        Hard cap on the path length.
    collect_at_max_depth:
        If True, paths still active when the depth cap is reached are
        returned as filters (Chosen Path baseline behaviour); if False they
        are discarded (the paper's structure, where the cap is only a safety
        net).
    max_paths:
        Optional cap on the number of finished plus active paths per vector;
        when exceeded, generation stops early and the result is flagged as
        truncated.
    probability_floor:
        Items with probability below this floor are treated as having the
        floor value in the stopping product, so a single extremely rare item
        cannot make the product underflow to zero.
    """

    def __init__(
        self,
        probabilities: np.ndarray | Sequence[float],
        hasher: PathHasher | Sequence[PathHasher],
        stop_product: float | None,
        max_depth: int,
        collect_at_max_depth: bool = False,
        max_paths: int | None = None,
        probability_floor: float = 1e-12,
    ):
        self._probabilities = np.asarray(probabilities, dtype=np.float64)
        if self._probabilities.ndim != 1 or self._probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if stop_product is not None and stop_product <= 0.0:
            raise ValueError(f"stop_product must be positive, got {stop_product}")
        if max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if max_paths is not None and max_paths <= 0:
            raise ValueError(f"max_paths must be positive, got {max_paths}")
        self._hashers = (hasher,) if isinstance(hasher, PathHasher) else tuple(hasher)
        if not self._hashers:
            raise ValueError("need at least one path hasher")
        self._stop_product = stop_product
        self._max_depth = int(max_depth)
        self._collect_at_max_depth = bool(collect_at_max_depth)
        self._max_paths = max_paths
        self._probability_floor = float(probability_floor)
        self._log_probabilities: np.ndarray | None = None
        #: Per level, the ``(a, b)`` coefficient columns over all repetitions.
        self._coefficients: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def repetitions(self) -> int:
        """Number of repetitions (independent hashers) this generator owns."""
        return len(self._hashers)

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def stop_product(self) -> float | None:
        return self._stop_product

    def ensure_hash_levels(self) -> None:
        """Pre-instantiate every hash level this generator can reach.

        The per-level hash functions, their coefficient table and the
        log-probability table of the batched path are created lazily; calling
        this first keeps their one-off construction out of a timed region
        and guarantees threads sharing the generator only ever read them.
        """
        self._level_coefficients(self._max_depth - 1)
        self._log_table()

    def generate(
        self,
        items: Sequence[int],
        threshold: BoundThreshold,
        counters: np.ndarray | None = None,
        repetition: int = 0,
    ) -> PathGenerationResult:
        """Generate the filters of the vector whose set bits are ``items``.

        This is the serial reference implementation pinned against the
        kernel-backed :meth:`generate_batch` by the equivalence property
        suites; it intentionally stays a plain tuple-walking loop.

        Parameters
        ----------
        items:
            The set-bit indices of the vector.  Order does not matter; the
            generator iterates items in sorted order for determinism.
        threshold:
            The vector-bound threshold policy supplying ``s(x, j, i)``.
        counters:
            Optional kernel counter vector (:func:`repro.core.kernels.
            new_counters`); when given, ``keys_folded`` and
            ``paths_extended`` are accumulated into it.
        repetition:
            Which of the generator's hashers to generate with.

        Returns
        -------
        PathGenerationResult
            The finished paths, whether generation was truncated by the
            ``max_paths`` cap, and the number of node expansions performed
            (a proxy for construction work, Lemma 6).
        """
        hasher = self._hashers[repetition]
        sorted_items = sorted(int(item) for item in items)
        if not sorted_items:
            return PathGenerationResult(paths=[], truncated=False, expansions=0, keys=[])
        if sorted_items[0] < 0 or sorted_items[-1] >= self._probabilities.size:
            raise ValueError("vector contains an item outside the universe")

        item_array = np.asarray(sorted_items, dtype=np.int64)
        item_probabilities = np.maximum(
            self._probabilities[item_array], self._probability_floor
        )

        finished_paths: list[Path] = []
        finished_keys: list[int] = []
        truncated = False
        expansions = 0
        keys_folded = 0
        paths_extended = 0

        # Each frontier entry: (path tuple, folded path key, log-product of
        # probabilities, boolean mask of items already used).  Carrying the
        # key forward avoids re-folding the prefix at every expansion, and
        # log-products avoid underflow for long paths of rare items.
        log_stop = math.log(self._stop_product) if self._stop_product is not None else None
        frontier: list[tuple[Path, int, float, np.ndarray]] = [
            ((), fold_path(()), 0.0, np.zeros(len(sorted_items), dtype=bool))
        ]

        for level in range(self._max_depth):
            if not frontier:
                break
            next_frontier: list[tuple[Path, int, float, np.ndarray]] = []
            for path, path_key, log_product, used_mask in frontier:
                available = ~used_mask
                if not np.any(available):
                    continue
                expansions += 1
                candidate_positions = np.flatnonzero(available)
                candidate_items = item_array[candidate_positions]
                probabilities = threshold.sampling_probabilities(level, candidate_items)
                hash_values = hasher.extension_values_from_key(
                    path_key, candidate_items, level
                )
                chosen = hash_values < probabilities
                keys_folded += int(candidate_items.size)
                for position, item, take in zip(
                    candidate_positions, candidate_items, chosen
                ):
                    if not take:
                        continue
                    paths_extended += 1
                    new_path = path + (int(item),)
                    new_key = extend_key(path_key, int(item))
                    new_log_product = log_product + math.log(item_probabilities[position])
                    if log_stop is not None and new_log_product <= log_stop:
                        finished_paths.append(new_path)
                        finished_keys.append(new_key)
                    else:
                        new_mask = used_mask.copy()
                        new_mask[position] = True
                        next_frontier.append((new_path, new_key, new_log_product, new_mask))
                    if (
                        self._max_paths is not None
                        and len(finished_paths) + len(next_frontier) >= self._max_paths
                    ):
                        truncated = True
                        break
                if truncated:
                    break
            frontier = next_frontier
            if truncated:
                break

        if self._collect_at_max_depth:
            for path, path_key, _log_product, _mask in frontier:
                finished_paths.append(path)
                finished_keys.append(path_key)

        if counters is not None:
            counters[KEYS_FOLDED] += keys_folded
            counters[PATHS_EXTENDED] += paths_extended

        return PathGenerationResult(
            paths=finished_paths,
            truncated=truncated,
            expansions=expansions,
            keys=finished_keys,
        )

    def generate_batch(
        self,
        vectors: VectorBatch,
        counters: np.ndarray | None = None,
        repetitions: Sequence[int] | None = None,
    ) -> FilterBatch:
        """Generate the filters of many vectors in one level-synchronous pass.

        Semantically equivalent to calling :meth:`generate` per vector and
        repetition — every vector's paths come back in the same order, with
        the same truncation behaviour — but the whole batch frontier is
        carried as flat CSR arrays (extended keys, available-item bitmask
        words, log products) and each level is extended by a single
        ``extend_level`` kernel call (:func:`repro.core.kernels.get_impl`).
        Chosen extensions land in a parent-pointer arena from which the
        finished paths are written straight into the returned
        :class:`FilterBatch` arrays, one vectorised pass per path position;
        no per-filter Python object is created.

        ``repetitions`` (default: all the generator owns, in order) are
        generated *in the same pass*: every (repetition, vector) pair is a
        row of its own — the frontier treats it as one more vector, which
        hashes with its repetition's coefficients — so the pass's fixed
        per-level cost is paid once, not once per repetition.  The result is
        repetition-major (see :class:`FilterBatch`).

        ``vectors`` is repetition-independent, so callers prepare it once per
        chunk.  ``counters`` (optional, from :func:`repro.core.kernels.
        new_counters`) accumulates the kernel's per-stage work counts.
        """
        repetition_ids = (
            tuple(range(len(self._hashers))) if repetitions is None else tuple(repetitions)
        )
        if not repetition_ids:
            raise ValueError("need at least one repetition to generate")
        if min(repetition_ids) < 0 or max(repetition_ids) >= len(self._hashers):
            raise IndexError(
                f"repetitions {list(repetition_ids)} are out of range for a "
                f"generator of {len(self._hashers)}"
            )
        num_repetitions = len(repetition_ids)
        coefficient_rows = np.asarray(repetition_ids, dtype=OFFSET_DTYPE)
        num_vectors = len(vectors) * num_repetitions
        if num_vectors == 0:
            return replace(FilterBatch.from_results([]), repetitions=num_repetitions)
        if counters is None:
            counters = new_counters()
        impl = get_impl()
        items_concat = vectors.items
        if items_concat.size and (
            int(items_concat.min()) < 0 or int(items_concat.max()) >= self._probabilities.size
        ):
            raise ValueError("vector contains an item outside the universe")
        logs_concat = self._log_table()[items_concat]
        # Per row (repetition-major): where its vector's items start, and
        # which of the pass's repetitions it belongs to.
        row_item_starts = np.tile(vectors.item_offsets[:-1], num_repetitions)
        row_repetition = np.repeat(
            np.arange(num_repetitions, dtype=OFFSET_DTYPE), len(vectors)
        )

        # --- root frontier: one entry per non-empty row ------------------
        # Frontier entry fields, index-parallel and grouped by row
        # ascending: owning row, extended path key, log product, arena
        # node of the last item (-1 for the root), and the available-item
        # bitmask (bit p set = vector item position p still usable).
        root_vectors, root_masks = vectors.root_frontier
        f_vec = (
            np.arange(num_repetitions, dtype=OFFSET_DTYPE)[:, None] * len(vectors) + root_vectors
        ).ravel()
        f_masks = np.tile(root_masks, (num_repetitions, 1))
        f_keys = np.full(f_vec.size, np.uint64(EMPTY_PATH_KEY), dtype=KEY_DTYPE)
        f_logs = np.zeros(f_vec.size, dtype=np.float64)
        f_nodes = np.full(f_vec.size, -1, dtype=OFFSET_DTYPE)

        # Parent-pointer arena of every chosen extension, one chunk per
        # level; finished paths and surviving frontier entries are written
        # out from it at the end.
        arena_items: list[np.ndarray] = []
        arena_parents: list[np.ndarray] = []
        arena_size = 0
        # Filter records (owning vector, arena node, folded key): finished
        # paths level by level, then — for ``collect_at_max_depth`` — the
        # frontiers left behind.
        filter_vec_parts = [np.zeros(0, dtype=OFFSET_DTYPE)]
        filter_node_parts = [np.zeros(0, dtype=OFFSET_DTYPE)]
        filter_key_parts = [np.zeros(0, dtype=KEY_DTYPE)]
        finished_counts = np.zeros(num_vectors, dtype=OFFSET_DTYPE)
        expansions = np.zeros(num_vectors, dtype=OFFSET_DTYPE)
        truncated = np.zeros(num_vectors, dtype=np.bool_)
        #: Final frontiers of vectors stopped by ``max_paths``: children chosen
        #: up to the cutoff, exactly what the serial generator leaves behind.
        parked_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        use_stop = self._stop_product is not None
        log_stop = math.log(self._stop_product) if self._stop_product is not None else 0.0
        max_paths = -1 if self._max_paths is None else int(self._max_paths)

        for level in range(self._max_depth):
            if f_vec.size == 0:
                break
            # Little-endian bit enumeration: word w bit b = item position
            # w * 64 + b.  A flat walk of the C-order bit matrix yields the
            # candidates entry-major with positions ascending — the serial
            # order.
            available = np.unpackbits(f_masks.view(np.uint8), axis=1, bitorder="little")
            entry_index, position = np.divmod(available.ravel().nonzero()[0], available.shape[1])
            if entry_index.size == 0:
                # Serial semantics: entries with no remaining items are
                # dropped, never collected — empty the frontier before
                # leaving the level loop.
                f_vec = f_vec[:0]
                f_keys = f_keys[:0]
                f_nodes = f_nodes[:0]
                break
            counts = np.bincount(entry_index, minlength=f_vec.size)
            used_entries = counts.nonzero()[0]
            entry_vector = f_vec[used_entries]
            entry_offsets = np.zeros(used_entries.size + 1, dtype=OFFSET_DTYPE)
            counts[used_entries].cumsum(out=entry_offsets[1:])

            cand_vec = f_vec[entry_index]
            gather = row_item_starts[cand_vec] + position
            cand_items = items_concat[gather]

            # Thresholds are elementwise-pure, so evaluating every vector's
            # item universe once per level and gathering per candidate is
            # bit-identical to per-entry evaluation.
            level_probs = vectors.bounds.item_probabilities(level)

            coeff_a, coeff_b = self._level_coefficients(level)
            new_keys, status, new_logs, level_expansions, level_truncated = impl.extend_level(
                f_keys[entry_index],
                cand_items,
                level_probs[gather],
                f_logs[entry_index],
                logs_concat[gather],
                entry_offsets,
                entry_vector,
                row_repetition[entry_vector],
                num_vectors,
                finished_counts,
                log_stop,
                use_stop,
                max_paths,
                coeff_a[coefficient_rows],
                coeff_b[coefficient_rows],
                counters,
            )
            expansions += level_expansions

            kept = status.nonzero()[0]
            kept_status = status[kept]
            kept_vec = cand_vec[kept]
            kept_keys = new_keys[kept]
            node_ids = arena_size + np.arange(kept.size, dtype=OFFSET_DTYPE)
            arena_items.append(cand_items[kept])
            arena_parents.append(f_nodes[entry_index[kept]])
            arena_size += int(kept.size)

            finished_sel = kept_status == 2
            if finished_sel.any():
                finished_vectors = kept_vec[finished_sel]
                filter_vec_parts.append(finished_vectors)
                filter_node_parts.append(node_ids[finished_sel])
                filter_key_parts.append(kept_keys[finished_sel])
                finished_counts += np.bincount(finished_vectors, minlength=num_vectors)

            child_sel = kept_status == 1
            child_cand = kept[child_sel]
            child_vec = kept_vec[child_sel]
            child_keys = kept_keys[child_sel]
            child_nodes = node_ids[child_sel]
            child_logs = new_logs[child_cand]
            child_positions = position[child_cand]
            child_masks = f_masks[entry_index[child_cand]]
            if child_positions.size:
                rows = np.arange(child_positions.size, dtype=OFFSET_DTYPE)
                child_masks[rows, child_positions >> 6] &= ~(
                    np.uint64(1) << (child_positions & 63).astype(np.uint64)
                )

            if level_truncated.any():
                truncated |= level_truncated
                parked_sel = level_truncated[child_vec]
                parked_parts.append(
                    (child_vec[parked_sel], child_nodes[parked_sel], child_keys[parked_sel])
                )
                live = ~parked_sel
                child_vec = child_vec[live]
                child_keys = child_keys[live]
                child_nodes = child_nodes[live]
                child_logs = child_logs[live]
                child_masks = child_masks[live]

            f_vec = child_vec
            f_keys = child_keys
            f_logs = child_logs
            f_nodes = child_nodes
            f_masks = np.ascontiguousarray(child_masks)

        if self._collect_at_max_depth:
            # A vector is either parked (truncated) or still in the frontier,
            # never both, and the stable sort below keeps these records after
            # the vector's finished paths — the serial collection order.
            for part_vec, part_nodes, part_keys in parked_parts:
                filter_vec_parts.append(part_vec)
                filter_node_parts.append(part_nodes)
                filter_key_parts.append(part_keys)
            filter_vec_parts.append(f_vec)
            filter_node_parts.append(f_nodes)
            filter_key_parts.append(f_keys)

        filter_vec = np.concatenate(filter_vec_parts)
        # Records accumulate level-major but grouped by vector within each
        # level; a stable sort by vector therefore recovers each vector's
        # serial generation order.
        order = np.argsort(filter_vec, kind="stable")
        filter_nodes = np.concatenate(filter_node_parts)[order]
        vector_offsets = np.zeros(num_vectors + 1, dtype=OFFSET_DTYPE)
        np.cumsum(np.bincount(filter_vec, minlength=num_vectors), out=vector_offsets[1:])

        # --- arena walk: fill every path back to front, one pass per depth ---
        # A node appended at level L ends a path of L + 1 items (every record
        # is a real node: level 0 always runs, so no root survives to here).
        level_ends = np.cumsum([chunk.size for chunk in arena_items], dtype=OFFSET_DTYPE)
        path_offsets = np.zeros(filter_nodes.size + 1, dtype=OFFSET_DTYPE)
        np.cumsum(
            np.searchsorted(level_ends, filter_nodes, side="right") + 1, out=path_offsets[1:]
        )
        path_items = np.empty(int(path_offsets[-1]), dtype=ITEM_DTYPE)
        if path_items.size:
            node_items = np.concatenate(arena_items)
            node_parents = np.concatenate(arena_parents)
            nodes = filter_nodes
            cursor = path_offsets[1:] - 1
            while nodes.size:
                path_items[cursor] = node_items[nodes]
                nodes = node_parents[nodes]
                walking = nodes >= 0
                nodes = nodes[walking]
                cursor = cursor[walking] - 1
        return FilterBatch(
            path_items=path_items,
            path_offsets=path_offsets,
            keys=np.concatenate(filter_key_parts)[order],
            vector_offsets=vector_offsets,
            truncated=truncated,
            expansions=expansions,
            repetitions=num_repetitions,
        )

    def _level_coefficients(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(a, b)`` multiply-add coefficients of ``level`` as two
        ``uint64[repetitions]`` columns, built once per level."""
        while len(self._coefficients) <= level:
            pairs = np.array(
                [hasher.level_coefficients(len(self._coefficients)) for hasher in self._hashers],
                dtype=KEY_DTYPE,
            )
            self._coefficients.append(
                (np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1]))
            )
        return self._coefficients[level]

    def _log_table(self) -> np.ndarray:
        """``log(max(p_i, floor))`` for every item of the universe, built once.

        ``math.log`` per element keeps the values bit-identical to the
        serial generator's per-item ``math.log`` calls.
        """
        if self._log_probabilities is None:
            clamped = np.maximum(self._probabilities, self._probability_floor)
            self._log_probabilities = np.array(
                [math.log(value) for value in clamped.tolist()], dtype=np.float64
            )
        return self._log_probabilities
