"""Pairwise independent hashing of integers and paths to ``[0, 1)``.

The Chosen Path style constructions of the paper need, at every recursion
level ``j``, a hash function ``h_j : [d]^j -> [0, 1)`` drawn from a pairwise
independent family.  Two vectors that consider extending the *same* path
``v ∘ i`` must see the *same* hash value, so the hash must be a deterministic
function of the path content and the level, not of the vector.

We implement the classic multiply-shift / multiply-add-prime construction
over a Mersenne prime, composed with a strong 64-bit mixer to turn a path
(tuple of item ids) into a single integer key.  The mixer (SplitMix64) is not
itself part of the pairwise-independence argument; it only serves to collapse
variable-length tuples into 64-bit keys with negligible collision
probability, after which the multiply-add-prime step provides the pairwise
independence used by Lemma 5 of the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.hashing.random_source import derive_seed

#: Mersenne prime 2^61 - 1, used as the field size for multiply-add hashing.
MERSENNE_PRIME = (1 << 61) - 1

_MASK_64 = (1 << 64) - 1

_PRIME_U64 = np.uint64(MERSENNE_PRIME)
_PRIME_FLOAT = float(MERSENNE_PRIME)
_LOW32_U64 = np.uint64((1 << 32) - 1)
_LOW29_U64 = np.uint64((1 << 29) - 1)


def _mod_mersenne(values: np.ndarray) -> np.ndarray:
    """Reduce a uint64 array modulo ``2^61 - 1`` exactly, in place.

    Uses the identity ``2^61 ≡ 1 (mod p)``: folding the top bits down gives a
    value below ``p + 8`` for any uint64 input, after which a single
    conditional subtract finishes the reduction.  Overwrites ``values`` and
    returns it, so callers pass an array they own.
    """
    high = values >> np.uint64(61)
    values &= _PRIME_U64
    values += high
    np.subtract(values, _PRIME_U64, out=values, where=values >= _PRIME_U64)
    return values


def splitmix64(value: int) -> int:
    """Mix a 64-bit integer using the SplitMix64 finalizer.

    This is a bijection on 64-bit integers with excellent avalanche
    behaviour; we use it to fold path elements into a single key.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK_64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return (value ^ (value >> 31)) & _MASK_64


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a uint64 array (bit-identical).

    The first addition makes the one new array; every later step updates it
    in place, so the input is never modified.
    """
    mixed = values + np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(30)
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(27)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(31)
    return mixed


def fold_path(path: Sequence[int]) -> int:
    """Fold a path (sequence of item ids) into a single 64-bit key.

    Parameters
    ----------
    path:
        Ordered item indices forming the path.
    """
    state = EMPTY_PATH_KEY  # pi-derived constant, arbitrary non-zero start
    for element in path:
        state = splitmix64(state ^ ((int(element) + 1) & _MASK_64))
    return state


def fold_paths_csr(path_items: np.ndarray, path_offsets: np.ndarray) -> np.ndarray:
    """Folded keys of many paths stored in CSR form, level-synchronously.

    Parameters
    ----------
    path_items:
        Item ids of all paths, concatenated.
    path_offsets:
        Monotone offsets of length ``num_paths + 1``; path ``k`` occupies
        ``path_items[path_offsets[k]:path_offsets[k + 1]]``.

    Bit-identical to calling :func:`fold_path` on each path, but folds one
    recursion level of every path per vectorised call, so validating the keys
    of a whole serialised postings store costs ``O(max_depth)`` array
    operations instead of a Python loop per path element.
    """
    path_items = np.ascontiguousarray(path_items, dtype=np.int64)
    path_offsets = np.ascontiguousarray(path_offsets, dtype=np.int64)
    num_paths = path_offsets.size - 1
    keys = np.full(num_paths, np.uint64(EMPTY_PATH_KEY), dtype=np.uint64)
    if num_paths == 0:
        return keys
    lengths = np.diff(path_offsets)
    starts = path_offsets[:-1]
    for level in range(int(lengths.max(initial=0))):
        alive = np.flatnonzero(lengths > level)
        items = path_items[starts[alive] + level]
        keys[alive] = extend_keys(keys[alive], items)
    return keys


#: Folded key of the empty path — the start state of :func:`fold_path`.
EMPTY_PATH_KEY = 0x243F6A8885A308D3


def extend_key(prefix_key: int, item: int) -> int:
    """Key of the path ``v ∘ item`` given the folded key of ``v``.

    Equivalent to ``fold_path(tuple(v) + (item,))``, but avoids re-walking the
    prefix when many candidate extensions of the same path are evaluated.
    """
    return splitmix64(prefix_key ^ ((int(item) + 1) & _MASK_64))


def extend_keys(prefix_keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Vectorised :func:`extend_key`: extended keys for many (path, item) pairs.

    Parameters
    ----------
    prefix_keys:
        uint64 array of folded prefix keys, one per extension considered.
    items:
        Integer array of the items extending each prefix (non-negative).

    Bit-identical to calling :func:`extend_key` elementwise.
    """
    prefix_keys = np.ascontiguousarray(prefix_keys, dtype=np.uint64)
    item_keys = np.ascontiguousarray(items, dtype=np.uint64) + np.uint64(1)
    return splitmix64_array(prefix_keys ^ item_keys)


def hash_keys(keys: np.ndarray, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Multiply-add-prime hash of a uint64 key array with coefficients ``(a, b)``.

    Computes ``((a * (x mod p) + b) mod p) / p`` with ``p = 2^61 - 1``,
    carried out entirely in uint64 arithmetic by splitting both operands into
    32-bit halves and folding the partial products with ``2^61 ≡ 1 (mod p)``
    (``2^64 ≡ 8`` and ``2^32 · m ≡ (m >> 29) + ((m & (2^29−1)) << 32)``), so
    no intermediate ever exceeds 64 bits.  ``a`` and ``b`` are one coefficient
    pair for the whole array, or uint64 arrays giving every key its own pair
    (a fused pass over several repetitions); the arithmetic per element is
    the same either way.  Bit-identical to :meth:`PairwiseHash.hash_int`
    elementwise.

    Reduction is lazy: three reductions modulo ``p`` instead of one per
    partial product.  With ``x = key mod p`` and ``a, b < p`` (so ``a_hi,
    x_hi < 2^29`` and ``a_lo, x_lo < 2^32``):

    * the input is reduced, which is what bounds ``x_hi``;
    * ``8 · a_hi · x_hi < 2^61`` needs no reduction;
    * the middle sum ``a_hi · x_lo + a_lo · x_hi < 2^62`` is folded once,
      unreduced, to a value below ``2^61 + 2^33``;
    * ``a_lo · x_lo < 2^64`` is reduced, to below ``2^61``;
    * the sum of the three terms and ``b`` is below ``2^64``, so one final
      reduction gives the exact residue.

    Each skipped reduction only leaves a summand larger than ``p`` but
    congruent to the eager one, so the hash function is the same.  A key
    outside ``[0, 2^64)`` raises ``ValueError``, as in
    :meth:`PairwiseHash.hash_int`: a negative key in a signed array, or any
    such key in a list or object array (where a key of ``2^64`` or more
    would otherwise surface as numpy's ``OverflowError``).  A ``uint64``
    array needs no check.  A list is read as Python ints, exactly: numpy
    would read ``[7, 2**63]`` as float64 and hash a rounded key.
    """
    keys = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=object)
    if keys.dtype.kind in "iO" and keys.size:
        for key in (keys.min(), keys.max()):
            if not 0 <= key <= _MASK_64:
                raise ValueError(
                    f"hash key {int(key)} is outside [0, 2^64); keys must be "
                    "unsigned 64-bit integers"
                )
    keys_u64 = np.ascontiguousarray(keys, dtype=np.uint64)
    x_lo = _mod_mersenne(keys_u64.copy())
    x_hi = x_lo >> np.uint64(32)
    x_lo &= _LOW32_U64

    a_u64 = np.asarray(a, dtype=np.uint64)
    a_hi = a_u64 >> np.uint64(32)
    a_lo = a_u64 & _LOW32_U64

    # a·x = a_hi·x_hi·2^64 + (a_hi·x_lo + a_lo·x_hi)·2^32 + a_lo·x_lo.
    total = a_hi * x_hi
    total <<= np.uint64(3)
    middle = a_hi * x_lo
    x_hi *= a_lo
    middle += x_hi
    middle_low = x_hi
    np.bitwise_and(middle, _LOW29_U64, out=middle_low)
    middle_low <<= np.uint64(32)
    middle >>= np.uint64(29)
    total += middle
    total += middle_low
    x_lo *= a_lo
    total += _mod_mersenne(x_lo)
    total += np.asarray(b, dtype=np.uint64)

    values = _mod_mersenne(total).astype(np.float64)
    values /= _PRIME_FLOAT
    return values


class PairwiseHash:
    """A single pairwise independent hash function ``h : Z -> [0, 1)``.

    Implemented as ``h(x) = ((a * x + b) mod p) / p`` with ``p`` the Mersenne
    prime ``2^61 - 1`` and ``a, b`` drawn uniformly (``a`` non-zero).  For
    distinct keys ``x != y`` the pair ``(h(x), h(y))`` is uniform over the
    grid ``{0, 1/p, ..., (p-1)/p}^2``, which is the property required by the
    second-moment argument in the paper's Lemma 5.
    """

    def __init__(self, seed: int) -> None:
        generator = np.random.default_rng(derive_seed(seed, "pairwise-hash"))
        self._a = int(generator.integers(1, MERSENNE_PRIME))
        self._b = int(generator.integers(0, MERSENNE_PRIME))

    @property
    def coefficients(self) -> tuple[int, int]:
        """The ``(a, b)`` coefficients of the multiply-add hash."""
        return self._a, self._b

    def hash_int(self, key: int) -> float:
        """Hash an integer key to a float in ``[0, 1)``.

        The float conversion happens before the division (rather than
        dividing exact integers) so that the scalar and the vectorised
        :meth:`hash_many` paths produce bit-identical values.  Keys are
        64-bit unsigned integers; one outside ``[0, 2^64)`` raises
        ``ValueError``, as it does in :meth:`hash_many`.
        """
        key = int(key)
        if not 0 <= key <= _MASK_64:
            raise ValueError(
                f"hash key {key} is outside [0, 2^64); keys must be unsigned 64-bit integers"
            )
        value = (self._a * (key % MERSENNE_PRIME) + self._b) % MERSENNE_PRIME
        return float(value) / _PRIME_FLOAT

    def hash_many(self, keys: np.ndarray) -> np.ndarray:
        """Hash an array of integer keys to floats in ``[0, 1)``.

        Fully vectorised and bit-identical to :meth:`hash_int`; delegates to
        the module-level :func:`hash_keys`, whose outputs the compiled
        kernels reproduce.  A negative key in a signed array raises
        ``ValueError`` rather than wrapping modulo ``2^64``.
        """
        return hash_keys(keys, self._a, self._b)

    def __call__(self, key: int) -> float:
        return self.hash_int(key)

    def __repr__(self) -> str:
        return f"PairwiseHash(a={self._a}, b={self._b})"


class PairwiseHashFamily:
    """A family of independent :class:`PairwiseHash` functions, one per level.

    The family lazily instantiates new levels as the recursion deepens, so
    callers do not need to know the maximum path length in advance.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._levels: list[PairwiseHash] = []

    @property
    def seed(self) -> int:
        return self._seed

    def level(self, index: int) -> PairwiseHash:
        """Return the hash function for recursion level ``index`` (0-based)."""
        if index < 0:
            raise IndexError(f"hash level must be non-negative, got {index}")
        while len(self._levels) <= index:
            self._levels.append(PairwiseHash(derive_seed(self._seed, "level", len(self._levels))))
        return self._levels[index]

    def __len__(self) -> int:
        return len(self._levels)

    def __repr__(self) -> str:
        return f"PairwiseHashFamily(seed={self._seed}, instantiated_levels={len(self._levels)})"


class PathHasher:
    """Hashes path extensions ``v ∘ i`` to ``[0, 1)`` per recursion level.

    This is the object actually consumed by the path-generation engine.  Two
    different vectors extending the same path with the same item at the same
    level observe the same hash value, which is what makes a shared path a
    shared filter.
    """

    def __init__(self, seed: int) -> None:
        self._family = PairwiseHashFamily(seed)
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def extension_value(self, path: Sequence[int], item: int, level: int) -> float:
        """Return ``h_{level}(path ∘ item)`` as a float in ``[0, 1)``."""
        key = extend_key(fold_path(path), item)
        return self._family.level(level).hash_int(key)

    def extension_values(
        self, path: Sequence[int], items: Iterable[int], level: int
    ) -> np.ndarray:
        """Vector of hash values for extending ``path`` with each of ``items``."""
        return self.extension_values_from_key(fold_path(path), items, level)

    def extension_values_from_key(
        self, prefix_key: int, items: Iterable[int], level: int
    ) -> np.ndarray:
        """Like :meth:`extension_values` but reusing a precomputed prefix key."""
        item_array = np.fromiter((int(item) for item in items), dtype=np.int64)
        prefix_keys = np.full(item_array.size, np.uint64(prefix_key), dtype=np.uint64)
        return self.extension_values_flat(prefix_keys, item_array, level)

    def extension_values_flat(
        self, prefix_keys: np.ndarray, items: np.ndarray, level: int
    ) -> np.ndarray:
        """Hash many path extensions at once, all at the same level.

        Parameters
        ----------
        prefix_keys:
            uint64 array of folded prefix keys — one per extension, so
            extensions of *different* paths (and different queries) can be
            hashed in a single call.
        items:
            The item extending each prefix (same length as ``prefix_keys``).
        level:
            The recursion level shared by every extension in the call.

        This is the batched-query hot path: one call hashes every candidate
        extension of an entire batch frontier.
        """
        return self._family.level(level).hash_many(extend_keys(prefix_keys, items))

    def extension_pairs_flat(
        self, prefix_keys: np.ndarray, items: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`extension_values_flat` but also returns the extended keys.

        The keys are the folded identifiers of each extended path
        ``v ∘ item``; a batched generator reuses them as prefix keys at the
        next level, avoiding any per-path re-folding.
        """
        keys = extend_keys(prefix_keys, items)
        return keys, self._family.level(level).hash_many(keys)

    def level_coefficients(self, level: int) -> tuple[int, int]:
        """The ``(a, b)`` multiply-add coefficients of a recursion level.

        Compiled kernels take the raw coefficients and reproduce
        :func:`hash_keys` internally rather than calling back into Python.
        """
        return self._family.level(level).coefficients

    def path_key(self, path: Sequence[int]) -> int:
        """Stable 64-bit key identifying a path (used by inverted indexes)."""
        return fold_path(path)

    def ensure_levels(self, count: int) -> None:
        """Eagerly instantiate the first ``count`` per-level hash functions.

        Levels are otherwise created lazily on first use, which is not safe
        when multiple threads share one hasher; call this before any
        concurrent use.
        """
        if count > 0:
            self._family.level(count - 1)

    def __repr__(self) -> str:
        return f"PathHasher(seed={self._seed})"
