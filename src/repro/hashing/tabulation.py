"""Simple tabulation hashing.

Tabulation hashing (Zobrist hashing) is 3-independent and has strong
concentration properties far beyond its formal independence.  The MinHash
baseline uses it to permute item ids.  The filter construction does not:
it hashes paths with the multiply-add pairwise family of
:mod:`repro.hashing.pairwise`, and tabulation measured no faster there.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.random_source import derive_seed

_MASK_64 = (1 << 64) - 1


class TabulationHash:
    """Simple tabulation hash of 32-bit keys to 64-bit values.

    The key is split into four 8-bit characters; each character indexes a
    random table of 64-bit values and the results are XOR-ed together.
    """

    #: Number of 8-bit characters in a 32-bit key.
    NUM_CHARACTERS = 4

    def __init__(self, seed: int) -> None:
        generator = np.random.default_rng(derive_seed(seed, "tabulation"))
        self._tables = generator.integers(
            0, 1 << 63, size=(self.NUM_CHARACTERS, 256), dtype=np.uint64
        )
        # Spread entropy into the top bit as well (integers() above excludes it).
        top_bits = generator.integers(0, 2, size=(self.NUM_CHARACTERS, 256), dtype=np.uint64)
        self._tables = self._tables | (top_bits << np.uint64(63))

    def hash_int(self, key: int) -> int:
        """Hash a non-negative integer key (reduced mod 2^32) to 64 bits."""
        key = int(key) & 0xFFFFFFFF
        result = np.uint64(0)
        for character_index in range(self.NUM_CHARACTERS):
            byte = (key >> (8 * character_index)) & 0xFF
            result ^= self._tables[character_index, byte]
        return int(result)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised hashing of an array of non-negative integer keys."""
        keys = np.asarray(keys, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
        result = np.zeros(keys.shape, dtype=np.uint64)
        for character_index in range(self.NUM_CHARACTERS):
            bytes_ = (keys >> np.uint64(8 * character_index)) & np.uint64(0xFF)
            result ^= self._tables[character_index, bytes_.astype(np.int64)]
        return result

    def __call__(self, key: int) -> int:
        return self.hash_int(key)

    def __repr__(self) -> str:
        return "TabulationHash()"
