"""Child process of the cold-open probe: open a saved index, answer one query.

Usage: ``python cold_open.py <index path> <ram|mmap>`` with the query (a JSON
list of item ids) on stdin.  Imports happen before the clock starts; the
last line of stdout is ``{"open_ms", "query_ms", "match"}``.
"""

from __future__ import annotations

import json
import sys
import time

from repro.core.serialization import load_index


def main() -> int:
    path, mode = sys.argv[1], sys.argv[2]
    query = frozenset(json.loads(sys.stdin.read()))
    start = time.perf_counter()
    index = load_index(path, mode=mode)
    opened = time.perf_counter()
    match, _stats = index.query(query)
    answered = time.perf_counter()
    print(
        json.dumps(
            {
                "open_ms": (opened - start) * 1e3,
                "query_ms": (answered - opened) * 1e3,
                "match": match,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
