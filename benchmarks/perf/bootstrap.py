"""Locate the checkout this benchmark sits in and make ``repro`` importable.

The benchmark lives in ``benchmarks/perf/`` and drives the program in
``src/repro`` from outside.  The driver starts ``run.py`` with no
``PYTHONPATH``, so the entry points call :func:`add_src_to_path` before any
module that imports ``repro`` is loaded; child processes (the served index,
the cold-open probes, the spawned shard workers) inherit the path through
``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = PERF_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


def add_src_to_path() -> None:
    """Put ``src/`` first on ``sys.path`` and ``PYTHONPATH``; exit 2 without it."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks/perf needs the program under test at {SRC_DIR}/repro; "
            "run it from a full checkout of the repository"
        )
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    if src not in (inherited or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
