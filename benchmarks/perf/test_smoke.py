"""Schema test of the benchmark: ``BENCHMARK.json`` and what ``run.py`` prints.

Outside tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/perf/test_smoke.py -q

It runs the ``--smoke`` miniature of all four workloads, once untraced and
once traced, and checks that every metric ``BENCHMARK.json`` declares is
emitted exactly once per workload with its unit and that nothing undeclared
is.  It asserts the schema, never a speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for entry in DECLARED["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for entry in DECLARED["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in DECLARED["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = WORKLOADS + [
        entry["name"] for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
        assert entry["better"] in ("higher", "lower")
    setup = [entry for entry in DECLARED["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_metrics(trace):
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--seed", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    declared = {
        entry["name"]: entry["unit"]
        for entry in DECLARED["per_layer" if trace else "end_to_end"]
    }
    for workload, result in zip(WORKLOADS, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] is True and result["failed"] == 0, workload
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared), workload
        for name, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == declared[name], (workload, name)
            assert isinstance(entry["value"], (int, float))
            if not trace:
                assert entry["value"] != 0, (workload, name)
