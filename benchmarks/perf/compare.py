"""Judge benchmark results against the bounds fixed in ``BENCHMARK.json``.

``compare.py A.json`` prints, for every (workload, end-to-end metric) row of
one results file, the median and the run-to-run spread — the distance between
the first and third quartile as a share of the median — beside the metric's
bound: ``steady`` (spread ≤ bound / 3), ``wide`` (≤ bound) or ``too wide``.

``compare.py A.json B.json`` compares B (the change) with A (the parent),
row by row: ``ok``, ``regressed`` (B's median worse than A's by more than the
bound), ``improved`` (better by more than the bound) or ``unresolved`` (A's
own spread is wider than the bound, so the row cannot tell).  Every ratio is
printed with its base.  Per-layer rows from traced runs carry no bound; their
counts must repeat exactly when both files ran the same seeds.  The two files
must come from the same class of machine (cores, CPU, python, numpy, kernel
backend); otherwise the comparison is refused as ``record only``.

Results files are what ``run.py --out FILE`` appends to.  Exit code 0 when
every row is ok or improved (or steady/wide), 1 otherwise, 2 on refusal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Fingerprint fields that define a machine class.
CLASS_FIELDS = ("nproc", "affinity", "cpu", "python", "numpy", "kernels")

Rows = dict[tuple[str, str], list[float]]


def load_runs(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text())["runs"]


def machine_class(runs: list[dict[str, Any]]) -> set[tuple[Any, ...]]:
    return {tuple(run["fingerprint"].get(name) for name in CLASS_FIELDS) for run in runs}


def rows_of(runs: list[dict[str, Any]], trace: int) -> Rows:
    """``(workload, metric) -> values`` over the runs of one pass, in file order."""
    rows: Rows = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, entry in run["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(entry["value"])
    return rows


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (``None`` below 2 runs)."""
    if len(values) < 2:
        return None
    first, _median, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = (change - parent) / abs(parent) if parent else 0.0
    return delta if better == "lower" else -delta


def _share(value: float | None) -> str:
    return "   n/a" if value is None else f"{value * 100:5.1f}%"


def report_spread(runs: list[dict[str, Any]], declared: dict[str, Any]) -> int:
    worst = 0
    print(f"{'workload':<13} {'metric':<20} {'runs':>4} {'median':>14} {'spread':>7} {'bound':>6}")
    for (workload, name), values in rows_of(runs, trace=0).items():
        bound = declared[name]["bound"]
        share = spread(values)
        if share is None or share <= bound / 3:
            verdict = "steady"
        elif share <= bound:
            verdict = "wide"
            worst = max(worst, 1)
        else:
            verdict = "too wide"
            worst = max(worst, 1)
        print(
            f"{workload:<13} {name:<20} {len(values):>4} {statistics.median(values):>14.4f} "
            f"{_share(share):>7} {bound * 100:5.1f}%  {verdict}"
        )
    return worst


def report_comparison(
    parent_runs: list[dict[str, Any]], change_runs: list[dict[str, Any]], declared: dict[str, Any]
) -> int:
    failed = 0
    parent_rows, change_rows = rows_of(parent_runs, 0), rows_of(change_runs, 0)
    print(
        f"{'workload':<13} {'metric':<20} {'A median':>14} {'B median':>14} "
        f"{'B worse by':>10} {'A spread':>8} {'bound':>6}"
    )
    for key in parent_rows:
        if key not in change_rows:
            continue
        workload, name = key
        entry = declared[name]
        parent = statistics.median(parent_rows[key])
        change = statistics.median(change_rows[key])
        worse = worsening(parent, change, entry["better"])
        own = spread(parent_rows[key])
        if own is not None and own > entry["bound"]:
            verdict = "unresolved"
        elif worse > entry["bound"]:
            verdict = "regressed"
        elif worse < -entry["bound"]:
            verdict = "improved"
        else:
            verdict = "ok"
        failed += verdict in ("unresolved", "regressed")
        print(
            f"{workload:<13} {name:<20} {parent:>14.4f} {change:>14.4f} "
            f"{_share(worse):>10} {_share(own):>8} {entry['bound'] * 100:5.1f}%  {verdict}"
            f"  (base: A median {parent:.6g} {entry['unit']})"
        )
    failed += report_counts(parent_runs, change_runs, declared)
    return 1 if failed else 0


def report_counts(
    parent_runs: list[dict[str, Any]], change_runs: list[dict[str, Any]], declared: dict[str, Any]
) -> int:
    """Exact-repeat check of the deterministic values, seed by seed.

    The traced ``serve_http`` pass is exempt: how requests coalesce in the
    server depends on timing, so its engine counts legitimately vary.
    """
    differing = 0
    checked = 0

    def by_seed(runs: list[dict[str, Any]]) -> dict[tuple[str, int, int], dict[str, Any]]:
        return {(run["workload"], run["seed"], run["trace"]): run["metrics"] for run in runs}

    parent, change = by_seed(parent_runs), by_seed(change_runs)
    for key in parent.keys() & change.keys():
        workload, seed, trace = key
        for name, entry in parent[key].items():
            if not declared[name]["exact"] or (workload == "serve_http" and trace == 1):
                continue
            checked += 1
            if entry["value"] != change[key][name]["value"]:
                differing += 1
                print(
                    f"count differs: {workload} seed {seed} {name}: "
                    f"{entry['value']!r} vs {change[key][name]['value']!r}"
                )
    print(f"exact-repeat check: {checked - differing} of {checked} deterministic values repeat")
    return differing


#: End-to-end metrics that are a pure function of the seed.  (Not
#: ``bytes_per_posting``: the manifest records the build's seconds as text,
#: so the directory's size moves by a byte or two in 40 MB.)
EXACT_END_TO_END = ("recall",)
#: Counts the operating system makes, not the program: they never repeat.
OS_COUNTS = ("core.mmap_store.minor_faults_per_op", "core.mmap_store.major_faults_per_op")


def declarations() -> dict[str, Any]:
    """Every declared metric by name; ``exact`` marks the per-seed deterministic ones."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    table = {}
    for entry in declared["end_to_end"]:
        table[entry["name"]] = {**entry, "exact": entry["name"] in EXACT_END_TO_END}
    for entry in declared["per_layer"]:
        exact = entry["unit"] == "count" and entry["name"] not in OS_COUNTS
        table[entry["name"]] = {**entry, "exact": exact}
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="results file A (alone: print its spreads)")
    parser.add_argument("change", type=Path, nargs="?", help="results file B to judge against A")
    args = parser.parse_args(argv)
    declared = declarations()
    parent_runs = load_runs(args.parent)
    if args.change is None:
        return report_spread(parent_runs, declared)
    change_runs = load_runs(args.change)
    classes = machine_class(parent_runs) | machine_class(change_runs)
    if len(classes) != 1:
        print("record only: the two files come from different machine classes")
        for fields in sorted(classes, key=repr):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(CLASS_FIELDS, fields)))
        return 2
    return report_comparison(parent_runs, change_runs, declared)


if __name__ == "__main__":
    sys.exit(main())
