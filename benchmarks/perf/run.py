"""The repository's benchmark: four workloads, one build, every answer checked.

Driver form (one workload, result as the last line of stdout)::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

By hand, ``run.py --seed S`` runs all four workloads off one build and
prints every end-to-end metric by name with its unit; ``--trace`` is the
separate traced pass that prints the per-layer metrics and writes the spans
to ``benchmarks/perf/out/``; ``--smoke`` is a seconds-long miniature;
``--out FILE`` appends the results, with the machine fingerprint, for
``compare.py``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import bootstrap

WORKLOADS = ("offline_ram", "serve_http", "routed_mixed", "build_churn")


def declarations() -> dict[str, Any]:
    return json.loads(bootstrap.BENCHMARK_JSON.read_text())


def parse_args(argv: list[str] | None, default_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the dataset and queries")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measuring time per workload (default {default_seconds}; 2 with --smoke)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or bare --trace): the traced pass, per-layer metrics instead of end-to-end",
    )
    parser.add_argument("--smoke", action="store_true", help="miniature sizes, for the schema test")
    parser.add_argument("--out", type=Path, help="append the results to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(default_seconds)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def kill_children() -> None:
    """SIGKILL and reap whatever child processes are still around.

    Every workload stops what it started in its own ``finally``; this is the
    net under them for a run that died half way.
    """
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    for task in Path("/proc/self/task").iterdir():
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            try:
                os.kill(int(child), signal.SIGKILL)
                os.waitpid(int(child), 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _on_timeout(_signum: int, _frame: Any) -> None:
    raise TimeoutError("workload exceeded its hard timeout")


def run_workload(name: str, context: Any) -> Any:
    """Import and run one workload under the hard timeout."""
    import harness

    module = importlib.import_module(f"wl_{name}")
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(int(harness.WORKLOAD_TIMEOUT_SECONDS))
    try:
        return module.run(context)
    finally:
        signal.alarm(0)


def format_table(workload: str, metrics: dict[str, dict[str, Any]], samples: dict[str, int]) -> str:
    width = max(len(name) for name in metrics)
    lines = [f"== {workload} =="]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.4f} {entry['unit']}")
    if samples:
        lines.append("  samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    return "\n".join(lines)


def append_results(path: Path, records: list[dict[str, Any]]) -> None:
    existing = json.loads(path.read_text())["runs"] if path.is_file() else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": existing + records}, indent=1))


def main(argv: list[str] | None = None) -> int:
    bootstrap.add_src_to_path()
    declared = declarations()
    args = parse_args(argv, declared["run_seconds"])

    import harness
    import layers
    import spans

    end_to_end = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    selected = [args.workload] if args.workload else list(WORKLOADS)
    scale = harness.SMOKE if args.smoke else harness.FULL
    tracer = spans.Tracer() if args.trace else None

    bootstrap.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run_", dir=bootstrap.OUT_DIR))
    records = []
    all_correct = True
    try:
        # build_churn's traced pass wants the build itself under the wrappers.
        trace_build = tracer is not None and "build_churn" in selected
        if trace_build:
            tracer.install()
        shared = harness.shared_setup(scale, args.seed, tmp)
        if trace_build:
            tracer.uninstall()
        shared.build_spans = (0, tracer.mark()) if trace_build else None
        stamp = harness.fingerprint()

        for name in selected:
            ledger = harness.Ledger()
            context = harness.Context(
                shared=shared,
                seconds=args.seconds,
                ledger=ledger,
                tracer=tracer,
                layers=layers.LayerMetrics(per_layer) if tracer is not None else None,
            )
            since = tracer.mark() if tracer is not None else 0
            started = time.perf_counter()
            outcome = run_workload(name, context)
            if tracer is not None:
                values = context.layers.as_dict()
                units = per_layer
                tracer.dump(bootstrap.OUT_DIR / f"trace_{name}.json", since)
            else:
                values = {
                    "setup_s": shared.seconds + outcome.prep_seconds,
                    "build_vectors_per_s": shared.build_vectors_per_s,
                    "save_s": shared.save_seconds,
                    "bytes_per_posting": shared.bytes_per_posting,
                    **outcome.metrics,
                }
                units = end_to_end
            if set(values) != set(units):
                raise RuntimeError(
                    f"{name}: emitted metrics differ from BENCHMARK.json: "
                    f"{sorted(set(values) ^ set(units))}"
                )
            metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
            correct = ledger.failed == 0 and ledger.attempted > 0
            all_correct = all_correct and correct
            print(format_table(name, metrics, outcome.samples))
            for example in ledger.examples:
                print(f"  FAILED: {example}")
            result = {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
            records.append(
                {
                    **result,
                    "workload": name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "scale": scale.name,
                    "samples": outcome.samples,
                    "wall_seconds": time.perf_counter() - started,
                    "fingerprint": stamp,
                }
            )
            print(json.dumps(result))
    finally:
        kill_children()
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out is not None:
        append_results(args.out, records)
    return 0 if all_correct else 1


if __name__ == "__main__":
    # The spawn transport re-imports this file in every shard worker; only
    # the real entry point may run the benchmark.
    sys.exit(main())
