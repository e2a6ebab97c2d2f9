"""Command-line interface.

Ten subcommands cover the workflows a downstream user needs without writing
Python (``docs/cli.md`` is the full flag-by-flag reference and CI snapshot):

* ``repro generate`` — write a synthetic benchmark-like dataset in
  transaction format;
* ``repro profile`` — skew / dependence profile of a transaction file plus
  the predicted query exponents (the Section 8 analyses applied to your own
  data);
* ``repro build`` — build a skew-adaptive index over a transaction file and
  save it to disk (the sharded format v3 by default; ``--shards`` controls
  the key-range shard count and ``--format 2`` writes the legacy container);
* ``repro query`` — load a saved index and run queries from a transaction
  file, printing matches and work statistics (``--candidates-only`` stops
  after the CSR probe/merge phase and reports the merged candidate sets;
  ``--load-mode mmap`` serves the queries from lazily mapped shards instead
  of loading the index into RAM).
* ``repro query-batch`` — the same workload through the batched execution
  engine: vectorised filter generation and probe deduplication across the
  batch, with throughput and per-phase (generation / merge / verification)
  timing reporting; also honours ``--candidates-only`` and ``--load-mode``.
* ``repro convert`` — rewrite a saved index in another format: v1/v2 → v3
  upgrades by default, ``--format 2`` downgrades a v3 directory to the
  legacy single-file container;
* ``repro inspect`` — print the format version, configuration, build
  statistics, shard layout and on-disk vs resident footprint of a saved
  index (any format) without running queries;
* ``repro serve`` — serve one or more saved indexes over HTTP with
  server-side micro-batching: concurrent requests are coalesced into
  amortised ``query_batch`` calls (``--batch-window-ms``), bounded by a
  load-shedding admission limit (``--max-pending``), with latency and
  coalescing statistics on ``/stats``; ``--shard-procs N`` fans probes out
  over N shard worker processes (``--shard-addr`` connects to pre-started
  ``shard-worker`` servers instead), with per-shard health on ``/stats``
  and ``/metrics`` (see ``docs/distributed.md``);
* ``repro shard-worker`` — serve a subset of a v3 index's key-range shards
  over a TCP or unix socket for a ``--shard-addr`` router to fan out to;
* ``repro experiments`` — regenerate one of the paper's tables/figures as a
  text table.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.generators import all_benchmark_names, generate_benchmark_like
    from repro.data.io import write_transactions

    if args.name.upper() not in {name.upper() for name in all_benchmark_names()}:
        print(f"unknown dataset profile {args.name!r}; choose from {all_benchmark_names()}")
        return 2
    collection = generate_benchmark_like(args.name, scale=args.scale, seed=args.seed)
    write_transactions(collection, args.output)
    print(
        f"wrote {len(collection)} sets over a universe of {collection.dimension} items "
        f"to {args.output}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.data.analysis import independence_ratio, skew_summary
    from repro.data.estimation import recommend_parameters
    from repro.data.io import read_transactions
    from repro.evaluation.reporting import format_table
    from repro.theory.comparison import compare_methods

    collection = read_transactions(args.input)
    if len(collection) == 0:
        print("the input file contains no sets")
        return 2
    summary = skew_summary(collection)
    pair_ratio = independence_ratio(collection, 2, num_samples=args.samples, seed=args.seed)
    rows = [
        {
            "sets": len(collection),
            "universe": collection.dimension,
            "avg size": round(collection.average_size(), 2),
            "gini": round(summary.gini, 3),
            "zipf exponent": round(summary.zipf_exponent, 3),
            "top-10% mass": round(summary.top_10_percent_mass, 3),
            "pair dependence ratio": round(pair_ratio, 2),
        }
    ]
    print(format_table(rows, title=f"Profile of {args.input}"))

    frequencies = np.clip(collection.item_frequencies(), 1e-9, 0.5)
    comparison = compare_methods(frequencies, args.alpha, num_vectors=len(collection))
    recommendation = recommend_parameters(collection, alpha=args.alpha)
    print()
    print(
        format_table(
            [
                {
                    "ours (rho)": round(comparison.skew_adaptive_rho, 3),
                    "chosen_path (rho)": round(comparison.chosen_path_rho, 3),
                    "prefix exponent": round(comparison.prefix_filter_exponent, 3),
                    "recommended repetitions": recommendation.repetitions,
                    "meets size requirement": recommendation.meets_size_requirement,
                }
            ],
            title=f"Predicted query exponents at alpha = {args.alpha:g}",
        )
    )
    return 0


def _print_kernel_stats(kernel: Any) -> None:
    """Render a :class:`~repro.core.stats.KernelStats` as a counter table."""
    from repro.core.kernels import active_backend
    from repro.evaluation.reporting import format_table

    rows = [
        {"counter": name, "count": value} for name, value in kernel.to_dict().items()
    ]
    print()
    print(format_table(rows, title=f"Kernel counters ({active_backend()} backend)"))


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.config import (
        CorrelatedIndexConfig,
        PersistenceConfig,
        SkewAdaptiveIndexConfig,
    )
    from repro.core.correlated_index import CorrelatedIndex
    from repro.core.serialization import save_index
    from repro.core.skewed_index import SkewAdaptiveIndex
    from repro.data.estimation import estimate_probabilities
    from repro.data.io import read_transactions

    collection = read_transactions(args.input)
    if len(collection) == 0:
        print("the input file contains no sets")
        return 2
    distribution = estimate_probabilities(collection)
    if args.kind == "correlated":
        index = CorrelatedIndex(
            distribution,
            config=CorrelatedIndexConfig(
                alpha=args.alpha, repetitions=args.repetitions, seed=args.seed
            ),
        )
    else:
        index = SkewAdaptiveIndex(
            distribution,
            config=SkewAdaptiveIndexConfig(
                b1=args.b1, repetitions=args.repetitions, seed=args.seed
            ),
        )
    stats = index.build(list(collection))
    from repro.core.serialization import index_disk_bytes

    persistence = PersistenceConfig(
        format_version=args.format,
        shards=args.shards,
        compress=not args.no_compress,
    )
    save_index(index, args.output, config=persistence)
    size = index_disk_bytes(args.output)
    layout = (
        f"format v{args.format}, {args.shards} shards" if args.format == 3 else "format v2"
    )
    print(
        f"built a {args.kind} index over {stats.num_vectors} sets "
        f"({stats.total_filters} filters, {stats.repetitions} repetitions) and saved it to "
        f"{args.output} ({layout}, {size} bytes)"
    )
    if args.kernel_stats:
        _print_kernel_stats(stats.kernel)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.core.config import PersistenceConfig
    from repro.core.serialization import convert_index_file, index_disk_bytes

    try:
        source_size = index_disk_bytes(args.input)
        convert_index_file(
            args.input,
            args.output,
            config=PersistenceConfig(format_version=args.format, shards=args.shards),
        )
    except (ValueError, OSError) as error:
        print(f"cannot convert {args.input}: {error}")
        return 2
    output_size = index_disk_bytes(args.output)
    if output_size and source_size / output_size >= 1.05:
        comparison = f", {source_size / output_size:.1f}x smaller"
    else:
        comparison = ""
    print(
        f"converted {args.input} ({source_size} bytes) to format v{args.format} at "
        f"{args.output} ({output_size} bytes{comparison})"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.serialization import describe_index_file
    from repro.evaluation.reporting import format_table

    try:
        description = describe_index_file(args.index)
    except (ValueError, OSError) as error:
        print(f"cannot inspect {args.index}: {error}")
        return 2
    build_stats = description["build_stats"]
    rows = [
        {
            "format": f"v{description['format_version']}",
            "kind": description["kind"],
            "vectors": description["num_vectors"],
            "filters": build_stats.get("total_filters", 0),
            "repetitions": description["repetitions"],
            "shards": description["num_shards"] if description["num_shards"] else "-",
            "disk bytes": description["disk_bytes"],
            "resident bytes": description["resident_bytes"],
        }
    ]
    print(format_table(rows, title=f"Saved index {args.index}"))
    if description["num_shards"]:
        fences = description["fences"]
        bounds = [0, *fences, 1 << 64]
        shard_rows = [
            {
                "shard": shard,
                "key range": f"[{bounds[shard]:#018x}, {bounds[shard + 1]:#018x})",
                "slots": entry["slots"],
                "postings": entry["postings"],
            }
            for shard, entry in enumerate(description["shards"])
        ]
        print()
        print(
            format_table(
                shard_rows,
                title=f"{description['num_shards']} key-range shards (all repetitions)",
            )
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_index
    from repro.data.io import read_transactions
    from repro.evaluation.reporting import format_table

    try:
        index = load_index(args.index, mode=args.load_mode)
    except (ValueError, OSError) as error:
        print(f"cannot load {args.index}: {error}")
        return 2
    from repro.core.stats import KernelStats

    queries = read_transactions(args.queries)
    rows = []
    kernel_total = KernelStats()
    if args.candidates_only:
        for query_number, query in enumerate(queries):
            candidates, stats = index.query_candidates(query)
            kernel_total.add(stats.kernel)
            rows.append(
                {
                    "query": query_number,
                    "unique": stats.unique_candidates,
                    "candidates": stats.candidates_examined,
                    "filters": stats.filters_generated,
                    "sample": ",".join(str(v) for v in sorted(candidates)[:5]) or "-",
                }
            )
        print(
            format_table(
                rows, title=f"{len(queries)} candidate probes against {args.index}"
            )
        )
        total = sum(row["candidates"] for row in rows)
        unique = sum(row["unique"] for row in rows)
        print(
            f"\n{total} candidate collisions merged into {unique} distinct candidates "
            "(verification skipped)"
        )
        if args.kernel_stats:
            _print_kernel_stats(kernel_total)
        return 0
    for query_number, query in enumerate(queries):
        result, stats = index.query(query, mode=args.mode)
        kernel_total.add(stats.kernel)
        rows.append(
            {
                "query": query_number,
                "match": "-" if result is None else result,
                "candidates": stats.candidates_examined,
                "filters": stats.filters_generated,
            }
        )
    print(format_table(rows, title=f"{len(queries)} queries against {args.index}"))
    found = sum(1 for row in rows if row["match"] != "-")
    print(f"\n{found}/{len(queries)} queries returned a match")
    if args.kernel_stats:
        _print_kernel_stats(kernel_total)
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    import time

    from repro.core.config import DEFAULT_BATCH_SIZE, BatchQueryConfig
    from repro.core.serialization import load_index
    from repro.data.io import read_transactions
    from repro.evaluation.reporting import format_table

    config = BatchQueryConfig(
        batch_size=args.batch_size if args.batch_size is not None else DEFAULT_BATCH_SIZE,
        allow_partial=args.allow_partial,
    )
    try:
        index = load_index(args.index, mode=args.load_mode)
    except (ValueError, OSError) as error:
        print(f"cannot load {args.index}: {error}")
        return 2
    queries = list(read_transactions(args.queries))
    start = time.perf_counter()
    if args.candidates_only:
        candidate_lists, batch_stats = index.query_candidates_batch(
            queries, **config.as_kwargs()
        )
        results = None
    else:
        results, batch_stats = index.query_batch(
            queries, mode=args.mode, **config.as_kwargs()
        )
    elapsed = time.perf_counter() - start
    rows = []
    for query_number, stats in enumerate(batch_stats.per_query):
        row = {"query": query_number}
        if results is None:
            row["unique"] = stats.unique_candidates
        else:
            result = results[query_number]
            row["match"] = "-" if result is None else result
        row["candidates"] = stats.candidates_examined
        row["filters"] = stats.filters_generated
        row["cached"] = "yes" if stats.from_cache else ""
        rows.append(row)
    what = "batched candidate probes" if results is None else "batched queries"
    print(format_table(rows, title=f"{len(queries)} {what} against {args.index}"))
    throughput = len(queries) / elapsed if elapsed > 0 else float("inf")
    if results is None:
        distinct = len(set().union(*candidate_lists)) if candidate_lists else 0
        memberships = sum(len(candidates) for candidates in candidate_lists)
        print(
            f"\n{memberships} per-query candidate memberships over "
            f"{distinct} distinct vectors (verification skipped)"
        )
    else:
        found = sum(1 for result in results if result is not None)
        print(f"\n{found}/{len(queries)} queries returned a match")
    print(
        f"batch of {len(queries)} in {elapsed:.4f}s ({throughput:.0f} queries/s); "
        f"probe dedupe hit rate {batch_stats.dedupe_hit_rate:.1%}, "
        f"{batch_stats.queries_deduplicated} duplicate queries answered from cache"
    )
    print(
        "phase seconds: "
        f"generation {batch_stats.generation_seconds:.4f}, "
        f"merge {batch_stats.merge_seconds:.4f}, "
        f"verification {batch_stats.verification_seconds:.4f}"
    )
    if args.kernel_stats:
        _print_kernel_stats(batch_stats.kernel)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import IndexSpec, ServeConfig, run_server

    if args.shard_addr and args.extra_index:
        print("--shard-addr applies to the positional index only; it cannot "
              "be combined with --index NAME=PATH extras")
        return 2
    try:
        specs = [
            IndexSpec(
                name=args.name,
                path=str(args.index),
                load_mode=args.load_mode,
                shard_procs=args.shard_procs,
                shard_addrs=tuple(args.shard_addr) if args.shard_addr else None,
                fault_spec=args.fault_spec,
            )
        ]
        for extra in args.extra_index or []:
            name, separator, path = extra.partition("=")
            if not separator or not name or not path:
                print(f"--index expects NAME=PATH, got {extra!r}")
                return 2
            specs.append(
                IndexSpec(
                    name=name,
                    path=path,
                    load_mode=args.load_mode,
                    shard_procs=args.shard_procs,
                )
            )
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            print(f"duplicate index names: {sorted(names)}")
            return 2
        config = ServeConfig(
            host=args.host,
            port=args.port,
            batch_window_ms=args.batch_window_ms,
            max_batch_queries=args.max_batch_size,
            max_pending_queries=args.max_pending,
            retry_after_seconds=args.retry_after,
            default_deadline_ms=args.default_deadline_ms,
        )
    except ValueError as error:
        print(f"cannot serve: {error}")
        return 2
    try:
        run_server(specs, config)
    except (ValueError, OSError) as error:
        print(f"cannot serve: {error}")
        return 2
    return 0


def _parse_shard_set(text: str) -> list[int]:
    """Parse a ``--shards`` spec: comma-separated ids and ``A-B`` ranges."""
    shards: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        low, dash, high = part.partition("-")
        if dash:
            shards.update(range(int(low), int(high) + 1))
        else:
            shards.add(int(part))
    if not shards:
        raise ValueError(f"no shard ids in {text!r}")
    return sorted(shards)


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.dist import ShardServer, ShardWorkerState

    try:
        shards = _parse_shard_set(args.shards)
        state = ShardWorkerState(str(args.index), shards)
    except (ValueError, OSError) as error:
        print(f"cannot start shard worker: {error}")
        return 2
    server = ShardServer(
        state,
        host=args.host,
        port=args.port,
        socket_path=str(args.socket) if args.socket else None,
    )
    try:
        address = server.start()
    except OSError as error:
        print(f"cannot start shard worker: {error}")
        return 2
    # The "ready" line is the startup contract: a supervisor greps for it and
    # takes the last whitespace-separated token as the bound address.
    print(
        f"shard-worker serving shards {','.join(map(str, shards))} of "
        f"{args.index} — ready {address}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.evaluation.experiments import (
        figure1,
        figure2,
        motivating,
        section7_adversarial,
        section7_correlated,
        table1,
    )

    if args.which == "figure1":
        print(figure1.render(figure1.run()))
    elif args.which == "figure2":
        profiles = figure2.run(scale=args.scale, seed=args.seed)
        print(figure2.render(profiles, axis="relative"))
    elif args.which == "table1":
        print(table1.render(table1.run(scale=args.scale, seed=args.seed)))
    elif args.which == "section7.1":
        print(section7_adversarial.render(section7_adversarial.run()))
    elif args.which == "section7.2":
        print(section7_correlated.render(section7_correlated.run()))
    elif args.which == "motivating":
        print(motivating.render(motivating.run()))
    else:  # pragma: no cover - argparse restricts the choices
        print(f"unknown experiment {args.which!r}")
        return 2
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import Baseline, all_rules, lint_paths
    from repro.analysis.formatters import render

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    {rule.rationale}")
        return 0

    root = args.root.resolve()
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    try:
        baseline = Baseline.load(args.baseline) if args.baseline else Baseline.empty()
    except ValueError as error:
        print(f"cannot load baseline: {error}", file=sys.stderr)
        return 2
    result = lint_paths(paths, root=root, baseline=baseline)

    if args.update_baseline:
        if args.baseline is None:
            print("--update-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        refreshed = Baseline.from_findings(
            result.findings + result.grandfathered,
            reason=args.baseline_reason,
        )
        refreshed.save(args.baseline)
        print(
            f"baseline updated: {len(refreshed.entries)} entr(y/ies) written "
            f"to {args.baseline}"
        )
        return 0

    print(render(result, args.format))
    return 0 if result.ok else 1


def lint_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``tools/run_lint.py`` (lint without a subcommand)."""
    parser = argparse.ArgumentParser(
        prog="run_lint", description="repo-specific static analysis (RPL rules)"
    )
    _add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return _cmd_lint(args)


def _add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro under --root)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="output format (github emits workflow error annotations)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help="repository root anchoring the repo-relative finding paths",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON of grandfathered findings (entries need reasons)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline from the current findings and exit",
    )
    parser.add_argument(
        "--baseline-reason",
        default="grandfathered at baseline creation",
        help="reason recorded for entries written by --update-baseline",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )


def _positive_int(value: str) -> int:
    """argparse type for strictly positive integer options."""
    try:
        parsed = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from error
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skew-adaptive set similarity search (PODS 2018 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic benchmark-like dataset")
    generate.add_argument("name", help="dataset profile name (e.g. DBLP, KOSARAK, SPOTIFY)")
    generate.add_argument("--output", "-o", type=Path, required=True, help="output transaction file")
    generate.add_argument("--scale", type=float, default=0.25, help="size multiplier")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    profile = subparsers.add_parser("profile", help="profile skew and dependence of a dataset")
    profile.add_argument("input", type=Path, help="transaction file to profile")
    profile.add_argument("--alpha", type=float, default=2.0 / 3.0, help="correlation level for rho prediction")
    profile.add_argument("--samples", type=int, default=1000, help="samples for the dependence ratio")
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(handler=_cmd_profile)

    build = subparsers.add_parser("build", help="build and save an index over a dataset")
    build.add_argument("input", type=Path, help="transaction file to index")
    build.add_argument("--output", "-o", type=Path, required=True, help="output index file")
    build.add_argument("--kind", choices=["adversarial", "correlated"], default="adversarial")
    build.add_argument("--b1", type=float, default=0.5, help="similarity threshold (adversarial)")
    build.add_argument("--alpha", type=float, default=2.0 / 3.0, help="correlation level (correlated)")
    build.add_argument("--repetitions", type=int, default=None)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--format",
        type=int,
        choices=[2, 3],
        default=3,
        help="on-disk format: 3 (sharded, mmap-native directory; default) "
        "or 2 (legacy single-file compressed container)",
    )
    build.add_argument(
        "--shards",
        type=_positive_int,
        default=8,
        help="number of folded-key-range shards a v3 save splits the index into "
        "(default 8; ignored with --format 2)",
    )
    build.add_argument(
        "--no-compress",
        action="store_true",
        help="write a v2 file without compression (larger but faster saves; "
        "v3 is always uncompressed raw arrays)",
    )
    build.add_argument(
        "--kernel-stats",
        action="store_true",
        help="print the per-stage kernel work counters of the build "
        "(path extension, compaction chain resolution)",
    )
    build.set_defaults(handler=_cmd_build)

    convert = subparsers.add_parser(
        "convert", help="rewrite a saved index in another format (v3 upgrade / v2 downgrade)"
    )
    convert.add_argument("input", type=Path, help="saved index (any readable version)")
    convert.add_argument("--output", "-o", type=Path, required=True, help="output index path")
    convert.add_argument(
        "--format",
        type=int,
        choices=[2, 3],
        default=3,
        help="target format: 3 upgrades to the sharded mmap-native layout "
        "(default), 2 downgrades to the legacy single-file container",
    )
    convert.add_argument(
        "--shards",
        type=_positive_int,
        default=8,
        help="shard count of a v3 target (default 8; ignored with --format 2)",
    )
    convert.set_defaults(handler=_cmd_convert)

    inspect = subparsers.add_parser(
        "inspect", help="print the format, stats, shard layout and footprint of a saved index"
    )
    inspect.add_argument("index", type=Path, help="saved index file or v3 directory")
    inspect.set_defaults(handler=_cmd_inspect)

    query = subparsers.add_parser("query", help="run queries against a saved index")
    query.add_argument("index", type=Path, help="index written by 'repro build'")
    query.add_argument("queries", type=Path, help="transaction file of query sets")
    query.add_argument("--mode", choices=["first", "best"], default="first")
    query.add_argument(
        "--load-mode",
        choices=["ram", "mmap"],
        default="ram",
        help="'ram' loads the whole index into memory; 'mmap' (v3 indexes only) "
        "opens lazily mapped shards and pages in only what queries touch",
    )
    query.add_argument(
        "--candidates-only",
        action="store_true",
        help="enumerate merged candidate sets without verification "
        "(observes the CSR probe/merge phase in isolation)",
    )
    query.add_argument(
        "--kernel-stats",
        action="store_true",
        help="print the per-stage kernel work counters accumulated over the "
        "queries (path extension, CSR merges)",
    )
    query.set_defaults(handler=_cmd_query)

    query_batch = subparsers.add_parser(
        "query-batch", help="run queries through the batched execution engine"
    )
    query_batch.add_argument("index", type=Path, help="index file written by 'repro build'")
    query_batch.add_argument("queries", type=Path, help="transaction file of query sets")
    query_batch.add_argument("--mode", choices=["first", "best"], default="first")
    from repro.core.config import DEFAULT_BATCH_SIZE

    query_batch.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        help=f"queries per vectorised execution chunk (default {DEFAULT_BATCH_SIZE})",
    )
    query_batch.add_argument(
        "--load-mode",
        choices=["ram", "mmap"],
        default="ram",
        help="'ram' loads the whole index into memory; 'mmap' (v3 indexes only) "
        "opens lazily mapped shards and pages in only what queries touch",
    )
    query_batch.add_argument(
        "--allow-partial",
        action="store_true",
        help="router-backed indexes: serve from live shards when a worker's "
        "circuit breaker is open instead of failing (degraded results)",
    )
    query_batch.add_argument(
        "--candidates-only",
        action="store_true",
        help="enumerate merged candidate sets without verification "
        "(observes the CSR probe/merge phase in isolation)",
    )
    query_batch.add_argument(
        "--kernel-stats",
        action="store_true",
        help="print the per-stage kernel work counters of the batch "
        "(path extension, CSR merges)",
    )
    query_batch.set_defaults(handler=_cmd_query_batch)

    serve = subparsers.add_parser(
        "serve",
        help="serve saved indexes over HTTP with server-side micro-batching",
    )
    serve.add_argument("index", type=Path, help="saved index to serve (name 'default')")
    serve.add_argument(
        "--name",
        default="default",
        help="name the positional index is addressed by (default 'default')",
    )
    serve.add_argument(
        "--index",
        dest="extra_index",
        action="append",
        metavar="NAME=PATH",
        help="serve an additional index under NAME (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batching admission window in milliseconds; concurrent "
        "requests arriving within it coalesce into one engine call "
        "(0 disables coalescing; default 2.0)",
    )
    serve.add_argument(
        "--max-batch-size",
        type=_positive_int,
        default=DEFAULT_BATCH_SIZE,
        help="dispatch a forming batch once it holds this many queries "
        f"(default {DEFAULT_BATCH_SIZE})",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=4096,
        help="load-shedding bound on queued + executing queries per index; "
        "beyond it requests get 429 with Retry-After (default 4096)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=None,
        help="fixed Retry-After seconds for shed requests "
        "(default: estimate from the current backlog)",
    )
    serve.add_argument(
        "--load-mode",
        choices=["ram", "mmap"],
        default="mmap",
        help="'mmap' (default) opens v3 indexes lazily — the serving "
        "configuration; 'ram' loads everything for maximum throughput",
    )
    serve.add_argument(
        "--shard-procs",
        type=_positive_int,
        default=None,
        help="serve v3 indexes through a shard router: this many worker "
        "processes each mmap only their own shards, with per-shard health "
        "on /stats and /metrics (requires --load-mode mmap)",
    )
    serve.add_argument(
        "--shard-addr",
        action="append",
        metavar="ADDR",
        help="connect the positional index to a pre-started `repro "
        "shard-worker` at ADDR (host:port, a unix socket path, or "
        "unix:PATH; repeatable, one per worker)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline budget for requests without an X-Repro-Deadline-Ms "
        "header; expired requests answer 504 (default: no deadline)",
    )
    serve.add_argument(
        "--fault-spec",
        default=None,
        help="inject deterministic faults into the shard transport of "
        "router-backed indexes (a spec like 'crash:worker=0:count=2' or a "
        "preset name; chaos testing only)",
    )
    serve.set_defaults(handler=_cmd_serve)

    shard_worker = subparsers.add_parser(
        "shard-worker",
        help="serve a subset of a v3 index's shards to a router over a socket",
    )
    shard_worker.add_argument("index", type=Path, help="saved v3 index directory")
    shard_worker.add_argument(
        "--shards",
        required=True,
        help="shard ids this worker owns: comma-separated ids and A-B ranges "
        "(e.g. '0-3' or '0,2,5'); the full worker set must cover every "
        "shard of the index exactly once",
    )
    shard_worker.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)"
    )
    shard_worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP bind port; 0 picks an ephemeral port (default) — the "
        "resolved address is printed on the 'ready' line",
    )
    shard_worker.add_argument(
        "--socket",
        type=Path,
        default=None,
        help="serve on a unix domain socket at PATH instead of TCP",
    )
    shard_worker.set_defaults(handler=_cmd_shard_worker)

    experiments = subparsers.add_parser("experiments", help="regenerate a paper table/figure")
    experiments.add_argument(
        "which",
        choices=["figure1", "figure2", "table1", "section7.1", "section7.2", "motivating"],
    )
    experiments.add_argument("--scale", type=float, default=0.25)
    experiments.add_argument("--seed", type=int, default=0)
    experiments.set_defaults(handler=_cmd_experiments)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific static-analysis suite (RPL rules)",
    )
    _add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
