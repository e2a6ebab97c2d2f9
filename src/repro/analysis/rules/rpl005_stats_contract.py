"""RPL005 — stats-contract drift between query surfaces and stats classes.

``QueryStats``/``BatchQueryStats`` are the observability contract: the
CLI, ``/stats``, the benchmark gates and the equivalence suites all read
specific fields, so a query surface that stops populating one (or
populates a misspelled one — plain dataclasses accept any attribute)
drifts silently.  This rule pins the contract three ways:

* constructor keywords must be declared fields,
* attribute writes on a variable bound from a stats constructor must be
  declared fields,
* each named query surface must populate the fields it claims
  (:data:`SURFACE_CONTRACT`), and the stats dataclasses themselves must
  match :data:`DECLARED_FIELDS` — so editing ``stats.py`` without
  updating the contract table is itself a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import SourceModule, call_name

#: The declared stats contract; must match the dataclasses in
#: ``repro/core/stats.py`` (checked by this rule when linting that file).
DECLARED_FIELDS: dict[str, frozenset[str]] = {
    "KernelStats": frozenset(
        {
            "paths_extended",
            "keys_folded",
            "chain_probes",
            "merge_rows",
            "dedupe_hits",
        }
    ),
    "QueryStats": frozenset(
        {
            "filters_generated",
            "candidates_examined",
            "unique_candidates",
            "similarity_evaluations",
            "found",
            "repetitions_used",
            "shards_probed",
            "from_cache",
            "kernel",
        }
    ),
    "BatchQueryStats": frozenset(
        {
            "num_queries",
            "per_query",
            "distinct_filter_probes",
            "duplicate_filter_probes",
            "queries_deduplicated",
            "elapsed_seconds",
            "generation_seconds",
            "verification_seconds",
            "merge_seconds",
            "shards_probed",
            "minor_page_faults",
            "major_page_faults",
            "kernel",
            "fanout",
        }
    ),
    "AggregatedQueryStats": frozenset(
        {
            "num_queries",
            "total_filters_generated",
            "total_candidates_examined",
            "total_unique_candidates",
            "total_similarity_evaluations",
            "num_found",
            "per_query",
        }
    ),
}

#: Fields each query surface must populate (ctor keyword or attribute
#: write anywhere in the function body).  Keys are qualnames
#: (``Class.method`` or a module-level function name), so delegating
#: wrappers on the index classes are not held to the engine's contract.
SURFACE_CONTRACT: dict[str, frozenset[str]] = {
    # The per-repetition probe accounting of every read runner lives in one
    # place: a lone query's in ``stream``, a chunk's in ``chunk``.
    "_WaveProbes.stream": frozenset(
        {"filters_generated", "repetitions_used", "shards_probed"}
    ),
    "_WaveProbes.chunk": frozenset(
        {
            "filters_generated",
            "repetitions_used",
            "candidates_examined",
            "shards_probed",
            "distinct_filter_probes",
            "duplicate_filter_probes",
        }
    ),
    "FilterEngine._query_csr": frozenset(
        {
            "candidates_examined",
            "unique_candidates",
            "similarity_evaluations",
            "found",
        }
    ),
    "FilterEngine.query_candidates": frozenset({"unique_candidates"}),
    "FilterEngine._query_candidates_csr": frozenset({"candidates_examined"}),
    "FilterEngine._execute_batched": frozenset(
        {
            "num_queries",
            "distinct_filter_probes",
            "duplicate_filter_probes",
            "generation_seconds",
            "verification_seconds",
            "merge_seconds",
            "shards_probed",
            "queries_deduplicated",
            "elapsed_seconds",
        }
    ),
    "FilterEngine._query_batch_chunk": frozenset(
        {
            "num_queries",
            "generation_seconds",
            "verification_seconds",
            "merge_seconds",
        }
    ),
    "FilterEngine._candidate_arrays_chunk": frozenset(
        {"num_queries", "generation_seconds", "merge_seconds"}
    ),
    "run_loop_batch": frozenset(
        {"num_queries", "queries_deduplicated", "elapsed_seconds"}
    ),
}

_STATS_CLASSES = frozenset(DECLARED_FIELDS)


def _walk_functions(
    node: ast.AST, prefix: str = ""
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, function)`` pairs, class-qualified."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk_functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child
            yield from _walk_functions(child, f"{prefix}{child.name}.")
        else:
            yield from _walk_functions(child, prefix)


def _stats_ctor_name(call: ast.Call) -> str | None:
    name = call_name(call)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    return tail if tail in _STATS_CLASSES else None


@register
class StatsContract(Rule):
    rule_id = "RPL005"
    title = "stats contract drift"
    rationale = (
        "QueryStats/BatchQueryStats fields are read by the CLI, /stats and "
        "the benchmark gates; surfaces that stop populating them (or write "
        "misspelled fields) drift silently because dataclasses accept any "
        "attribute"
    )
    hint = "update the surface and the contract table in rpl005 together"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._check_class_drift(module)
        for qualname, function in _walk_functions(module.tree):
            yield from self._check_function(module, function, qualname)

    def _check_class_drift(self, module: SourceModule) -> Iterator[Finding]:
        """When linting the stats module itself, pin the declared contract."""
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef) or node.name not in _STATS_CLASSES:
                continue
            annotated = {
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and not statement.target.id.startswith("_")
            }
            declared = DECLARED_FIELDS[node.name]
            for missing in sorted(declared - annotated):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"'{node.name}' no longer declares field '{missing}' listed "
                    "in the lint contract",
                    scope=node.name,
                )
            for extra in sorted(annotated - declared):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"'{node.name}' declares field '{extra}' unknown to the "
                    "lint contract; update DECLARED_FIELDS in rpl005",
                    scope=node.name,
                )

    def _check_function(
        self,
        module: SourceModule,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
    ) -> Iterator[Finding]:
        stats_vars: dict[str, str] = {}  # variable name -> stats class
        populated: set[str] = set()

        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                ctor = _stats_ctor_name(node)
                if ctor is not None:
                    declared = DECLARED_FIELDS[ctor]
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            continue
                        populated.add(keyword.arg)
                        if keyword.arg not in declared:
                            yield self.finding(
                                module,
                                node.lineno,
                                node.col_offset,
                                f"'{ctor}(...)' called with unknown field "
                                f"'{keyword.arg}'",
                                scope=function.name,
                            )
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(node.value, ast.Call)
                        and _stats_ctor_name(node.value) is not None
                    ):
                        stats_vars[target.id] = _stats_ctor_name(node.value) or ""

        for node in ast.walk(function):
            target: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AugAssign):
                target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in stats_vars
            ):
                populated.add(target.attr)
                declared = DECLARED_FIELDS[stats_vars[target.value.id]]
                if target.attr not in declared:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"write to unknown field '{target.attr}' on "
                        f"{stats_vars[target.value.id]} variable "
                        f"'{target.value.id}'",
                        scope=function.name,
                    )

        required = SURFACE_CONTRACT.get(qualname)
        if required is not None:
            # Count attribute writes on *any* variable as populating —
            # chunk surfaces write through per_query elements too.
            for node in ast.walk(function):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Attribute
                ):
                    populated.add(node.target.attr)
                elif isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Attribute):
                            populated.add(tgt.attr)
            for missing in sorted(required - populated):
                yield self.finding(
                    module,
                    function.lineno,
                    function.col_offset,
                    f"query surface '{function.name}' no longer populates "
                    f"contract field '{missing}'",
                    scope=function.name,
                )
