"""RPL005 — stats-contract drift between query surfaces and stats classes.

``QueryStats``/``BatchQueryStats`` are the observability contract: the
CLI, ``/stats``, the benchmark gates and the equivalence suites all read
specific fields, so a query surface that stops populating one (or
populates a misspelled one — plain dataclasses accept any attribute)
drifts silently.  The declared fields are read off the records in
:mod:`repro.core.stats` themselves, and the rule pins the contract three
ways:

* constructor keywords must be declared fields,
* attribute writes on a variable bound from a stats constructor must be
  declared fields,
* each named query surface must populate the fields it claims
  (:data:`SURFACE_CONTRACT`), each of which some record must declare.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import SourceModule, call_name
from repro.core import stats

#: Each stats record's declared fields, read off the dataclass.
_RECORD_FIELDS: dict[str, frozenset[str]] = {
    name: frozenset(spec.name for spec in fields(record))
    for name, record in vars(stats).items()
    if isinstance(record, type)
    and issubclass(record, stats.StatsRecord)
    and record is not stats.StatsRecord
}
_DECLARED = frozenset().union(*_RECORD_FIELDS.values())

#: Fields each query surface must populate (ctor keyword or attribute
#: write anywhere in the function body).  Keys are qualnames
#: (``Class.method`` or a module-level function name), so delegating
#: wrappers on the index classes are not held to the engine's contract.
SURFACE_CONTRACT: dict[str, frozenset[str]] = {
    # The per-repetition probe accounting of both read runners lives in one
    # place, ``chunk``; ``query`` is a one-query chunk of the first runner.
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
    # The chunk counters reach the batch through ``accumulate``.
    "FilterEngine._execute_batched": frozenset(
        {"num_queries", "queries_deduplicated", "elapsed_seconds"}
    ),
    # The as-if stop: a ``"first"`` hit ends its query's counts.
    "FilterEngine._query_batch_chunk": frozenset(
        {
            "num_queries",
            "generation_seconds",
            "verification_seconds",
            "merge_seconds",
            "candidates_examined",
            "unique_candidates",
            "similarity_evaluations",
            "found",
        }
    ),
    # ``query_candidates`` runs as a one-query chunk of this.
    "FilterEngine._candidate_arrays_chunk": frozenset(
        {"num_queries", "generation_seconds", "merge_seconds", "unique_candidates"}
    ),
    "run_loop_batch": frozenset(
        {"num_queries", "queries_deduplicated", "elapsed_seconds"}
    ),
}


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
    return tail if tail in _RECORD_FIELDS else None


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
        for qualname, function in _walk_functions(module.tree):
            yield from self._check_function(module, function, qualname)

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
                    declared = _RECORD_FIELDS[ctor]
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
                declared = _RECORD_FIELDS[stats_vars[target.value.id]]
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
            for undeclared in sorted(required - _DECLARED):
                yield self.finding(
                    module,
                    function.lineno,
                    function.col_offset,
                    f"contract field '{undeclared}' of '{function.name}' is "
                    "declared by no stats record",
                    scope=function.name,
                )
            for missing in sorted(required - populated):
                yield self.finding(
                    module,
                    function.lineno,
                    function.col_offset,
                    f"query surface '{function.name}' no longer populates "
                    f"contract field '{missing}'",
                    scope=function.name,
                )
