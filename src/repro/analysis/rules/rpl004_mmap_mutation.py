"""RPL004 — mutation of memmap-backed arrays outside sanctioned paths.

mmap-loaded indexes are read-only by design: every ``np.memmap`` view is
opened with ``mode="r"`` and mutations overlay at the engine level
(tombstones) instead of touching the mapped pages.  A stray in-place
write would either crash (read-only mapping) or — far worse, via a
copy-on-write or writable mapping — corrupt the on-disk index that
other processes are serving from.  This rule flags:

* ``np.memmap(...)`` opened with any mode other than ``"r"`` (including
  the *default*, which is ``r+``),
* ``array.setflags(write=True)``,
* subscript/augmented stores into a variable bound from ``np.memmap``,
* stores into postings-store fields (``path_keys``/``posting_ids``/…)
  outside the sanctioned compaction paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import SourceModule, call_name, keyword_value

#: Attribute names of postings-store arrays that are memmap-backed in
#: mmap mode; in-place stores into them are never correct outside
#: compaction.
PROTECTED_FIELDS = frozenset(
    {
        "path_keys",
        "path_items",
        "path_offsets",
        "posting_ids",
        "posting_offsets",
        "vector_items",
        "vector_offsets",
    }
)

#: Functions allowed to rebuild postings arrays in place: the bulk
#: compaction paths and the slot permutation, which by contract only ever
#: run on RAM-mode stores.
SANCTIONED_FUNCTIONS = frozenset(
    {"compact", "_compact", "_compact_with_chains", "_permute_slots"}
)


def _memmap_mode(call: ast.Call) -> str | None:
    """The mode of an ``np.memmap`` call: keyword, positional, or default."""
    mode = keyword_value(call, "mode")
    if mode is None and len(call.args) >= 3:
        mode = call.args[2]
    if mode is None:
        return "r+"  # numpy's default
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic — cannot judge statically


def _store_base(target: ast.expr) -> ast.expr | None:
    """The subscripted expression of a store target, if any."""
    if isinstance(target, ast.Subscript):
        return target.value
    return None


@register
class MmapMutation(Rule):
    rule_id = "RPL004"
    title = "write to a memmap-backed array"
    rationale = (
        "mmap-loaded indexes serve read-only np.memmap views; in-place "
        "writes crash on the read-only mapping or corrupt the shared "
        "on-disk index"
    )
    hint = (
        "overlay the mutation at the engine level (tombstones / pending "
        "buffers) or materialise with np.array(view) first"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._check_memmap_modes(module)
        yield from self._check_setflags(module)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_memmap_modes(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in ("np.memmap", "numpy.memmap"):
                continue
            mode = _memmap_mode(node)
            if mode is not None and mode != "r":
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"np.memmap opened with writable mode {mode!r}; index "
                    "mappings must use mode='r'",
                )

    def _check_setflags(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.rsplit(".", 1)[-1] != "setflags":
                continue
            write = keyword_value(node, "write")
            if isinstance(write, ast.Constant) and write.value is True:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "setflags(write=True) re-enables writes on a read-only view",
                )

    def _check_function(
        self, module: SourceModule, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        sanctioned = function.name in SANCTIONED_FUNCTIONS
        mapped_names: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if call_name(node.value) in ("np.memmap", "numpy.memmap"):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            mapped_names.add(target.id)

        for node in ast.walk(function):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                base = _store_base(target)
                if base is None:
                    continue
                if isinstance(base, ast.Name) and base.id in mapped_names:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"in-place store into memmap-bound array '{base.id}'",
                        scope=function.name,
                    )
                elif (
                    not sanctioned
                    and isinstance(base, ast.Attribute)
                    and base.attr in PROTECTED_FIELDS
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"in-place store into postings-store field "
                        f"'.{base.attr}' outside a sanctioned compaction path",
                        scope=function.name,
                    )
