"""Spans recorded from outside the program: wrappers on public entry points.

The program has no tracing of its own yet (the ROADMAP's timing spine), so
the traced pass replaces each layer's public functions with thin wrappers
that record ``(name, start, end, parent, op)`` in memory.  A span's *self*
time is its duration minus the part of that interval its child spans cover;
summed per layer it says where the wall time went without double counting.

Parents come from a per-thread stack.  The shard router fans probes out on
a thread pool, so spans that start on an empty stack while a router span is
open are adopted by it (one caller, one engine lane: never ambiguous here).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: Field positions of one span record.
NAME, START, END, PARENT, OP, VALUE = range(6)

#: ``(module, attribute path, span name)`` for every wrapped entry point.
#: Functions the program imports *by name* are listed once per importing
#: module — patching only the defining module would leave those call sites
#: untraced, which the wrapper self-check exists to catch.
_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.engine", "FilterEngine.query", "core.engine:query"),
    ("repro.core.engine", "FilterEngine.query_batch", "core.engine:query_batch"),
    (
        "repro.core.engine",
        "FilterEngine.query_candidates_arrays_batch",
        "core.engine:query_candidates_arrays_batch",
    ),
    ("repro.core.paths", "PathGenerator.generate", "core.paths:generate"),
    ("repro.core.paths", "PathGenerator.generate_batch", "core.paths:generate_batch"),
    (
        "repro.core.inverted_index",
        "InvertedFilterIndex.probe_batch_routed",
        "core.inverted_index:probe_batch_routed",
    ),
    ("repro.core.inverted_index", "InvertedFilterIndex.add", "core.inverted_index:add"),
    ("repro.core.inverted_index", "InvertedFilterIndex.compact", "core.inverted_index:compact"),
    (
        "repro.core.mmap_store",
        "ShardedInvertedFilterIndex.probe_batch_routed",
        "core.mmap_store:probe_batch_routed",
    ),
    ("repro.core.join", "similarity_join", "core.join:similarity_join"),
    ("repro.serve.service", "similarity_join", "core.join:similarity_join"),
    ("repro.core.serialization", "save_index", "core.serialization:save_index"),
    ("repro.core.serialization", "load_index", "core.serialization:load_index"),
    ("repro.dist.router", "ShardRouter.probe_batch_routed", "dist.router:probe_batch_routed"),
    ("repro.dist.protocol", "encode_probe_request", "dist.protocol:encode_probe_request"),
    ("repro.dist.protocol", "decode_message", "dist.protocol:decode_message"),
    ("repro.dist.transport", "SpawnTransport._request", "dist.transport:_request"),
    ("repro.dist.worker", "ShardWorkerState.probe", "dist.worker:probe"),
)

#: Modules that imported ``get_impl`` by name; each gets the traced dispatch.
_KERNEL_CONSUMERS = ("repro.core.engine", "repro.core.inverted_index", "repro.core.paths")
_KERNEL_ENTRY_POINTS = (
    "extend_level",
    "chain_resolve",
    "merge_labeled",
    "ordered_unique",
    "sorted_unique",
)

#: Spans that adopt parentless spans started on other threads while open.
_ADOPTERS = frozenset({"dist.router:probe_batch_routed"})

#: Spans whose value slot records a payload size in bytes.
_BYTE_SIZES: dict[str, Callable[[tuple[Any, ...], Any], int]] = {
    "dist.protocol:encode_probe_request": lambda args, result: len(result),
    "dist.protocol:decode_message": lambda args, result: len(args[0]),
}


class Tracer:
    """In-memory span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopter: int | None = None
        self._next_op = 0
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------- #

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``function`` wrapped to record one span per call."""
        spans = self.spans
        local = self._local
        lock = self._lock
        adopts = name in _ADOPTERS
        size_of = _BYTE_SIZES.get(name)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._adopter
            if parent is None:
                op = self._next_op
                self._next_op = op + 1
            else:
                op = spans[parent][OP]
            record = [name, 0.0, 0.0, parent, op, 0]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            previous_adopter = self._adopter
            if adopts:
                self._adopter = index
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if adopts:
                    self._adopter = previous_adopter
            if size_of is not None:
                record[VALUE] = size_of(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------- #

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Replace every target with its traced wrapper (idempotent)."""
        if self._originals:
            return
        for module_name, path, span_name in _TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._patch(owner, attribute, self.wrap(span_name, getattr(owner, attribute)))
        traced_impls: dict[str, Any] = {}
        for module_name in _KERNEL_CONSUMERS:
            module = importlib.import_module(module_name)
            self._patch(module, "get_impl", self._traced_dispatch(module.get_impl, traced_impls))

    def _traced_dispatch(
        self, get_impl: Callable[[], Any], cache: dict[str, Any]
    ) -> Callable[[], Any]:
        def traced_get_impl() -> Any:
            impl = get_impl()
            traced = cache.get(impl.name)
            if traced is None:
                traced = cache[impl.name] = dataclasses.replace(
                    impl,
                    **{
                        entry: self.wrap(f"core.kernels:{entry}", getattr(impl, entry))
                        for entry in _KERNEL_ENTRY_POINTS
                    },
                )
            return traced

        return traced_get_impl

    def uninstall(self) -> None:
        """Put every original back."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------- #

    def mark(self) -> int:
        """Position in the span list; pass to the analysis calls as ``since``."""
        return len(self.spans)

    def dump(self, path: Path, since: int = 0) -> None:
        """Write the spans recorded from ``since`` on as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "op", "value"],
            "offset": since,
            "spans": self.spans[since:],
        }
        path.write_text(json.dumps(payload))


def load_spans(path: Path) -> list[list[Any]]:
    """Read a span file written by :meth:`Tracer.dump` (parents re-based)."""
    payload = json.loads(path.read_text())
    offset = int(payload["offset"])
    spans = payload["spans"]
    for record in spans:
        parent = record[PARENT]
        record[PARENT] = None if parent is None or parent < offset else parent - offset
    return spans


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanSummary:
    """Per-name totals over the window ``spans[since:until]``.

    ``seconds`` is inclusive time, ``self_seconds`` excludes the time child
    spans cover, ``values`` sums the value slot, ``root_seconds`` is the
    inclusive time of parentless spans (the traced part of the wall) and
    ``under[root][name]`` is the inclusive time of ``name`` spans grouped by
    the name of the outermost span that caused them.
    """

    def __init__(
        self, spans: Sequence[Sequence[Any]], since: int = 0, until: int | None = None
    ) -> None:
        until = len(spans) if until is None else until
        self.count: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.values: dict[str, int] = {}
        self.under: dict[str, dict[str, float]] = {}
        self.root_seconds = 0.0
        children: dict[int, list[tuple[float, float]]] = {}
        root_name: dict[int, str] = {}
        for position in range(since, until):
            record = spans[position]
            parent = record[PARENT]
            if parent is not None and parent >= since:
                children.setdefault(parent, []).append((record[START], record[END]))
                # A parent is always recorded before its children.
                root_name[position] = root_name[parent]
            else:
                root_name[position] = record[NAME]
        for position in range(since, until):
            record = spans[position]
            name = record[NAME]
            duration = record[END] - record[START]
            clipped = [
                (max(start, record[START]), min(end, record[END]))
                for start, end in children.get(position, ())
            ]
            self.count[name] = self.count.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + duration
            self.self_seconds[name] = (
                self.self_seconds.get(name, 0.0) + duration - _covered(clipped)
            )
            self.values[name] = self.values.get(name, 0) + int(record[VALUE])
            group = self.under.setdefault(root_name[position], {})
            group[name] = group.get(name, 0.0) + duration
            if record[PARENT] is None or record[PARENT] < since:
                self.root_seconds += duration

    def layer_self_seconds(self, layer: str) -> float:
        """Self time summed over every span of one layer (``layer:function``)."""
        prefix = layer + ":"
        return sum(
            seconds for name, seconds in self.self_seconds.items() if name.startswith(prefix)
        )

    def missing(self, declared: Iterable[str]) -> list[str]:
        """Declared span names that never fired (a dead wrapper)."""
        return sorted(name for name in declared if not self.count.get(name))
