"""Deterministic fault injection for the shard-serving stack.

Chaos testing only works when the chaos is reproducible: the same fault
spec against the same store must produce the same failure sequence, or a
red CI run cannot be replayed locally.  This module provides

* :class:`FaultSpec` — a tiny declarative grammar for *what* to break,
  parsed from a string (CLI flag, ``REPRO_FAULTS`` env var, or the
  ``fault_spec=`` argument of ``load_routed_index``), and
* :class:`FaultyTransport` — a :class:`~repro.dist.transport.ShardTransport`
  wrapper that sits between the router and any real transport and injects
  the scheduled faults, so the full ``serve → batcher → router →
  transport → worker`` stack is driven through failure paths with zero
  test-only hooks inside the production code.

Spec grammar
------------

A spec is comma-separated *clauses*; each clause is colon-separated
fields whose first token names the fault kind and whose remaining tokens
are ``key=value`` options::

    crash:worker=0:count=2
    delay:seconds=0.05:worker=1,drop:probability=0.1:seed=7

========== ===========================================================
``delay``      sleep ``seconds`` (default 0.05) before the real call
``slow-start`` like ``delay`` but only the first ``count`` (default 1)
               matching requests per clause — a cold worker warming up
``hang``       sleep ``seconds`` (default 0.2), then fail as a timeout
``drop``       fail immediately, as a dropped connection
``corrupt``    deliver a corrupt frame (fails the payload checksum)
``crash``      kill the worker process (when the transport exposes its
               pid) and fail the request
========== ===========================================================

Common options: ``worker=N`` targets one worker (default: any),
``count=N`` limits how many times the clause fires (default: forever;
``slow-start`` defaults to once), ``probability=P`` fires the clause on
a seeded coin flip, and a standalone ``seed=N`` clause seeds that RNG.

Named presets map to full specs; ``crash-one-worker`` is the CI chaos
scenario: worker 0 crashes on first contact and again on the breaker's
first half-open probe, then stays healthy, so a smoke run observes
degradation, backoff, and recovery in one pass.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dist import protocol
from repro.dist.transport import ShardTransport, ShardUnavailableError

#: Named scenarios accepted anywhere a spec string is (CLI, env, loader).
FAULT_PRESETS: dict[str, str] = {
    # Crash on first contact and once more on the recovery probe: two
    # breaker openings with growing backoff, then full recovery.
    "crash-one-worker": "crash:worker=0:count=2",
}

_KINDS = ("delay", "slow-start", "hang", "drop", "corrupt", "crash")


@dataclass(frozen=True)
class FaultClause:
    """One scheduled fault: what breaks, where, how often."""

    kind: str
    worker: int | None = None
    count: int | None = None
    probability: float = 1.0
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.count is not None and self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.seconds is not None and self.seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {self.seconds}")

    @property
    def sleep_seconds(self) -> float:
        if self.seconds is not None:
            return self.seconds
        return 0.2 if self.kind == "hang" else 0.05


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault schedule: clauses plus the coin-flip RNG seed."""

    clauses: tuple[FaultClause, ...]
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the spec grammar (or a preset name) into a schedule."""
        text = text.strip()
        if not text:
            raise ValueError("empty fault spec")
        text = FAULT_PRESETS.get(text, text)
        clauses: list[FaultClause] = []
        seed = 0
        for raw_clause in text.split(","):
            raw_clause = raw_clause.strip()
            if not raw_clause:
                continue
            fields = raw_clause.split(":")
            head = fields[0].strip()
            if "=" in head:
                # A standalone option clause (currently only seed=N).
                key, _, value = head.partition("=")
                if key.strip() != "seed":
                    raise ValueError(
                        f"clause {raw_clause!r} starts with option "
                        f"{key.strip()!r}; only 'seed' may stand alone"
                    )
                seed = int(value)
                if len(fields) > 1:
                    raise ValueError(f"seed clause {raw_clause!r} takes no options")
                continue
            options: dict[str, Any] = {}
            for field in fields[1:]:
                key, sep, value = field.partition("=")
                key = key.strip()
                if not sep:
                    raise ValueError(
                        f"option {field!r} in clause {raw_clause!r} is not key=value"
                    )
                if key == "worker":
                    options["worker"] = int(value)
                elif key == "count":
                    options["count"] = int(value)
                elif key == "probability":
                    options["probability"] = float(value)
                elif key == "seconds":
                    options["seconds"] = float(value)
                else:
                    raise ValueError(
                        f"unknown option {key!r} in clause {raw_clause!r}; "
                        "expected worker=, count=, probability=, or seconds="
                    )
            if head == "slow-start" and "count" not in options:
                options["count"] = 1
            clauses.append(FaultClause(kind=head, **options))
        if not clauses:
            raise ValueError(f"fault spec {text!r} contains no fault clauses")
        return cls(clauses=tuple(clauses), seed=seed)

    @classmethod
    def from_spec(cls, value: "str | FaultSpec | None") -> "FaultSpec | None":
        """Normalise the loader-facing argument (string, spec, or None)."""
        if value is None:
            return None
        if isinstance(value, FaultSpec):
            return value
        return cls.parse(value)


def fault_spec_from_env(environ: Any | None = None) -> FaultSpec | None:
    """The ``REPRO_FAULTS`` hook: a spec every routed load picks up.

    Lets the chaos smoke (and an operator reproducing an incident) inject
    faults into an unmodified serving process purely from the environment.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_FAULTS", "").strip()
    return FaultSpec.parse(raw) if raw else None


class FaultyTransport(ShardTransport):
    """Any transport, wrapped so a :class:`FaultSpec` can break it.

    Wraps the high-level operations (``probe``/``contains``) rather than
    the frame plumbing because :class:`InprocTransport` has no frame
    plumbing to wrap; ``describe`` is left fault-free so topology
    discovery during load keeps working.  Injected failures are folded
    into ``counters()``/``health()`` so the router's observability shows
    them exactly like organic ones.
    """

    def __init__(self, inner: ShardTransport, spec: FaultSpec) -> None:
        super().__init__(inner.assignments)
        self._inner = inner
        self._spec = spec
        self._rng = random.Random(spec.seed)
        self._fault_lock = threading.Lock()
        self._remaining: list[int | None] = [
            clause.count for clause in spec.clauses
        ]
        self._injected = [0] * self.num_workers
        self.kind = f"faulty+{inner.kind}"

    @property
    def inner(self) -> ShardTransport:
        return self._inner

    # -- fault engine --------------------------------------------------- #

    def _next_fault(self, worker: int) -> FaultClause | None:
        """Claim the first matching clause for this request, if any."""
        with self._fault_lock:
            for index, clause in enumerate(self._spec.clauses):
                if clause.worker is not None and clause.worker != worker:
                    continue
                remaining = self._remaining[index]
                if remaining == 0:
                    continue
                if clause.probability < 1.0 and self._rng.random() >= clause.probability:
                    continue
                if remaining is not None:
                    self._remaining[index] = remaining - 1
                self._injected[worker] += 1
                return clause
        return None

    def _inject(self, worker: int, clause: FaultClause) -> None:
        """Apply one claimed clause; raising means the request fails."""
        kind = clause.kind
        if kind in ("delay", "slow-start"):
            time.sleep(clause.sleep_seconds)
            return
        if kind == "hang":
            time.sleep(clause.sleep_seconds)
            raise ShardUnavailableError(
                f"injected hang: worker {worker} gave no response within "
                f"{clause.sleep_seconds:g}s"
            )
        if kind == "drop":
            raise ShardUnavailableError(
                f"injected connection drop to worker {worker}"
            )
        if kind == "corrupt":
            # Build a real frame, flip a payload byte, and decode: the
            # checksum failure path raises the same ProtocolError a
            # faulty network would produce.
            frame = bytearray(
                protocol.encode_probe_response(
                    np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
                )
            )
            frame[-1] ^= 0xFF
            protocol.decode_message(bytes(frame))
            raise AssertionError("corrupt frame unexpectedly decoded")
        if kind == "crash":
            pid_of = getattr(self._inner, "pid_of", None)
            if callable(pid_of):
                pid = pid_of(worker)
                if pid is not None:
                    try:
                        os.kill(int(pid), signal.SIGKILL)
                    except (OSError, ProcessLookupError):  # pragma: no cover
                        pass
            raise ShardUnavailableError(f"injected crash of worker {worker}")
        raise AssertionError(f"unhandled fault kind {kind!r}")  # pragma: no cover

    def _before(self, worker: int) -> None:
        clause = self._next_fault(worker)
        if clause is None:
            return
        try:
            self._inject(worker, clause)
        except Exception:
            self._record_failure(worker, recovered=False)
            raise

    # -- transport interface -------------------------------------------- #

    def probe(
        self,
        worker: int,
        repetitions: int | np.ndarray,
        keys: np.ndarray,
        probe_items: np.ndarray,
        probe_offsets: np.ndarray,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._before(worker)
        return self._inner.probe(
            worker, repetitions, keys, probe_items, probe_offsets, deadline=deadline
        )

    def contains(self, worker: int, repetition: int, key: int, items: np.ndarray) -> bool:
        self._before(worker)
        return self._inner.contains(worker, repetition, key, items)

    def describe(self, worker: int) -> dict[str, Any]:
        return self._inner.describe(worker)

    def pid_of(self, worker: int) -> int | None:
        pid_of = getattr(self._inner, "pid_of", None)
        return pid_of(worker) if callable(pid_of) else None

    def counters(self) -> tuple[list[int], list[int]]:
        failures, recoveries = self._inner.counters()
        with self._counter_lock:
            injected = list(self._failures)
        return (
            [organic + extra for organic, extra in zip(failures, injected)],
            recoveries,
        )

    def injected_counts(self) -> list[int]:
        """Per-worker number of faults this wrapper has injected."""
        with self._fault_lock:
            return list(self._injected)

    def _alive(self, worker: int) -> bool:
        return bool(self._inner.health()[worker]["alive"])

    def health(self) -> list[dict[str, Any]]:
        entries = self._inner.health()
        failures, recoveries = self.counters()
        injected = self.injected_counts()
        for worker, entry in enumerate(entries):
            entry["failures"] = failures[worker]
            entry["recoveries"] = recoveries[worker]
            entry["injected_faults"] = injected[worker]
        return entries

    def close(self) -> None:
        self._inner.close()
