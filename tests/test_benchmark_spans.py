"""The traced benchmark pass wraps program entry points *by name*.

``benchmarks/perf/spans.py`` monkeypatches ``owner.__dict__[attribute]`` for
every ``_TARGETS`` row and the ``get_impl`` each ``_KERNEL_CONSUMERS`` module
imported.  A renamed or moved entry point otherwise only shows up in CI's
bench-smoke job (``--trace`` reports dead wrappers and ``correct: false``);
resolving the same names here makes it fail in the tier-1 run.  The file is
loaded read-only and nothing is installed.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core import kernels
from repro.core.kernels import KernelImplementation, _numpy_impl

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "spans.py"


def _load_spans():
    if not SPANS_PATH.is_file():
        pytest.skip("benchmarks/perf is not part of this checkout")
    spec = importlib.util.spec_from_file_location("_perf_spans_readonly", SPANS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_on_its_owner():
    spans = _load_spans()
    assert spans._TARGETS
    for module_name, path, span_name in spans._TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        # ``Tracer._patch`` reads ``owner.__dict__``: an inherited or
        # re-exported name resolves with getattr but cannot be wrapped.
        assert attribute in vars(owner), f"{span_name}: {module_name}.{path} is gone"
        assert callable(getattr(owner, attribute)), f"{span_name}: not callable"


def test_every_kernel_consumer_imports_get_impl_by_name():
    spans = _load_spans()
    for module_name in spans._KERNEL_CONSUMERS:
        module = importlib.import_module(module_name)
        assert callable(vars(module).get("get_impl")), f"{module_name} lost its get_impl"
    fields = {field.name for field in dataclasses.fields(KernelImplementation)}
    assert set(spans._KERNEL_ENTRY_POINTS) <= fields


def test_benchmark_view_of_the_kernels(monkeypatch):
    """The fingerprint's ``kernels`` name, and the bundle ``spans.py`` wraps.

    ``compare.py`` refuses to compare runs whose ``kernels`` differ, and the
    traced pass replaces ``get_impl`` and the bundle's entry points, so the
    name, the lookup and the entry points all stay put.
    """
    assert kernels.active_backend() == "python"
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    unset = kernels.get_impl()
    monkeypatch.setenv("REPRO_KERNELS", "numba")
    assert kernels.get_impl() is unset
    entry_points = [field.name for field in dataclasses.fields(unset) if field.name != "name"]
    assert len(entry_points) == 5
    for entry in entry_points:
        assert getattr(unset, entry) is getattr(_numpy_impl, entry)
