"""The benchmark's trace contract on the current sources.

``bench/run.py --trace 1`` wraps package functions with ``bench/tracer.py``
and checks, after its passes, that every by-name import listed in
``run.REBINDINGS`` was patched.  This test installs the same tracer on the
already imported package and checks that contract, and that every cache
``install`` returns has ``cache_info()``, without starting a benchmark
pass."""

import importlib.util
import sys
from pathlib import Path

import pytest

import liaisonkit.cli  # noqa: F401  the benchmark worker imports the CLI before tracing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    """``bench/tracer.py`` and ``bench/run.py``, loaded by file path; the
    ``sys.path`` entry and ``workloads`` module that ``run.py`` adds at
    import are dropped afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    had_workloads = "workloads" in sys.modules
    try:
        yield _load("tracer"), _load("run")
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)


def test_tracer_patches_every_rebinding_and_returns_caches(bench):
    tracer_module, run = bench
    tracer = tracer_module.Tracer()
    try:
        caches = tracer_module.install(tracer)
        for target, users in run.REBINDINGS.items():
            patched = tracer.bindings.get(target, [])
            missing = [u for u in users if f"liaisonkit.{u}" not in patched]
            assert not missing, f"{target} not patched in {missing}"
        assert caches
        for name, cache in caches.items():
            assert callable(getattr(cache, "cache_info", None)), name
    finally:
        tracer.uninstall()
