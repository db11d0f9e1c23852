"""Counters and spans for the benchmark's traced run.

The tracer wraps public functions of the ``liaisonkit`` modules from
outside the package.  The program imports most of these functions by
name (``from .lattice import intersect``), so wrapping only the defining
module would miss calls: :func:`install` replaces every module-level
binding of the original function object in every loaded ``liaisonkit``
module and records where it did so.

Spans are kept in memory as ``[name, op, start, end, parent]`` rows; a
layer's self time is its span duration minus the time covered by its
child spans.  Counted-only targets (``intersect``, ``DivisorClass``
builds, ...) add a counter increment per call and no span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SAMPLE_LIMIT = 512


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.calls = Counter()
        self.tallies = Counter()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}
        self.sample: list = []
        self._restore: list = []

    # -- wrappers -------------------------------------------------------

    def counted(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def spanned(self, name, fn, on_result=None):
        """``name`` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            tracer.calls[label] += 1
            stack = tracer._stack
            row = [label, tracer.op, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(row)
            row[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install_function(self, module_name: str, attr: str, wrap) -> None:
        """Replace every binding of ``module_name.attr`` in the loaded
        ``liaisonkit`` modules with ``wrap(original)``."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrap(original)
        bound = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "liaisonkit" or name.startswith("liaisonkit.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._restore.append((module, key, original))
                    bound.append(name)
        self.bindings[f"{module_name}.{attr}"] = bound

    def install_attribute(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_seconds(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_seconds(self) -> Counter:
        out = Counter()
        for name, _, start, end, _ in self.spans:
            out[name] += end - start
        return out


def _count_passed(key):
    def hook(tracer, result):
        if result:
            tracer.tallies[key] += 1

    return hook


def _count_len(key):
    def hook(tracer, result):
        tracer.tallies[key] += len(result)

    return hook


def _search_result(tracer, result):
    if getattr(result, "found", True):
        tracer.tallies["liaison.ascending_chain_search.found"] += 1
    else:
        tracer.tallies["liaison.ascending_chain_search.explored_on_failure"] += result.explored


def _glicci_result(tracer, result):
    if getattr(result, "found", True):
        tracer.tallies["glicci.glicci_chain.found"] += 1


def _link_ok(tracer, result):
    tracer.tallies["hvectors.link_h_vector.ok"] += 1


def install(tracer: Tracer) -> dict:
    """Wrap the traced functions of an already imported ``liaisonkit``.

    Returns the process-global ``lru_cache`` functions by metric prefix;
    their ``cache_info()`` is read before and after the workload, and the
    caches are never cleared.
    """
    from liaisonkit import curves, glicci, lattice, surfaces

    lines_on_cache = surfaces.lines_on
    t = tracer
    fn = t.install_function
    fn("liaisonkit.lattice", "intersect", lambda f: t.counted("lattice.intersect", f))
    fn(
        "liaisonkit.surfaces",
        "enumerate_classes",
        lambda f: t.spanned(
            "surfaces.enumerate_classes", f, _count_len("surfaces.enumerate_classes.classes_out")
        ),
    )
    fn(
        "liaisonkit.surfaces",
        "is_effective_candidate",
        lambda f: t.counted(
            "surfaces.is_effective_candidate",
            f,
            _count_passed("surfaces.is_effective_candidate.passed"),
        ),
    )
    fn("liaisonkit.surfaces", "lines_on", lambda f: t.counted("surfaces.lines_on", f))
    fn("liaisonkit.surfaces", "get_surface", lambda f: t.counted("surfaces.get_surface", f))
    fn(
        "liaisonkit.liaison",
        "ascending_chain_search",
        lambda f: t.spanned("liaison.ascending_chain_search", f, _search_result),
    )
    fn(
        "liaisonkit.liaison",
        "elementary_biliaison",
        lambda f: t.counted("liaison.elementary_biliaison", f),
    )
    fn("liaisonkit.liaison", "g_link_on_surface", lambda f: t.counted("liaison.g_link_on_surface", f))
    fn(
        "liaisonkit.hvectors",
        "link_h_vector",
        lambda f: t.spanned("hvectors.link_h_vector", f, _link_ok),
    )
    for name in ("is_gorenstein_h_vector", "generic_points_h_vector", "macaulay_bound"):
        fn("liaisonkit.hvectors", name, lambda f, name=name: t.counted(f"hvectors.{name}", f))
    fn(
        "liaisonkit.hvectors",
        "acm_h_vector_candidates",
        lambda f: t.spanned("hvectors.acm_h_vector_candidates", f),
    )
    fn("liaisonkit.glicci", "glicci_chain", lambda f: t.spanned("glicci.glicci_chain", f, _glicci_result))
    fn(
        "liaisonkit.glicci",
        "ag_candidates_containing",
        lambda f: t.spanned(
            "glicci.ag_candidates_containing",
            f,
            _count_len("glicci.ag_candidates_containing.candidates_out"),
        ),
    )
    fn(
        "liaisonkit.experiments",
        "run_experiment",
        lambda f: t.spanned(lambda eid, *a, **k: f"experiments.run_experiment.{eid}", f),
    )
    fn(
        "liaisonkit.experiments",
        "acm_candidate_pairs",
        lambda f: t.spanned("experiments.acm_candidate_pairs", f),
    )

    post_init = lattice.DivisorClass.__post_init__

    def counting_post_init(self):
        post_init(self)
        if t.enabled:
            t.calls["lattice.DivisorClass.build"] += 1
            if len(t.sample) < SAMPLE_LIMIT:
                t.sample.append(self)

    t.install_attribute(lattice.DivisorClass, "__post_init__", counting_post_init)
    on_surface = curves.CurveRecord.__dict__["on_surface"].__func__
    t.install_attribute(
        curves.CurveRecord,
        "on_surface",
        classmethod(t.spanned("curves.CurveRecord.on_surface", on_surface)),
    )
    return {
        "surfaces.lines_on": lines_on_cache,
        "glicci.gorenstein_table": glicci._gorenstein_h_vectors,
    }
