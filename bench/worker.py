"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` as ``python3 bench/worker.py WORKLOAD [--trace]``
with a JSON list of operation inputs on stdin (``--setup-only`` skips
the workload).  The interpreter starts cold, so the process-global
``lru_cache``s of ``liaisonkit`` are as empty as a CLI user gets them.

The pass is a closed loop: one thread runs one operation at a time, the
next starting when the previous returns.  Each operation is timed with
``time.perf_counter`` alone.  After each operation its result is reduced
to a small summary that ``run.py`` compares with the frozen oracle, and
the reference loop is timed once; both are excluded from every timing and
from the trace.

The last stdout line is one JSON object with the pass's measurements.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

REF_BLOCK = 20
_RUNTIME_LINE = re.compile(r'^\s*"runtime_seconds": [^\n]*\n', re.MULTILINE)
GLICCI_MODES = {
    "p2": {"ambient": "P2"},
    "p3": {"ambient": "P3"},
    "p3_desc": {"ambient": "P3", "mode": "descending_only"},
    "cubic": {"ambient": "P3", "surface_degree": 3},
}


def reference_s() -> float:
    """Time of a fixed loop that touches no ``liaisonkit`` code.  The
    machine's speed drifts by tens of percent over seconds to minutes;
    ``run.py`` scales each pass's times by this loop's median time in the
    same pass, so the drift cancels and the program's own changes do not."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


def reference_block() -> list[float]:
    return [reference_s() for _ in range(REF_BLOCK)]


def setup():
    """What a CLI user pays before the first command runs."""
    import liaisonkit.cli as cli

    cli.build_parser()
    return cli


def strip_runtime(text: str) -> str:
    return _RUNTIME_LINE.sub("", text)


def all_match(text: str) -> bool:
    """True iff every report in the ``--format json`` stream is ALL MATCH."""
    decoder = json.JSONDecoder()
    pos, reports = 0, 0
    text = text.strip()
    while pos < len(text):
        report, pos = decoder.raw_decode(text, pos)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        reports += 1
        if any(v is False for v in report["matches"].values()):
            return False
    return reports > 0


# -- operations: inputs are JSON values, results are whatever the program returns


def op_reproduce(cli, _inp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["experiment", "run", "all", "--format", "json"])
    return code, buf.getvalue()


def op_class_census(cli, inp):
    from liaisonkit.surfaces import enumerate_classes, get_surface

    sid, deg, kind, value = inp
    surface = get_surface(sid)
    if kind == "genus":
        return enumerate_classes(surface, deg, genus=value, min_self=-1)
    return enumerate_classes(surface, deg, min_self=value)


def op_chain_search(cli, inp):
    from liaisonkit.liaison import ascending_chain_search

    (d, g), ascending_only = inp
    return ascending_chain_search((d, g), ascending_only=ascending_only)


def op_glicci_sweep(cli, inp):
    from liaisonkit.glicci import glicci_chain

    mode, n = inp
    return glicci_chain(n, **GLICCI_MODES[mode])


# -- summaries: small JSON values compared with the oracle


def summary_reproduce(result):
    code, text = result
    return {"exit": code, "all_match": all_match(text), "text": strip_runtime(text)}


def summary_class_census(result):
    coeffs = sorted(c.coeffs for c in result)
    digest = hashlib.sha256("\n".join(",".join(map(str, c)) for c in coeffs).encode())
    return [len(coeffs), digest.hexdigest()]


def summary_chain_search(result):
    if not getattr(result, "found", True):
        return [False, None, None]
    return [True, result.liaison_steps, list(result.end.dg) if result.end else None]


def summary_glicci_sweep(result):
    from liaisonkit.errors import LiaisonkitError

    if not getattr(result, "found", True):
        return "fail"
    try:
        result.validate()
    except LiaisonkitError as exc:
        return f"invalid: {exc}"
    return result.length


OPS = {
    "reproduce": (op_reproduce, summary_reproduce),
    "class_census": (op_class_census, summary_class_census),
    "chain_search": (op_chain_search, summary_chain_search),
    "glicci_sweep": (op_glicci_sweep, summary_glicci_sweep),
}


def time_layer_loops(sample) -> dict:
    """ns per ``intersect`` call and per ``DivisorClass`` build, timed on
    classes the workload built (catalog line classes when it built none)."""
    from liaisonkit.lattice import DivisorClass, intersect
    from liaisonkit.surfaces import get_surface, lines_on, surface_ids

    if not sample:
        for sid in surface_ids():
            s = get_surface(sid)
            if s.ambient == "P4":
                sample.extend(lines_on(s).classes + (s.H, s.K))
    groups: dict = {}
    for c in sample:
        groups.setdefault((c.basis, len(c.coeffs)), []).append(c)
    pairs = [(g[i], g[(i + 1) % len(g)]) for g in groups.values() for i in range(len(g))]
    reps = max(1, 100_000 // len(pairs))
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, b in pairs:
            intersect(a, b)
    intersect_ns = (time.perf_counter() - t0) * 1e9 / (reps * len(pairs))
    raw = [(c.basis, c.coeffs) for c in sample]
    reps = max(1, 20_000 // len(raw))
    t0 = time.perf_counter()
    for _ in range(reps):
        for basis, coeffs in raw:
            DivisorClass(basis, coeffs)
    build_ns = (time.perf_counter() - t0) * 1e9 / (reps * len(raw))
    return {"intersect_ns": intersect_ns, "build_ns": build_ns}


def run_pass(workload: str, inputs: list, trace: bool) -> dict:
    cli = setup()
    setup_end = time.perf_counter()
    op, summarize = OPS[workload]
    tracer = caches = None
    baseline = {}
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        caches = install(tracer)
        baseline = {k: f.cache_info().misses for k, f in caches.items()}
    latencies, summaries = [], []
    refs = reference_block()
    excluded = time.perf_counter() - setup_end
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        t0 = time.perf_counter()
        result = op(cli, inp)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        latencies.append(t1 - t0)
        summaries.append(summarize(result))
        del result
        refs.append(reference_s())
        excluded += time.perf_counter() - t1
    wall = time.perf_counter() - setup_end - excluded
    refs += reference_block()
    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "latencies_s": latencies,
        "summaries": summaries,
        "ref_s": statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        sample = list(tracer.sample)
        tracer.uninstall()
        out["trace"] = {
            "calls": dict(tracer.calls),
            "tallies": dict(tracer.tallies),
            "self_s": dict(tracer.self_seconds()),
            "total_s": dict(tracer.total_seconds()),
            "cache_misses": {
                k: f.cache_info().misses - baseline[k] for k, f in caches.items()
            },
            "bindings": tracer.bindings,
            **time_layer_loops(sample),
        }
    return out


def main(argv) -> int:
    if argv[1:] == ["--setup-only"]:
        setup()
        setup_end = time.perf_counter()
        ref = statistics.median(reference_block())
        print(json.dumps({"setup_end": setup_end, "ref_s": ref}))
        return 0
    workload, trace = argv[1], argv[2:] == ["--trace"]
    inputs = json.load(sys.stdin)
    print(json.dumps(run_pass(workload, inputs, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
