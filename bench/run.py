"""liaisonkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs come from ``--seed`` alone.
Each pass runs in a fresh interpreter (``worker.py``) and passes repeat
until ``--seconds`` have been measured.  Every operation's result is
checked against the frozen oracle under ``bench/oracle/``.  See
``bench/README.md`` for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics, and checks
itself: traced outputs must equal untraced ones, every rebinding of the
wrapped functions must have been patched, and the counts the README
predicts as nonzero (or as zero) must be so.

The last stdout line is the result object; the line before it records
the environment and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
SETUP_ONLY_SPAWNS = 10
IMPORTTIME_SPAWNS = 3
# Every reported time is scaled by REF_NOMINAL_S / (median time of the
# worker's reference loop in the same process).  The constant is that
# loop's typical median on a 2-vCPU 2.1 GHz Xeon VM under Python 3.11.
REF_NOMINAL_S = 1.25e-3

EXPERIMENT_IDS = (
    "prop2.1", "prop2.2", "prop2.3", "cor2.4", "prop3.1", "ex3.2", "ex3.4", "ex3.6",
    "prop4.1", "ex4.2", "ex4.3", "ex4.4", "ex4.5", "prop4.7", "ex4.8", "ex4.10",
)
MODULES = (
    "liaisonkit", "liaisonkit.errors", "liaisonkit.lattice", "liaisonkit.surfaces",
    "liaisonkit.curves", "liaisonkit.liaison", "liaisonkit.hvectors",
    "liaisonkit.glicci", "liaisonkit.experiments", "liaisonkit.cli",
)

# Modules that import each wrapped function by name; the tracer must have
# patched the binding in each of them.
REBINDINGS = {
    "liaisonkit.lattice.intersect": ("surfaces", "liaison", "curves", "experiments"),
    "liaisonkit.surfaces.is_effective_candidate": ("liaison", "experiments"),
    "liaisonkit.liaison.elementary_biliaison": ("experiments",),
    "liaisonkit.hvectors.link_h_vector": ("glicci",),
}

# Traced counts after setup that must be nonzero / zero on each workload.
PREDICTIONS = {
    "reproduce": {
        "nonzero": (
            "lattice.intersect.calls", "lattice.DivisorClass.builds",
            "surfaces.enumerate_classes.calls", "surfaces.is_effective_candidate.calls",
            "surfaces.get_surface.calls", "curves.CurveRecord.on_surface.calls",
            "liaison.ascending_chain_search.calls", "liaison.elementary_biliaison.calls",
            "hvectors.link_h_vector.calls", "hvectors.macaulay_bound.calls",
            "glicci.glicci_chain.calls", "glicci.ag_candidates_containing.calls",
        ) + tuple(f"experiments.run_experiment.{e}.s" for e in EXPERIMENT_IDS),
        "zero": (),
    },
    "class_census": {
        "nonzero": (
            "lattice.intersect.calls", "lattice.DivisorClass.builds",
            "surfaces.enumerate_classes.calls", "surfaces.get_surface.calls",
        ),
        "zero": (
            "hvectors.link_h_vector.calls", "hvectors.macaulay_bound.calls",
            "liaison.ascending_chain_search.calls", "glicci.glicci_chain.calls",
            "curves.CurveRecord.on_surface.calls",
        ),
    },
    "chain_search": {
        "nonzero": (
            "lattice.intersect.calls", "lattice.DivisorClass.builds",
            "surfaces.is_effective_candidate.calls", "surfaces.get_surface.calls",
            "curves.CurveRecord.on_surface.calls", "liaison.ascending_chain_search.calls",
            "liaison.elementary_biliaison.calls",
        ),
        "zero": (
            "surfaces.enumerate_classes.calls", "hvectors.link_h_vector.calls",
            "hvectors.macaulay_bound.calls", "glicci.glicci_chain.calls",
        ),
    },
    "glicci_sweep": {
        "nonzero": (
            "glicci.glicci_chain.calls", "glicci.ag_candidates_containing.calls",
            "hvectors.link_h_vector.calls", "hvectors.is_gorenstein_h_vector.calls",
            "hvectors.generic_points_h_vector.calls", "hvectors.macaulay_bound.calls",
        ),
        "zero": (
            "lattice.intersect.calls", "lattice.DivisorClass.builds",
            "surfaces.enumerate_classes.calls", "surfaces.is_effective_candidate.calls",
            "surfaces.get_surface.calls", "liaison.ascending_chain_search.calls",
        ),
    },
}


class BenchError(Exception):
    """A pass could not be run or the program's output must not be timed."""


def spawn(args: list[str], stdin: str = "") -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S}s: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return started, proc


def run_pass(workload: str, inputs: list, trace: bool) -> dict:
    args = [WORKER, workload] + (["--trace"] if trace else [])
    started, proc = spawn(args, json.dumps(inputs))
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["setup_end"] - started
    out["scale"] = REF_NOMINAL_S / out["ref_s"]
    return out


def setup_only() -> tuple[float, float]:
    """(raw setup seconds, scale) of one setup-only start."""
    started, proc = spawn([WORKER, "--setup-only"])
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_end"] - started, REF_NOMINAL_S / out["ref_s"]


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def import_self_us() -> dict[str, float]:
    """Median scaled self import time of every liaisonkit module
    (``-X importtime``)."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        _, proc = spawn(["-X", "importtime", WORKER, "--setup-only"])
        scale = REF_NOMINAL_S / json.loads(proc.stdout.splitlines()[-1])["ref_s"]
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * scale)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def check(workload: str, oracle, inputs: list, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for inp, got in zip(inputs, p["summaries"], strict=True):
            attempted += 1
            want = workloads.expected(workload, oracle, inp)
            if workload == "reproduce":
                if got["exit"] != 0 or not got["all_match"]:
                    raise BenchError("experiment run all is not ALL MATCH; no numbers recorded")
                ok = got["text"] == want
            else:
                ok = want is not None and got == want
            if not ok:
                failed += 1
                problems.append(f"{workload} {inp}: got {str(got)[:200]}, frozen {str(want)[:200]}")
    return attempted, failed, problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    """Scaled times (see REF_NOMINAL_S).  Each operation's latency is its
    median over the passes; the percentiles are taken over operations."""
    scaled = [[x * p["scale"] for x in p["latencies_s"]] for p in passes]
    latencies = [statistics.median(op) for op in zip(*scaled)]
    walls = [p["wall_s"] * p["scale"] for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(len(p["latencies_s"]) / w for p, w in zip(passes, walls)), "1/s"),
        "op_p50_ms": (quantile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (quantile(latencies, 90) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload: str, plain: list[dict], traced: list[dict], imports: dict) -> dict:
    def med(get, scaled=False):
        return statistics.median(get(p["trace"]) * (p["scale"] if scaled else 1) for p in traced)

    def calls(name):
        return med(lambda t: t["calls"].get(name, 0))

    def tally(name):
        return med(lambda t: t["tallies"].get(name, 0))

    def self_s(name):
        return med(lambda t: t["self_s"].get(name, 0.0), scaled=True)

    searches = calls("liaison.ascending_chain_search")
    links = calls("hvectors.link_h_vector")
    chains = calls("glicci.glicci_chain")
    screens = calls("surfaces.is_effective_candidate")
    classes_per_s = 0.0
    if workload == "class_census":
        classes_per_s = statistics.median(
            sum(s[0] for s in p["summaries"]) / (sum(p["latencies_s"]) * p["scale"]) for p in plain
        )
    m = {
        "lattice.intersect.calls": (calls("lattice.intersect"), "count"),
        "lattice.DivisorClass.builds": (calls("lattice.DivisorClass.build"), "count"),
        "lattice.intersect.ns_per_call": (med(lambda t: t["intersect_ns"], scaled=True), "ns"),
        "lattice.DivisorClass.ns_per_build": (med(lambda t: t["build_ns"], scaled=True), "ns"),
        "surfaces.enumerate_classes.calls": (calls("surfaces.enumerate_classes"), "count"),
        "surfaces.enumerate_classes.self_s": (self_s("surfaces.enumerate_classes"), "s"),
        "surfaces.enumerate_classes.classes_out": (
            tally("surfaces.enumerate_classes.classes_out"), "count"),
        "classes_per_s": (classes_per_s, "1/s"),
        "surfaces.is_effective_candidate.calls": (screens, "count"),
        "surfaces.is_effective_candidate.pass_ratio": (
            _ratio(tally("surfaces.is_effective_candidate.passed"), screens), "ratio"),
        "surfaces.lines_on.cache_misses": (
            med(lambda t: t["cache_misses"]["surfaces.lines_on"]), "count"),
        "surfaces.get_surface.calls": (calls("surfaces.get_surface"), "count"),
        "curves.CurveRecord.on_surface.calls": (calls("curves.CurveRecord.on_surface"), "count"),
        "curves.CurveRecord.on_surface.self_s": (self_s("curves.CurveRecord.on_surface"), "s"),
        "liaison.ascending_chain_search.calls": (searches, "count"),
        "liaison.ascending_chain_search.self_s": (self_s("liaison.ascending_chain_search"), "s"),
        "liaison.ascending_chain_search.found_ratio": (
            _ratio(tally("liaison.ascending_chain_search.found"), searches), "ratio"),
        "liaison.ascending_chain_search.explored_on_failure": (
            tally("liaison.ascending_chain_search.explored_on_failure"), "count"),
        "liaison.elementary_biliaison.calls": (calls("liaison.elementary_biliaison"), "count"),
        "liaison.g_link_on_surface.calls": (calls("liaison.g_link_on_surface"), "count"),
        "hvectors.link_h_vector.calls": (links, "count"),
        "hvectors.link_h_vector.self_s": (self_s("hvectors.link_h_vector"), "s"),
        "hvectors.link_h_vector.ok_ratio": (_ratio(tally("hvectors.link_h_vector.ok"), links), "ratio"),
        "hvectors.is_gorenstein_h_vector.calls": (calls("hvectors.is_gorenstein_h_vector"), "count"),
        "hvectors.generic_points_h_vector.calls": (
            calls("hvectors.generic_points_h_vector"), "count"),
        "hvectors.macaulay_bound.calls": (calls("hvectors.macaulay_bound"), "count"),
        "hvectors.acm_h_vector_candidates.self_s": (self_s("hvectors.acm_h_vector_candidates"), "s"),
        "glicci.glicci_chain.calls": (chains, "count"),
        "glicci.glicci_chain.self_s": (self_s("glicci.glicci_chain"), "s"),
        "glicci.glicci_chain.found_ratio": (_ratio(tally("glicci.glicci_chain.found"), chains), "ratio"),
        "glicci.ag_candidates_containing.calls": (calls("glicci.ag_candidates_containing"), "count"),
        "glicci.ag_candidates_containing.candidates_out": (
            tally("glicci.ag_candidates_containing.candidates_out"), "count"),
        "glicci.gorenstein_table.cache_misses": (
            med(lambda t: t["cache_misses"]["glicci.gorenstein_table"]), "count"),
    }
    for eid in EXPERIMENT_IDS:
        m[f"experiments.run_experiment.{eid}.s"] = (
            med(lambda t: t["total_s"].get(f"experiments.run_experiment.{eid}", 0.0), scaled=True), "s")
    m["experiments.acm_candidate_pairs.self_s"] = (self_s("experiments.acm_candidate_pairs"), "s")
    for module in MODULES:
        m[f"setup.import.{module}.us"] = (imports[module], "us")
    m["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] * p["scale"] for p in traced)
        / statistics.median(p["wall_s"] * p["scale"] for p in plain),
        "ratio",
    )
    return m


def self_check(workload: str, plain: list[dict], traced: list[dict], metrics: dict) -> list[str]:
    problems = []
    if any(p["summaries"] != plain[0]["summaries"] for p in plain + traced):
        problems.append("traced outputs differ from untraced outputs")
    for p in traced:
        bindings = p["trace"]["bindings"]
        for target, users in REBINDINGS.items():
            missing = [u for u in users if f"liaisonkit.{u}" not in bindings.get(target, ())]
            if missing:
                problems.append(f"{target} not patched in {missing}")
    rule = PREDICTIONS[workload]
    problems += [f"{n} predicted nonzero, got 0" for n in rule["nonzero"] if not metrics[n][0]]
    problems += [f"{n} predicted 0, got {metrics[n][0]}" for n in rule["zero"] if metrics[n][0]]
    return problems


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "liaisonkit")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liaisonkit", "cli.py")):
        print(f"error: no liaisonkit sources under {SRC}", file=sys.stderr)
        return 2
    oracle = workloads.load_oracle(args.workload)
    inputs = workloads.make_inputs(args.workload, args.seed, oracle)

    try:
        setup_only()  # first start in a checkout writes the bytecode caches
        plain, traced = [], []
        began = time.perf_counter()
        while True:
            plain.append(run_pass(args.workload, inputs, trace=False))
            if args.trace:
                traced.append(run_pass(args.workload, inputs, trace=True))
            if time.perf_counter() - began >= args.seconds:
                break
        attempted, failed, problems = check(args.workload, oracle, inputs, plain + traced)
        raw = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "ref_s": statistics.median(p["ref_s"] for p in plain),
        }
        if args.trace:
            metrics = per_layer(args.workload, plain, traced, import_self_us())
            problems += self_check(args.workload, plain, traced, metrics)
            setups = []
        else:
            starts = [(p["setup_s"], p["scale"]) for p in plain]
            starts += [setup_only() for _ in range(SETUP_ONLY_SPAWNS)]
            setups = [t * scale for t, scale in starts]
            metrics = end_to_end(plain, setups, attempted, failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "ref_nominal_s": REF_NOMINAL_S,
        "unscaled_medians": raw,
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "ops_per_pass": len(inputs),
            "op_latencies": len(plain) * len(inputs),
            "percentile_ops": len(inputs),
            "setup_starts": len(setups),
        },
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
