"""Regenerate the frozen oracle files under ``bench/oracle/``.

Run from the repository root at the commit whose outputs are the
reference: ``python3 bench/freeze.py [workload ...]``.  It runs every
input each generator can emit once, in this process, and stores the
summary that ``worker.py`` computes for it.  For ``class_census`` it also
times every candidate grid cell (best of three) and cuts the cells, in
cost order, into strata whose costs differ by at most STRATUM_RATIO, and
does the same for the ``glicci_sweep`` domain; a pass draws
``workloads.STRATUM_DRAWS`` inputs from each stratum.  The timings only
fix the strata.
"""

from __future__ import annotations

import json
import os
import sys
import time

import worker
import workloads

CENSUS_GRID = {"del_pezzo_4": range(2, 13), "castelnuovo_5": range(2, 9), "bordiga_6": range(2, 8)}
CENSUS_FLOORS = (0, -1, -2)
# The anchor runs first in every pass and returns more classes than any
# other cell, so it sets the pass's peak memory.
CENSUS_ANCHOR = ["castelnuovo_5", 8, "min_self", 0]
CENSUS_MIN_MS, CENSUS_MAX_MS = 1.0, 150.0
STRATUM_RATIO = 1.1
GLICCI_MIN_MS = 0.5


def _strata(ranked: list) -> list:
    """Cut ``(cost, input)`` pairs sorted by cost into consecutive strata
    whose costs stay within a factor STRATUM_RATIO of the stratum's first."""
    out = []
    for cost, inp in ranked:
        if out and cost <= out[-1][0][0] * STRATUM_RATIO:
            out[-1].append((cost, inp))
        else:
            out.append([(cost, inp)])
    return [[inp for _, inp in stratum] for stratum in out]


def _run(workload, inp, cli=None):
    op, summarize = worker.OPS[workload]
    t0 = time.perf_counter()
    result = op(cli, inp)
    elapsed = time.perf_counter() - t0
    return summarize(result), elapsed


def freeze_reproduce(cli):
    summary, _ = _run("reproduce", None, cli)
    if summary["exit"] != 0 or not summary["all_match"]:
        raise SystemExit("experiment run all is not ALL MATCH; refusing to freeze")
    return summary["text"]


def freeze_class_census(cli):
    from liaisonkit.lattice import arithmetic_genus
    from liaisonkit.surfaces import enumerate_classes, get_surface

    cells = []
    for sid, degrees in CENSUS_GRID.items():
        surface = get_surface(sid)
        for d in degrees:
            cells += [[sid, d, "min_self", m] for m in CENSUS_FLOORS]
            genera = {arithmetic_genus(c, surface) for c in enumerate_classes(surface, d, min_self=-1)}
            cells += [[sid, d, "genus", g] for g in sorted(genera)]
    table, cost = {}, {}
    for cell in cells:
        runs = [_run("class_census", cell) for _ in range(3)]
        table[workloads.key(cell)] = runs[0][0]
        cost[workloads.key(cell)] = min(t for _, t in runs) * 1e3
    anchor = workloads.key(CENSUS_ANCHOR)
    ranked = sorted(
        (cost[k], json.loads(k))
        for k in cost
        if k != anchor
        and CENSUS_MIN_MS <= cost[k] <= CENSUS_MAX_MS
        and table[k][0] < table[anchor][0]
    )
    strata = [[CENSUS_ANCHOR]] + _strata(ranked)
    used = {workloads.key(c) for s in strata for c in s}
    return {
        "strata": strata,
        "table": {k: v for k, v in sorted(table.items()) if k in used},
        "cost_ms": {k: round(v, 3) for k, v in sorted(cost.items()) if k in used},
    }


def freeze_chain_search(cli):
    from liaisonkit.lattice import arithmetic_genus, degree
    from liaisonkit.liaison import _default_surfaces
    from liaisonkit.surfaces import get_surface, lines_on

    walks = {}
    for sid in _default_surfaces():
        s = get_surface(sid)
        walks[sid] = [
            [[degree(c, s), arithmetic_genus(c, s)] for c in (line + t * s.H for t in range(workloads.WALK_HEIGHT + 1))]
            for line in lines_on(s).classes
        ]
    domain = workloads.chain_domain(walks)
    table = {}
    for inputs in domain.values():
        for inp in inputs:
            table[workloads.key(inp)] = _run("chain_search", inp)[0]
    return {"walks": walks, "table": dict(sorted(table.items()))}


def freeze_glicci_sweep(cli):
    from liaisonkit.glicci import _gorenstein_h_vectors

    table, cost = {}, {}
    for mode, ns in workloads.GLICCI_DOMAIN.items():
        for n in ns:
            k = workloads.key([mode, n])
            times = []
            for _ in range(3):
                _gorenstein_h_vectors.cache_clear()  # the cost a pass sees
                table[k], elapsed = _run("glicci_sweep", [mode, n])
                times.append(elapsed)
            cost[k] = min(times) * 1e3
    ranked = sorted((cost[k], json.loads(k)) for k in cost if cost[k] >= GLICCI_MIN_MS)
    return {
        "strata": _strata(ranked),
        "table": table,
        "cost_ms": {k: round(v, 3) for k, v in sorted(cost.items())},
    }


def main(argv) -> int:
    cli = worker.setup()
    os.makedirs(workloads.ORACLE_DIR, exist_ok=True)
    for name in argv[1:] or workloads.WORKLOADS:
        data = globals()[f"freeze_{name}"](cli)
        with open(workloads.oracle_path(name), "w", encoding="utf-8") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(f"froze {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
