"""Workload domains and seeded input generators.

Everything here is plain Python over the frozen oracle files: the parent
process never imports ``liaisonkit``, and a worker receives only the
generated inputs.  Each generator draws a fixed number of inputs from
fixed strata of similar cost, so every seed costs about the same; the
seed decides which members of a stratum are drawn and in what order.
"""

from __future__ import annotations

import json
import os
import random

ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle")

WORKLOADS = ("reproduce", "class_census", "chain_search", "glicci_sweep")

# chain_search: biliaison walks of total height <= WALK_HEIGHT from a line;
# perturbed targets move the genus by one of PERTURB; any-direction queries
# are drawn from targets of degree <= ANY_MAX_DEGREE.  Every line on a
# catalog surface has the same (d, g) after the same total height, so a
# (surface, height) cell fixes a target's cost; CHAIN_MIX is the number of
# draws per cell and stratum.
WALK_HEIGHT = 3
PERTURB = (-2, -1, 1, 2)
ANY_MAX_DEGREE = 10
CHAIN_MIX = {"reachable": 5, "perturbed": 3, "any_reachable": 2, "any_perturbed": 3}

# glicci_sweep: the (mode, n) domain.  n >= 106 fails fast under the default
# socle bound of 12.
GLICCI_DOMAIN = {
    "p2": list(range(1, 41)),
    "p3": list(range(1, 101)) + list(range(106, 131)),
    "p3_desc": list(range(1, 101)) + list(range(106, 131)),
    "cubic": list(range(1, 20)),
}


def oracle_path(workload: str) -> str:
    ext = "txt" if workload == "reproduce" else "json"
    return os.path.join(ORACLE_DIR, f"{workload}.{ext}")


def load_oracle(workload: str):
    with open(oracle_path(workload), encoding="utf-8") as fh:
        return fh.read() if workload == "reproduce" else json.load(fh)


def key(inp) -> str:
    """Oracle table key of one operation input."""
    return json.dumps(inp, separators=(",", ":"))


# -- cost strata (class_census, glicci_sweep) ---------------------------

# freeze.py cuts the inputs, sorted by measured cost, into strata of
# similar cost; a pass draws this many inputs from each.
STRATUM_DRAWS = 2


def _draw(rng: random.Random, oracle: dict, cache_key) -> list:
    """STRATUM_DRAWS inputs from every cost stratum (all of a smaller one),
    in seeded order.  A draw skips members whose ``cache_key`` is
    already taken while other members are left, so no input reuses a cached
    result that its stratum's cost did not include."""
    out, taken = [], set()
    for stratum in oracle["strata"]:
        members = rng.sample(stratum, len(stratum))
        fresh = [m for m in members if cache_key(m) not in taken]
        picks = (fresh + [m for m in members if m not in fresh])[:STRATUM_DRAWS]
        taken.update(cache_key(m) for m in picks)
        out += picks
    rng.shuffle(out)
    return out


# -- chain_search -------------------------------------------------------


def chain_domain(walks: dict) -> dict:
    """Every input the chain_search generator can emit, by stratum."""
    reachable = sorted(
        {tuple(dgs[t]) for lines in walks.values() for dgs in lines for t in range(1, WALK_HEIGHT + 1)}
    )
    perturbed = sorted({(d, g + k) for d, g in reachable for k in PERTURB})
    return {
        "reachable": [[list(t), True] for t in reachable],
        "perturbed": [[list(t), True] for t in perturbed],
        "any_reachable": [[list(t), False] for t in reachable if t[0] <= ANY_MAX_DEGREE],
        "any_perturbed": [[list(t), False] for t in perturbed if t[0] <= ANY_MAX_DEGREE],
    }


def chain_inputs(seed: int, oracle: dict) -> list:
    rng = random.Random(seed)
    walks = oracle["walks"]
    out = []
    for sid in sorted(walks):
        for height in range(1, WALK_HEIGHT + 1):
            for stratum, count in CHAIN_MIX.items():
                any_direction = stratum.startswith("any")
                for _ in range(count):
                    # a random line moved by biliaisons of total height
                    d, g = rng.choice(walks[sid])[height]
                    if any_direction and d > ANY_MAX_DEGREE:
                        break
                    if stratum.endswith("perturbed"):
                        g += rng.choice(PERTURB)
                    out.append([[d, g], not any_direction])
    rng.shuffle(out)
    return out


# -- glicci_sweep -------------------------------------------------------


def _cache_key(inp) -> tuple:
    """The P3 modes all go through the cached ``_gorenstein_h_vectors(3,
    3n, 12)``: a second P3 input with the same n is cheaper than its
    stratum says."""
    mode, n = inp
    return (mode == "p2", n)


def glicci_inputs(seed: int, oracle: dict) -> list:
    return _draw(random.Random(seed), oracle, _cache_key)


# -- class_census -------------------------------------------------------


def census_inputs(seed: int, oracle: dict) -> list:
    """The anchor cell (the first stratum) runs first, so the peak memory
    of a pass does not depend on what ran before it."""
    out = _draw(random.Random(seed), oracle, key)
    anchor = oracle["strata"][0][0]
    out.remove(anchor)
    return [anchor] + out


def make_inputs(workload: str, seed: int, oracle) -> list:
    if workload == "reproduce":
        return [None]
    if workload == "class_census":
        return census_inputs(seed, oracle)
    if workload == "chain_search":
        return chain_inputs(seed, oracle)
    return glicci_inputs(seed, oracle)


def expected(workload: str, oracle, inp):
    """The frozen summary for one input (``None`` if outside the table)."""
    if workload == "reproduce":
        return oracle
    return oracle["table"].get(key(inp))
