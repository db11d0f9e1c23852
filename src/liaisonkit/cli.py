"""Command-line interface.

Subcommands: ``surface show``, ``divisor eval``, ``biliaison chain``,
``glicci``, ``experiment run``.  Exit codes: 0 success / all values
match, 1 mismatch or search failure, 2 invalid invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidInvocationError, LiaisonkitError, UnsupportedSurfaceError
from .lattice import DivisorClass
from .surfaces import get_surface, lines_on, conic_classes, surface_ids
from .curves import CurveRecord
from .liaison import ascending_chain_search
from .glicci import glicci_chain
from .experiments import divisor_eval, experiment_ids, run_experiment

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


def parse_coeffs(text: str) -> tuple[int, ...]:
    """Parse ``5;3,1,1,1,1`` or ``5,3,1^4`` or ``0;0^9,-1`` into a tuple.
    A caret expands repeats: ``1^4`` is four ones; a count below 1 is refused."""
    text = text.strip().replace("(", "").replace(")", "")
    text = text.replace(";", ",")
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        val, caret, count = part.partition("^")
        try:
            repeats = int(count) if caret else 1
        except ValueError:
            repeats = 0
        if repeats < 1:
            raise InvalidInvocationError(f"repeat count in {part!r} must be an integer >= 1")
        out.extend([int(val)] * repeats)
    if not out:
        raise InvalidInvocationError(f"empty coefficient list {text!r}")
    return tuple(out)


def _surface_class(surface_id: str, text: str, catalog: str | None, name: str):
    """The catalog surface and the class on it that ``text`` gives; ``name``
    labels the argument in the message for a wrong coefficient count."""
    surface = get_surface(surface_id, catalog)
    values = parse_coeffs(text)
    rank = len(surface.H.coeffs)
    if len(values) != rank:
        raise InvalidInvocationError(
            f"{name} on {surface_id} needs {rank} coefficients, got {len(values)}"
        )
    return surface, DivisorClass(surface.basis, values)


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
        return
    width = max((len(k) for k in data), default=0)
    for key, value in data.items():
        print(f"{key:<{width}}  {value}")


def _emit_failure(result, fmt: str) -> int:
    data = {"found": False, "explored": result.explored}
    if result.frontier_sizes:
        data["frontier_sizes"] = list(result.frontier_sizes)
    data["bounds"] = result.bounds
    _emit(data, fmt)
    return EXIT_MISMATCH


def _cmd_surface_show(args) -> int:
    s = get_surface(args.id, args.catalog)
    data = {
        "id": s.id,
        "ambient": s.ambient,
        "basis": s.basis,
        "blown_points": s.blown_points,
        "H": str(s.H),
        "K": str(s.K),
        "degree": s.degree,
        "sectional_genus": s.sectional_genus,
        "family_dim": s.family_dim,
        "notes": list(s.special_position_notes),
    }
    if s.basis == "blownup_plane":
        lcs = lines_on(s)
        data["lines"] = [f"{c} [{f}]" for c, f in lcs.pairs()]
        data["line_count"] = len(lcs)
        data["conics"] = [str(c) for c in conic_classes(s)]
    _emit(data, args.format)
    return EXIT_OK


def _cmd_divisor_eval(args) -> int:
    surface, cls = _surface_class(args.surface, args.coeffs, args.catalog, "coeffs")
    _emit(divisor_eval(surface, cls), args.format)
    return EXIT_OK


def _cmd_biliaison_chain(args) -> int:
    try:
        d, g = (int(x) for x in args.target.split(","))
    except ValueError:
        raise InvalidInvocationError(
            f"expected --target DEGREE,GENUS, got {args.target!r}"
        ) from None
    surfaces = args.surfaces.split(",") if args.surfaces else None
    starts = None
    if args.start:
        sid, sep, coeffs = args.start.partition(":")
        if not sep:
            raise InvalidInvocationError(
                f"expected --start SURFACE:COEFFS, got {args.start!r}"
            )
        starts = [CurveRecord.on_surface(*_surface_class(sid, coeffs, args.catalog, "--start"))]
    try:
        result = ascending_chain_search(
            (d, g),
            surfaces=surfaces,
            ascending_only=not args.any_direction,
            max_steps=args.max_steps,
            starts=starts,
            catalog_path=args.catalog,
        )
    except UnsupportedSurfaceError as exc:
        if starts is not None:
            raise
        raise InvalidInvocationError(
            f"{exc}: use --start SURFACE:COEFFS, "
            "e.g. --start quadric_p3:1,0 for a ruling of the quadric"
        ) from None
    if not result.found:
        return _emit_failure(result, args.format)
    data = {
        "found": True,
        "steps": result.liaison_steps,
        "rao_shift": result.net_rao_shift,
        "chain": result.describe(),
    }
    _emit(data, args.format)
    return EXIT_OK


def _cmd_glicci(args) -> int:
    mode = "descending_only" if args.mode == "descending" else "full"
    chain = glicci_chain(
        args.points,
        ambient=args.ambient.upper(),
        mode=mode,
        max_intermediate=args.max_intermediate,
        surface_degree=args.surface_degree,
    )
    if not chain.found:
        return _emit_failure(chain, args.format)
    data = {
        "found": True,
        "points": args.points,
        "counts": list(chain.counts),
        "states": [list(s.entries) for s in chain.states],
        "links": [list(w.entries) for w in chain.links],
        "link_masses": [w.mass for w in chain.links],
        "monotone_descending": chain.monotone_descending,
        "max_intermediate_degree": chain.max_intermediate_degree,
        "intermediates_exceed_start": chain.exceeds_start,
    }
    _emit(data, args.format)
    return EXIT_OK


def _render_report(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    lines = [f"== {report.experiment_id} ({report.anchor}) =="]
    keys = sorted(set(report.computed) | set(report.references))
    width = max(len(k) for k in keys)
    matches = report.matches
    for key in keys:
        computed = report.computed.get(key, "-")
        ref = report.references.get(key)
        if ref is None:
            lines.append(f"  {key:<{width}}  {computed}")
            continue
        status = {True: "ok", False: "MISMATCH", None: "display"}[matches[key]]
        note = f"  ({ref.note})" if ref.note else ""
        lines.append(
            f"  {key:<{width}}  {computed}  [{ref.provenance}: {ref.value}]"
            f" {status}{note}"
        )
    verdict = "ALL MATCH" if report.all_match else "MISMATCHES PRESENT"
    lines.append(f"  -- {verdict} in {report.runtime_seconds}s")
    return "\n".join(lines)


def _cmd_experiment_run(args) -> int:
    ids = list(experiment_ids()) if args.id == "all" else [args.id]
    ok = True
    for eid in ids:
        report = run_experiment(eid)
        print(_render_report(report, args.format))
        ok = ok and report.all_match
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liaisonkit",
        description="Exact divisor-class, liaison-chain and Hilbert-function computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_surface = sub.add_parser("surface", help="surface catalog")
    surface_sub = p_surface.add_subparsers(dest="subcommand", required=True)
    p_show = surface_sub.add_parser("show", help="show one catalog surface")
    p_show.add_argument("id", help=f"one of: {', '.join(surface_ids())}")
    p_show.add_argument("--format", choices=("table", "json"), default="table")
    p_show.add_argument("--catalog", default=None, help="alternate catalog file")
    p_show.set_defaults(func=_cmd_surface_show)

    p_divisor = sub.add_parser("divisor", help="divisor class calculator")
    divisor_sub = p_divisor.add_subparsers(dest="subcommand", required=True)
    p_eval = divisor_sub.add_parser("eval", help="degree/genus/profile of a class")
    p_eval.add_argument("surface")
    p_eval.add_argument("coeffs", help="e.g. '5;3,1^4' or '6,2'")
    p_eval.add_argument("--format", choices=("table", "json"), default="table")
    p_eval.add_argument("--catalog", default=None)
    p_eval.set_defaults(func=_cmd_divisor_eval)

    p_bil = sub.add_parser("biliaison", help="liaison chain search")
    bil_sub = p_bil.add_subparsers(dest="subcommand", required=True)
    p_chain = bil_sub.add_parser("chain", help="search a chain to a target (d,g)")
    p_chain.add_argument("--target", required=True, help="degree,genus")
    p_chain.add_argument(
        "--any-direction",
        action="store_true",
        help="allow descending biliaisons and Gorenstein links",
    )
    p_chain.add_argument("--max-steps", type=int, default=8)
    p_chain.add_argument("--surfaces", default=None, help="comma-separated ids")
    p_chain.add_argument("--start", default=None, help="seed as surface:coeffs")
    p_chain.add_argument("--format", choices=("table", "json"), default="table")
    p_chain.add_argument("--catalog", default=None, help="alternate catalog file")
    p_chain.set_defaults(func=_cmd_biliaison_chain)

    p_glicci = sub.add_parser("glicci", help="point-configuration link chains")
    p_glicci.add_argument("--points", type=int, required=True)
    p_glicci.add_argument("--ambient", choices=("p2", "p3"), default="p3")
    p_glicci.add_argument("--mode", choices=("full", "descending"), default="full")
    p_glicci.add_argument("--max-intermediate", type=int, default=None)
    p_glicci.add_argument("--surface-degree", type=int, default=None)
    p_glicci.add_argument("--format", choices=("table", "json"), default="table")
    p_glicci.set_defaults(func=_cmd_glicci)

    p_exp = sub.add_parser("experiment", help="scripted reproductions")
    exp_sub = p_exp.add_subparsers(dest="subcommand", required=True)
    p_run = exp_sub.add_parser("run", help="run one experiment or 'all'")
    p_run.add_argument("id", help=f"'all' or one of: {', '.join(experiment_ids())}")
    p_run.add_argument("--format", choices=("table", "json"), default="table")
    p_run.set_defaults(func=_cmd_experiment_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LiaisonkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
