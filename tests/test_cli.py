"""The ``liaisonkit`` command through ``cli.main``: exit codes 0/1/2,
JSON output, typed messages for bad input, and removed options; and what
importing each module of the package loads."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from liaisonkit import cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def scroll_catalog(tmp_path):
    """A catalog file whose only surface is the cubic scroll, renamed my_scroll."""
    packaged = resources.files("liaisonkit.data").joinpath("surfaces.json")
    raw = json.loads(packaged.read_text(encoding="utf-8"))
    scroll = next(s for s in raw["surfaces"] if s["id"] == "cubic_scroll")
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"surfaces": [dict(scroll, id="my_scroll")]}), encoding="utf-8")
    return str(alt)


def test_divisor_eval_on_alternate_catalog(scroll_catalog, capsys):
    code = cli.main(
        ["divisor", "eval", "my_scroll", "2;1", "--catalog", scroll_catalog, "--format", "json"]
    )
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["surface"] == "my_scroll"
    assert (out["degree"], out["genus"], out["profile"]) == (3, 0, "1^2")


def test_divisor_eval_profiles_a_ruling_of_the_quadric(capsys):
    # a ruling meets the other ruling once and its own ruling not at all
    code = cli.main(["divisor", "eval", "quadric_p3", "1,0", "--format", "json"])
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["degree"], out["genus"], out["profile"]) == (1, 0, "0,1")


@pytest.mark.parametrize("target", ["10", "a,b", "1,2,3"])
def test_bad_target_is_invalid_invocation(target, capsys):
    code = cli.main(["biliaison", "chain", "--target", target])
    assert code == cli.EXIT_INVALID
    assert "expected --target DEGREE,GENUS" in capsys.readouterr().err


def test_start_without_colon_is_invalid_invocation(capsys):
    code = cli.main(["biliaison", "chain", "--target", "5,0", "--start", "cubic_scroll"])
    assert code == cli.EXIT_INVALID
    assert "expected --start SURFACE:COEFFS" in capsys.readouterr().err


def test_start_seed_reaches_target(capsys):
    code = cli.main(
        [
            "biliaison", "chain", "--target", "5,0", "--surfaces", "cubic_scroll",
            "--start", "cubic_scroll:2;2", "--format", "json",
        ]
    )
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["steps"], out["rao_shift"]) == (1, 1)


def test_start_seed_on_the_quadric_lattice(capsys):
    code = cli.main(
        [
            "biliaison", "chain", "--target", "3,0", "--surfaces", "quadric_p3",
            "--start", "quadric_p3:1,0", "--format", "json",
        ]
    )
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["chain"] == [
        "(1,0) --biliaison h=1 on quadric_p3--> (2,1) (3, 0)"
    ]


@pytest.mark.parametrize("surfaces", ["quadric_p3", "cubic_scroll,quadric_p3"])
def test_chain_on_the_quadric_starts_from_a_ruling(surfaces, capsys):
    code = cli.main(
        ["biliaison", "chain", "--target", "3,0", "--surfaces", surfaces, "--format", "json"]
    )
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["chain"] == [
        "(0,1) --biliaison h=1 on quadric_p3--> (1,2) (3, 0)"
    ]


def test_chain_on_surfaces_without_lines_is_invalid_invocation(capsys):
    code = cli.main(["biliaison", "chain", "--target", "4,0", "--surfaces", "plane_p2"])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "no line classes on plane_p2" in captured.err
    assert "--start SURFACE:COEFFS" in captured.err
    assert "--start plane_p2:1" in captured.err
    assert captured.out == ""


def test_start_with_wrong_coefficient_count_is_invalid_invocation(capsys):
    code = cli.main(["biliaison", "chain", "--target", "5,0", "--start", "cubic_scroll:1,1,1"])
    assert code == cli.EXIT_INVALID
    assert "--start on cubic_scroll needs 2 coefficients, got 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["biliaison", "chain", "--target", "5,0", "--start", "cubic_scroll:1^-1,2,2"],
            "repeat count in '1^-1' must be an integer >= 1",
        ),
        (["divisor", "eval", "cubic_scroll", "1^0,2,1"], "repeat count in '1^0'"),
        (["divisor", "eval", "del_pezzo_4", "5;3,1^-4"], "repeat count in '1^-4'"),
        (["divisor", "eval", "del_pezzo_4", "5;3,1^x"], "repeat count in '1^x'"),
        (
            ["divisor", "eval", "del_pezzo_4", "5;3,1^4,1"],
            "coeffs on del_pezzo_4 needs 6 coefficients, got 7",
        ),
        (
            ["divisor", "eval", "cubic_scroll", "1^1000000000000"],
            "coeffs on cubic_scroll needs 2 coefficients, got 1000000000000",
        ),
        (["divisor", "eval", "cubic_scroll", "a,b"], "coefficient 'a' must be an integer"),
        (["divisor", "eval", "cubic_scroll", "1.5,0"], "coefficient '1.5' must be an integer"),
    ],
    ids=[
        "start-negative-repeat", "zero-repeat", "negative-repeat", "text-repeat", "wrong-count",
        "huge-repeat", "text-coefficient", "fractional-coefficient",
    ],
)
def test_bad_class_argument_is_invalid_invocation(argv, message, capsys):
    code = cli.main(argv)
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_chain_search_on_alternate_catalog(scroll_catalog, capsys):
    code = cli.main(
        [
            "biliaison", "chain", "--target", "5,0", "--start", "my_scroll:2;2",
            "--catalog", scroll_catalog, "--format", "json",
        ]
    )
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["chain"] == [
        "(2;2) --biliaison h=1 on my_scroll--> (4;3) (5, 0)"
    ]


@pytest.mark.parametrize(
    "argv",
    [["surface", "show", "cubic_scroll"], ["divisor", "eval", "cubic_scroll", "2;1"]],
    ids=["surface-show", "divisor-eval"],
)
@pytest.mark.parametrize(
    "name, content, message",
    [
        ("missing.json", None, "cannot read catalog"),
        ("bad.json", b"{surfaces:", "is not valid JSON"),
        ("binary.json", b"\xff\xfe", "cannot read catalog"),
        ("empty.json", b"{}", "missing field 'surfaces'"),
        ("list.json", b"[1]", "top level must be an object"),
        ("bare.json", b'{"surfaces":[{"id":"x"}]}', "surface 0: missing field"),
        ("h-text.json", b'{"surfaces":[{"id":"x","ambient":"P4","basis":"quadric",'
         b'"H":"1,1","K":[-2,-2],"degree":2,"sectional_genus":0}]}',
         "field 'H' must be a list of integers"),
        ("wrong-degree.json", b'{"surfaces":[{"id":"x","ambient":"P4","basis":"quadric",'
         b'"H":[1,1],"degree":3}]}',
         "field 'degree' stores 3, derived 2"),
        ("flat.json", b'{"surfaces":[{"id":"flat","ambient":"P4","basis":"blownup_plane",'
         b'"H":[1,1]}]}',
         "(flat): H^2 = 0 must be >= 1"),
        ("negative.json", b'{"surfaces":[{"id":"neg","ambient":"P4","basis":"blownup_plane",'
         b'"H":[1,1,1]}]}',
         "(neg): H^2 = -1 must be >= 1"),
    ],
    ids=["missing", "invalid-json", "not-utf8", "no-surfaces", "not-an-object",
         "no-fields", "mistyped-field", "wrong-degree", "h-squared-0",
         "h-squared-negative"],
)
def test_bad_catalog_file_exits_2(argv, name, content, message, tmp_path, capsys):
    catalog = tmp_path / name
    if content is not None:
        catalog.write_bytes(content)
    code = cli.main([*argv, "--catalog", str(catalog)])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err and str(catalog) in captured.err
    assert captured.out == ""


def _blownup_K(n):
    return "(-3;" + ",".join(["-1"] * n) + ")"


# surface: (blown_points, K, degree, sectional_genus, family_dim)
SURFACE_SHOW = {
    "cubic_scroll": (1, _blownup_K(1), 3, 0, 18),
    "del_pezzo_4": (5, _blownup_K(5), 4, 1, 26),
    "castelnuovo_5": (8, _blownup_K(8), 5, 2, 32),
    "bordiga_6": (10, _blownup_K(10), 6, 3, 36),
    "cubic_surface_p3": (6, _blownup_K(6), 3, 1, None),
    "quadric_p3": (None, "(-2,-2)", 2, 0, None),
    "plane_p2": (0, "(-3;)", 1, 0, None),
}


# surface: (line_count, number of conics)
LINES_AND_CONICS = {
    "cubic_scroll": (2, 1),
    "del_pezzo_4": (16, 10),
    "castelnuovo_5": (14, 1),
    "bordiga_6": (10, 0),
    "cubic_surface_p3": (27, 27),
    "plane_p2": (0, 1),
    "quadric_p3": (2, 1),
}


@pytest.mark.parametrize("sid", sorted(SURFACE_SHOW))
def test_surface_show_prints_the_derived_fields(sid, capsys):
    assert cli.main(["surface", "show", sid, "--format", "json"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    fields = ("blown_points", "K", "degree", "sectional_genus", "family_dim")
    assert tuple(out[f] for f in fields) == SURFACE_SHOW[sid]
    assert (out["line_count"], len(out["conics"])) == LINES_AND_CONICS[sid]


def test_failed_chain_search_exits_1(capsys):
    code = cli.main(
        ["biliaison", "chain", "--target", "2,-1", "--surfaces", "cubic_scroll",
         "--max-steps", "2", "--format", "json"]
    )
    assert code == cli.EXIT_MISMATCH
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_repeated_chain_surfaces_are_listed_once(capsys):
    code = cli.main(
        ["biliaison", "chain", "--target", "5,1", "--surfaces", "cubic_scroll,cubic_scroll",
         "--format", "json"]
    )
    assert code == cli.EXIT_MISMATCH
    assert json.loads(capsys.readouterr().out)["bounds"]["surfaces"] == ["cubic_scroll"]


@pytest.mark.parametrize(("surfaces", "message"), [
    ("", "unknown surface ''"),
    ("cubic_scroll,", "unknown surface ''"),
    ("cubic_scroll,scroll", "unknown surface 'scroll'"),
])
def test_bad_chain_surfaces_exit_2(surfaces, message, capsys):
    code = cli.main(["biliaison", "chain", "--target", "5,1", "--surfaces", surfaces])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_glicci_json_output(capsys):
    code = cli.main(["glicci", "--points", "5", "--format", "json"])
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert out["counts"][0] == 5 and out["counts"][-1] == 1


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_glicci_surface_degree_below_one_exits_2(degree, capsys):
    code = cli.main(["glicci", "--points", "5", "--surface-degree", degree])
    assert code == cli.EXIT_INVALID
    assert "surface degree must be >= 1" in capsys.readouterr().err


def test_glicci_max_intermediate_below_points_exits_2(capsys):
    code = cli.main(["glicci", "--points", "5", "--max-intermediate", "3"])
    assert code == cli.EXIT_INVALID
    assert "max_intermediate 3 is below the start count n=5" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["0,0", "-2,1"])
def test_chain_target_below_degree_one_exits_2(target, capsys):
    code = cli.main(["biliaison", "chain", f"--target={target}"])
    assert code == cli.EXIT_INVALID
    assert "no curve has degree below 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["biliaison", "chain", "--target", "10,9", "--workers", "2"],
        ["biliaison", "chain", "--target", "10,9", "--ascending-only"],
        ["glicci", "--points", "5", "--workers", "2"],
        ["experiment", "run", "ex3.2", "--jobs", "2"],
        ["experiment", "run", "ex3.2", "--surfaces", "bordiga_6"],
    ],
)
def test_removed_options_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "liaisonkit", "experiment", "run", "ex4.2"],
        capture_output=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "ex4.2" in proc.stdout


def _catalog_copy(tmp_path, name, **changes):
    """A copy of the packaged catalog, written as UTF-8, with the fields
    of cubic_scroll changed."""
    raw = json.loads((SRC / "liaisonkit" / "data" / "surfaces.json").read_bytes())
    raw["surfaces"] = [dict(s, **changes) if s["id"] == "cubic_scroll" else s for s in raw["surfaces"]]
    path = tmp_path / name
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    return str(path)


def test_catalog_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), whatever the locale's encoding
    note = "ruled \N{EM DASH} one line per fibre"
    catalog = _catalog_copy(tmp_path, "dash.json", special_position_notes=[note])
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "liaisonkit",
         "surface", "show", "cubic_scroll", "--catalog", catalog, "--format", "json"],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C"),
        timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["notes"] == [note]


def test_no_file_is_read_in_the_locale_encoding(tmp_path):
    catalog = _catalog_copy(tmp_path, "copy.json")
    packaged = str(SRC / "liaisonkit" / "data" / "surfaces.json")
    for argv in (
        ["experiment", "run", "all", "--format", "json"],
        ["surface", "show", "cubic_scroll", "--catalog", catalog, "--format", "json"],
        ["surface", "show", "bordiga_6", "--catalog", packaged],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "liaisonkit", *argv],
            capture_output=True,
            encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK, (argv, proc.stderr)


# Modules whose import time a cold start does not pay: ``dataclasses``
# pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
SLOW_IMPORTS = ("dataclasses", "inspect", "importlib.resources", "pathlib")


def test_cold_start_loads_no_slow_stdlib_modules():
    # -S: no site, so no .pth file of the installation imports them first
    code = (
        "import sys, liaisonkit.cli as c\n"
        "c.build_parser()\n"
        f"print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# The package modules each module loads: the ones it imports, directly or
# through them, and no other.  ``liaison`` reads the packaged catalog at
# import time through the package's loader, which imports nothing.
LOADS = {
    "errors": "errors",
    "search": "errors search",
    "lattice": "errors lattice",
    "hvectors": "errors hvectors",
    "surfaces": "errors lattice surfaces",
    "curves": "curves errors lattice surfaces",
    "glicci": "errors glicci hvectors search",
    "liaison": "curves errors lattice liaison search surfaces",
    "experiments": "curves errors experiments glicci hvectors lattice liaison search surfaces",
    "cli": "cli curves errors experiments glicci hvectors lattice liaison search surfaces",
}


def test_importing_liaison_loads_no_logging():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import liaisonkit.liaison\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'logging'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(LOADS))
def test_importing_a_module_loads_only_what_it_uses(module):
    code = (
        f"import sys, liaisonkit.{module}\n"
        "print(*sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('liaisonkit.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == LOADS[module].split()
