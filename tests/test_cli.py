"""The ``liaisonkit`` command through ``cli.main``: exit codes 0/1/2,
JSON output, typed messages for bad input, and removed options."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from liaisonkit import cli


def test_divisor_eval_on_alternate_catalog(tmp_path, capsys):
    raw = json.loads(resources.files("liaisonkit.data").joinpath("surfaces.json").read_text())
    scroll = next(s for s in raw["surfaces"] if s["id"] == "cubic_scroll")
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"surfaces": [dict(scroll, id="my_scroll")]}))
    code = cli.main(
        ["divisor", "eval", "my_scroll", "2;1", "--catalog", str(alt), "--format", "json"]
    )
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["surface"] == "my_scroll"
    assert (out["degree"], out["genus"], out["profile"]) == (3, 0, "1^2")


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


def test_failed_chain_search_exits_1(capsys):
    code = cli.main(
        ["biliaison", "chain", "--target", "2,-1", "--surfaces", "cubic_scroll",
         "--max-steps", "2", "--format", "json"]
    )
    assert code == cli.EXIT_MISMATCH
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_glicci_json_output(capsys):
    code = cli.main(["glicci", "--points", "5", "--format", "json"])
    assert code == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert out["counts"][0] == 5 and out["counts"][-1] == 1


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "liaisonkit", "experiment", "run", "ex4.2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "ex4.2" in proc.stdout
