"""Command-line surface: schemas, determinism, exit codes, round-trips."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ratdyn.cli import run

# `python -m ratdyn` finds the package in its working directory.
SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_series_csv(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line == "n,value":
            continue
        n, value = line.split(",")
        rows.append((int(n), value))
    return rows


def test_simulate_series_matches_known_orbit(capsys):
    code, out, _ = invoke(
        capsys,
        ["simulate", "--branch", "plus", "--p", "2", "--q", "7", "--nu", "1",
         "--x0", "3", "--steps", "40"],
    )
    assert code == 0
    rows = parse_series_csv(out)
    assert rows[0] == (0, "3")
    assert rows[1] == (1, "7/5")
    # plateaus near the positive root of x^2 + 2x - 7
    assert abs(float(Fraction(rows[40][1])) - 1.8284271247461903) < 1e-9


def test_simulate_is_deterministic(capsys):
    argv = ["simulate", "--branch", "minus", "--p", "2", "--q", "1", "--nu", "1",
            "--x0", "3", "--steps", "25"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_simulate_csv_roundtrip_exact(capsys):
    argv = ["simulate", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "1",
            "--x0", "9", "--steps", "30"]
    _, out, _ = invoke(capsys, argv)
    values = [Fraction(v) for _, v in parse_series_csv(out)]
    recomputed = [Fraction(9)]
    for _ in range(30):
        recomputed.append(Fraction(2) / (1 + recomputed[-1]))
    assert values == recomputed


def test_simulate_float_plane_roundtrip(capsys):
    argv = ["simulate", "--branch", "plus", "--p", "2", "--q", "7", "--nu", "3",
            "--x0", "3", "--steps", "20", "--plane", "float"]
    _, out, _ = invoke(capsys, argv)
    texts = [v for _, v in parse_series_csv(out)]
    floats = [float(t) for t in texts]
    # 17 significant digits round-trip bit-identically
    assert [format(f, ".17g") for f in floats] == texts


def test_simulate_singular_orbit_exit_code(capsys):
    code, out, _ = invoke(
        capsys,
        ["simulate", "--branch", "plus", "--p", "1", "--q", "1", "--nu", "1",
         "--x0", "-2", "--steps", "10"],
    )
    assert code == 3
    assert "# status=hit_singularity step=2" in out
    assert parse_series_csv(out) == [(0, "-2"), (1, "-1")]


def test_simulate_json_status(capsys):
    code, out, _ = invoke(
        capsys,
        ["simulate", "--branch", "plus", "--p", "1", "--q", "1", "--nu", "1",
         "--x0", "-2", "--steps", "10", "--format", "json"],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == {"kind": "hit_singularity", "step": 2}
    assert payload["series"][0] == {"n": 0, "value": "-2"}


def test_closed_form_forbidden_exit_code(capsys):
    code, _, err = invoke(
        capsys,
        ["closed-form", "--branch", "plus", "--p", "1", "--q", "1",
         "--x0", "-2", "--n", "10"],
    )
    assert code == 3
    assert "error:" in err


def test_closed_form_matches_simulate(capsys):
    _, sim_out, _ = invoke(
        capsys,
        ["simulate", "--branch", "minus", "--p", "2", "--q", "7", "--nu", "1",
         "--x0", "-3", "--steps", "15"],
    )
    _, cf_out, _ = invoke(
        capsys,
        ["closed-form", "--branch", "minus", "--p", "2", "--q", "7",
         "--x0", "-3", "--n", "15"],
    )
    assert parse_series_csv(sim_out) == parse_series_csv(cf_out)


def test_forbidden_listing(capsys):
    code, out, _ = invoke(
        capsys, ["forbidden", "--branch", "plus", "--p", "1", "--q", "1", "--depth", "3"]
    )
    assert code == 0
    assert out.splitlines() == ["m,value", "1,-1", "2,-2", "3,-3/2"]


def test_products_metadata_and_limit(capsys):
    code, out, _ = invoke(
        capsys,
        ["products", "--branch", "plus", "--p", "1", "--q", "2", "--x0", "9",
         "--steps", "40"],
    )
    assert code == 0
    assert "# predicted_limit=27/11" in out
    assert "# regime=PEqualQm1" in out
    rows = parse_series_csv(out)
    assert abs(float(Fraction(rows[-1][1])) - 27 / 11) < 1e-9


def test_products_divergent_metadata(capsys):
    code, out, _ = invoke(
        capsys,
        ["products", "--branch", "plus", "--p", "1/2", "--q", "2", "--x0", "9",
         "--steps", "40"],
    )
    assert code == 0
    assert "# predicted_limit=divergent" in out
    assert "# regime=PLessQm1" in out


def test_products_blocked_start_exit_code(capsys):
    code, _, err = invoke(
        capsys,
        ["products", "--branch", "plus", "--p", "1", "--q", "2", "--x0", "-2",
         "--steps", "10"],
    )
    assert code == 3
    assert "error:" in err


def test_analyze_json(capsys):
    code, out, _ = invoke(
        capsys,
        ["analyze", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "6",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equilibria"] == [
        {"bracket": "at_one", "classification": "unstable", "multiplier": "-3", "value": "1"}
    ]


def test_analyze_empty_list_is_valid(capsys):
    code, out, _ = invoke(
        capsys,
        ["analyze", "--branch", "minus", "--p", "1", "--q", "3", "--nu", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"equilibria": []}


def test_period2_csv(capsys):
    code, out, _ = invoke(
        capsys,
        ["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "6"],
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "phi,psi,residual,approx_phi,approx_psi"
    phi, psi, residual, aphi, apsi = row.split(",")
    assert abs(float(phi) - 2.0) < 1e-6
    assert abs(float(psi) - 2 / 65) < 1e-6
    assert float(residual) < 1e-10


def test_period2_none(capsys):
    code, out, _ = invoke(
        capsys,
        ["period2", "--branch", "plus", "--p", "3", "--q", "4", "--nu", "2"],
    )
    assert code == 0
    assert out.splitlines()[1] == "none"


def test_identities_exit_zero(capsys):
    code, out, _ = invoke(capsys, ["identities", "--p", "3", "--q", "2", "--nmax", "20"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,checks,max_abs_residual"
    assert all(line.endswith(",0") for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["closed-form", "--branch", "plus", "--p", "1", "--q", "1", "--x0", "1", "--n", "-1"],
    ["identities", "--p", "1", "--q", "1", "--nmax", "0"],
    ["identities", "--p", "1", "--q", "1", "--nmax", "-3"],
    ["horadam", "--p", "1", "--q", "1", "--from", "5", "--to", "2"],
])
def test_empty_ranges_exit_two_without_output(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3", "zebra"])
def test_period2_rejects_bad_tol_at_parse_time(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run(["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "3", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --tol: must be a finite positive number, got {tol!r}" in captured.err


def test_unknown_flag_exits_two():
    result = subprocess.run(
        [sys.executable, "-m", "ratdyn", "simulate", "--branch", "plus",
         "--p", "1", "--q", "1", "--nu", "1", "--x0", "1", "--steps", "5",
         "--bogus", "1"],
        capture_output=True,
        cwd=SRC,
    )
    assert result.returncode == 2


def test_bad_rational_exits_two():
    result = subprocess.run(
        [sys.executable, "-m", "ratdyn", "simulate", "--branch", "plus",
         "--p", "zebra", "--q", "1", "--nu", "1", "--x0", "1", "--steps", "5"],
        capture_output=True,
        cwd=SRC,
    )
    assert result.returncode == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ratdyn", "horadam", "--p", "1", "--q", "1",
         "--from", "0", "--to", "15"],
        capture_output=True,
        cwd=SRC,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "15,610"
