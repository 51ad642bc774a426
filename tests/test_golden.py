"""Golden CLI outputs: stdout, stderr and exit code compared byte for byte.

The cases are every invocation in the README "Example invocations" table plus
horadam, closed-form and identities runs that pin the recurrence layer.  The
expected files live in tests/golden/: `<name>.out` holds stdout and
`exit.json` holds each case's exit code and stderr.  After a deliberate change
of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from ratdyn.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # README "Example invocations"
    "readme_simulate_plus_p2_q7": "simulate --branch plus --p 2 --q 7 --nu 1 --x0 3 --steps 40",
    "readme_simulate_minus_p2_q7": "simulate --branch minus --p 2 --q 7 --nu 1 --x0 -3 --steps 40",
    "readme_simulate_plus_p2_q1": "simulate --branch plus --p 2 --q 1 --nu 1 --x0 2 --steps 100",
    "readme_simulate_minus_p2_q1": "simulate --branch minus --p 2 --q 1 --nu 1 --x0 3 --steps 100",
    "readme_products_plus_p2_q1": "products --branch plus --p 2 --q 1 --x0 2 --steps 20",
    "readme_products_minus_p2_q1": "products --branch minus --p 2 --q 1 --x0 -2 --steps 20",
    "readme_products_plus_p1_q2": "products --branch plus --p 1 --q 2 --x0 9 --steps 40",
    "readme_products_minus_p1_q2": "products --branch minus --p 1 --q 2 --x0 -9 --steps 40",
    "readme_products_plus_divergent": "products --branch plus --p 1/2 --q 2 --x0 9 --steps 40",
    "readme_products_minus_divergent": "products --branch minus --p 1/2 --q 2 --x0 -9 --steps 40",
    "readme_forbidden_fibonacci": "forbidden --branch plus --p 1 --q 1 --depth 20",
    "readme_analyze_plus_nu6": "analyze --branch plus --p 1 --q 2 --nu 6",
    "readme_analyze_minus_nu2": "analyze --branch minus --p 3 --q 1 --nu 2",
    "readme_period2_plus_nu6": "period2 --branch plus --p 1 --q 2 --nu 6",
    "readme_simulate_float_nu6":
        "simulate --branch plus --p 1 --q 2 --nu 6 --x0 1.001 --steps 200 --plane float",
    "readme_identities": "identities --p 3 --q 2 --nmax 25",
    # recurrence values: forward, backward, across 0, rational seeds
    "horadam_forward_csv": "horadam --p 1 --q 1 --from 0 --to 40",
    "horadam_forward_json": "horadam --p 2 --q 3 --from 5 --to 30 --format json",
    "horadam_backward_csv": "horadam --p 3 --q 2 --from -25 --to 0",
    "horadam_backward_json": "horadam --p 1 --q 2 --from -20 --to -7 --format json",
    "horadam_cross_csv": "horadam --p 2 --q 1 --from -12 --to 12",
    "horadam_cross_json": "horadam --p 3 --q 1 --from -9 --to 4 --format json",
    "horadam_rational_csv": "horadam --a=1/3 --b 5 --p 3/2 --q 2/3 --from -6 --to 15",
    "horadam_rational_json":
        "horadam --a=-2 --b 7/3 --p 5/3 --q 3/4 --from -5 --to 10 --format json",
    # closed form on both branches, and a forbidden start (exit 3)
    "closed_form_plus_csv": "closed-form --branch plus --p 2 --q 7 --x0 3 --n 30",
    "closed_form_plus_json": "closed-form --branch plus --p 1 --q 2 --x0 7/3 --n 25 --format json",
    "closed_form_minus_csv": "closed-form --branch minus --p 2 --q 7 --x0 -3 --n 30",
    "closed_form_minus_json":
        "closed-form --branch minus --p 3 --q 5 --x0=-1/2 --n 25 --format json",
    "closed_form_forbidden": "closed-form --branch plus --p 1 --q 1 --x0=-3/2 --n 10",
    "identities_fibonacci": "identities --p 1 --q 1 --nmax 25",
    # the other emitters and error paths
    "simulate_singular_csv": "simulate --branch plus --p 1 --q 1 --nu 1 --x0 -2 --steps 10",
    "simulate_singular_json":
        "simulate --branch plus --p 1 --q 1 --nu 1 --x0 -2 --steps 10 --format json",
    "products_json": "products --branch minus --p 1 --q 2 --x0 -9 --steps 10 --format json",
    "products_blocked": "products --branch plus --p 1 --q 2 --x0 -2 --steps 10",
    "forbidden_json": "forbidden --branch minus --p 2 --q 3 --depth 12 --format json",
    "forbidden_bad_depth": "forbidden --branch plus --p 1 --q 1 --depth 0",
    "analyze_json": "analyze --branch minus --p 3 --q 1 --nu 3 --format json",
    "analyze_empty_csv": "analyze --branch minus --p 1 --q 3 --nu 2",
    "period2_json": "period2 --branch plus --p 1 --q 2 --nu 6 --format json",
    "period2_none_csv": "period2 --branch plus --p 3 --q 4 --nu 2",
    "period2_none_json": "period2 --branch plus --p 3 --q 4 --nu 2 --format json",
    # period2 in each search region: odd-nu mirror, mixed-sign, tangency mirror, loose tol
    "period2_minus_odd_csv": "period2 --branch minus --p 1 --q 2 --nu 5",
    "period2_minus_odd_json": "period2 --branch minus --p 1 --q 2 --nu 5 --format json",
    "period2_mixed_csv": "period2 --branch minus --p 3 --q 1 --nu 2",
    "period2_mixed_json": "period2 --branch minus --p 3 --q 1 --nu 2 --format json",
    "period2_minus_tangency": "period2 --branch minus --p 2 --q 3 --nu 3",
    "period2_plus_loose_tol": "period2 --branch plus --p 1 --q 4 --nu 12 --tol 1e-4",
    "horadam_bad_range": "horadam --p 1 --q 1 --from 5 --to 2",
    # float overflow: exit 2, one error line, nothing on stdout
    "overflow_period2_minus": "period2 --branch minus --p 1/10 --q 10 --nu 200",
    "overflow_period2_plus": "period2 --branch plus --p 1/10 --q 10 --nu 200",
    "overflow_analyze": "analyze --branch plus --p 1/10 --q 10 --nu 400",
    "overflow_simulate_float":
        "simulate --branch plus --p 1 --q 1 --nu 200 --x0 100 --steps 100 --plane float",
}


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = json.loads((GOLDEN / "exit.json").read_text())[name]
    rc, out, err = invoke(shlex.split(CASES[name]))
    assert rc == expected["rc"]
    assert err.encode() == expected["stderr"].encode()
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, command in sorted(CASES.items()):
        rc, out, err = invoke(shlex.split(command))
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        codes[name] = {"rc": rc, "stderr": err}
    (GOLDEN / "exit.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
