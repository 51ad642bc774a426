"""Golden CLI outputs: stdout, stderr and exit code compared byte for byte.

The cases are every invocation in the README "Example invocations" table plus
horadam, closed-form and identities runs that pin the recurrence layer.  The
expected files live in tests/golden/: `<name>.out` holds stdout and
`exit.json` holds each case's exit code and stderr.  Every case runs in
process through `run`; PROCESS_CASES also run as `python -m ratdyn` processes,
which end through `main`.  After a deliberate change of output, rewrite the
named cases' goldens (every case's with no names) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from ratdyn.cli import run

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
# `python -m ratdyn` finds the package in its working directory.
SRC = Path(__file__).resolve().parents[1] / "src"
COLUMNS = {"COLUMNS": "80"}  # a terminal width, which help and flag errors do not follow

TINY = "1/1" + "0" * 400  # 10**-400, below the smallest positive float

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
    # q = 0 has no backward walk, and every battery reads W below 0: exit 3,
    # refused before any output
    "identities_q_zero": "identities --p 1 --q 0 --nmax 5",
    # the other table shapes and error paths
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
    # large nu: a minus-branch cycle, a plus-branch cycle and a criterion-false cell
    "period2_minus_nu200": "period2 --branch minus --p 3 --q 1 --nu 200",
    "period2_plus_nu200": "period2 --branch plus --p 1 --q 2 --nu 200",
    "period2_none_nu48": "period2 --branch plus --p 3 --q 1 --nu 48",
    # the mixed region at nu = 400, and analyze at the nu bound: one root,
    # two from -1 and two from the split point
    "period2_minus_nu400": "period2 --branch minus --p 3 --q 1 --nu 400",
    "analyze_plus_nu20000": "analyze --branch plus --p 1 --q 3 --nu 20000",
    "analyze_minus_nu20000": "analyze --branch minus --p 3 --q 1 --nu 20000",
    "analyze_minus_split_nu20000": "analyze --branch minus --p 100000 --q 199999/2 --nu 20000",
    "horadam_bad_range": "horadam --p 1 --q 1 --from 5 --to 2",
    # a flag error: exit 2 with the usage text
    "simulate_bad_rational": "simulate --branch plus --p zebra --q 1 --x0 1 --steps 5",
    # the help of ratdyn and of each subcommand, and each other shape of a flag error
    "help": "--help",
    "help_horadam": "horadam -h",
    "help_simulate": "simulate -h",
    "help_closed_form": "closed-form -h",
    "help_forbidden": "forbidden -h",
    "help_products": "products -h",
    "help_analyze": "analyze -h",
    "help_period2": "period2 -h",
    "help_identities": "identities -h",
    "flag_missing": "period2 --branch plus --p 1",
    "flag_bad_choice": "period2 --branch plus --p 1 --q 2 --format xml",
    "flag_unrecognized": "analyze --branch plus --p 1 --q 1 --bogus 1",
    "flag_ambiguous_prefix": "horadam --p 1 --q 2 --f 0 --to 5",
    # a value token that starts with '-' is the value of the flag before it
    "simulate_negative_rational_token": "simulate --branch minus --p 2 --q 7 --x0 -1/2 --steps 5",
    # a 71 kB document, more than a 64 kB pipe buffer holds
    "horadam_past_a_pipe_buffer": "horadam --p 1 --q 1 --from 0 --to 800",
    # float overflow: exit 2, one error line, nothing on stdout
    "overflow_period2_minus": "period2 --branch minus --p 1/10 --q 10 --nu 200",
    "overflow_period2_plus": "period2 --branch plus --p 1/10 --q 10 --nu 200",
    "overflow_simulate_float":
        "simulate --branch plus --p 1 --q 1 --nu 200 --x0 100 --steps 100 --plane float",
    # float JSON documents: a completed orbit, and a near-singular stop with its status
    "simulate_float_json": "simulate --branch minus --p 2 --q 3 --nu 5 --x0=-1001/1000"
                           " --steps 300 --plane float --format json",
    "simulate_float_near_singular_json": "simulate --branch plus --p 1 --q 1 --nu 1 --x0=-1"
                                         " --steps 100 --plane float --format json",
    # 101.0**401 overflows a float; the equilibrium bracket on Fractions cannot
    "overflow_analyze": "analyze --branch plus --p 1/10 --q 10 --nu 400",
    # p = 10**-400 is 0.0 as a float, and at p = q = 10**-400 the squared
    # denominator underflows: exit 2, one error line, nothing on stdout
    "underflow_period2": f"period2 --branch plus --p {TINY} --q 1 --nu 2",
    "underflow_analyze": f"analyze --branch plus --p {TINY} --q {TINY} --nu 2",
    # an exact iterate past CPython's int->str digit limit: exit 2, nothing on stdout
    "simulate_exact_too_large": "simulate --branch plus --p 1 --q 2 --nu 2 --x0 3 --steps 14",
    "simulate_exact_too_large_steps24":
        "simulate --branch plus --p 1 --q 2 --nu 2 --x0 3 --steps 24",
}


class _Recorder(io.StringIO):
    """A StringIO that also keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def invoke(argv):
    """(exit code, stdout, stderr, stdout writes) of one in-process CLI run."""
    out, err = _Recorder(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue(), out.writes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = json.loads((GOLDEN / "exit.json").read_text())[name]
    rc, out, err, writes = invoke(shlex.split(CASES[name]))
    assert rc == expected["rc"]
    assert err.encode() == expected["stderr"].encode()
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    # the whole document in one write, after the computation has succeeded
    assert len([text for text in writes if text]) <= 1


# exit 0 in both formats, past a pipe buffer and for help, 2 for a flag error
# and an overflow, 3 for a singular start, before and after a partial orbit
PROCESS_CASES = ("readme_identities", "horadam_rational_json", "products_json",
                 "horadam_past_a_pipe_buffer", "simulate_bad_rational", "overflow_simulate_float",
                 "closed_form_forbidden", "simulate_singular_json", "help", "help_period2")


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_golden_output_of_a_process(name):
    # the same bytes from a real process, which ends through cli.main
    expected = json.loads((GOLDEN / "exit.json").read_text())[name]
    result = subprocess.run([sys.executable, "-E", "-s", "-m", "ratdyn", *shlex.split(CASES[name])],
                            cwd=SRC, stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
                            env={**os.environ, **COLUMNS})
    assert result.returncode == expected["rc"]
    assert result.stderr == expected["stderr"].encode()
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("columns", ["40", "200"])  # 80 in PROCESS_CASES
@pytest.mark.parametrize("name", ["help", "help_period2"])
def test_help_is_the_same_at_every_terminal_width(name, columns):
    result = subprocess.run([sys.executable, "-E", "-s", "-m", "ratdyn", *shlex.split(CASES[name])],
                            cwd=SRC, stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
                            env={**os.environ, "COLUMNS": columns})
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_help_on_a_stdout_that_cannot_encode_it():
    # the help's one non-ASCII character, '\u00b1', escaped as stderr
    # escapes it; -E would drop PYTHONIOENCODING
    result = subprocess.run([sys.executable, "-s", "-m", "ratdyn", "--help"], cwd=SRC,
                            stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
                            env={**os.environ, **COLUMNS, "PYTHONIOENCODING": "ascii"})
    assert (result.returncode, result.stderr) == (0, b"")
    golden = (GOLDEN / "help.out").read_bytes()
    assert "\u00b1".encode() in golden
    assert result.stdout == golden.replace("\u00b1".encode(), b"\\xb1")


def test_readme_examples_are_golden_cases():
    section = README.read_text().split("### Example invocations", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"`ratdyn ([^`]+)`", section)
    missing = set(commands) - set(CASES.values())
    assert commands and not missing


def test_readme_library_example_gives_the_values_in_its_comments():
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:  # a statement
            exec(code, namespace)
            continue
        values[comment.strip()] = eval(expression, namespace)
    # x -> 2/(1+x) from 9: 1/5, 5/3, 3/4, 8/7, 14/15
    assert values["Fraction(14, 15)"] == Fraction(14, 15)
    assert values["Fraction(27, 11)"] == Fraction(27, 11)
    cycle = values["PeriodTwoCycle(phi=2.0..., psi=0.0307...)"]
    assert type(cycle).__name__ == "PeriodTwoCycle"
    assert cycle.phi == pytest.approx(2.0, abs=1e-4)
    assert cycle.psi == pytest.approx(0.0307, abs=1e-4)


def regenerate(names) -> None:
    """Rewrite the goldens of `names`, or of every case when `names` is empty."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"error: unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads((GOLDEN / "exit.json").read_text()) if names else {}
    for name in names or sorted(CASES):
        rc, out, err, _ = invoke(shlex.split(CASES[name]))
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        codes[name] = {"rc": rc, "stderr": err}
    (GOLDEN / "exit.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
