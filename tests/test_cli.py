"""Command-line surface: schemas, determinism, exit codes, round-trips."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ratdyn import cli, dynamics, errors
from ratdyn.cli import Table, fmt, render, run
from ratdyn.equation import EquationSpec
from ratdyn.errors import DigitLimit

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


def _rows(table):
    """The row tuples of a column table, as the reference writers read them."""
    return list(zip(*table.columns.values()))


def _json_by_dumps(table):
    """Reference JSON document: one dict per row, serialized by json.dumps."""
    rows = _rows(table)

    def cell(value):
        return value if type(value) is int else fmt(value)

    records = [dict(zip(table.columns, map(cell, row))) for row in rows]
    payload = {table.key: (records[0] if records else None) if table.single else records}
    if table.status is not None:
        payload["status"] = table.status
    if table.meta:
        payload["meta"] = {key: fmt(value) for key, value in table.meta.items()}
    return json.dumps(payload, sort_keys=True) + "\n"


def _csv_per_cell(table):
    """Reference CSV document: the per-row writer, `fmt` called on every cell."""
    rows = _rows(table)
    lines = [f"# {key}={fmt(value)}" for key, value in sorted((table.meta or {}).items())]
    if table.status is not None:
        step = table.status["step"]
        lines.append(f"# status={table.status['kind']}"
                     + ("" if step is None else f" step={step}"))
    lines.append(",".join(table.columns))
    if table.single and not rows:
        lines.append("none")
    lines.extend(",".join(map(fmt, row)) for row in rows)
    lines.append("")
    return "\n".join(lines)


def _table(key, names, rows, **kw):
    """A column table holding `rows`."""
    return Table(key, {name: [row[i] for row in rows] for i, name in enumerate(names)}, **kw)


def _record(names, row):
    """A period-two style table: one record, or none when `row` is None."""
    return _table("cycle", names, [] if row is None else [row], single=True)


CELLS = (0, -7, 10 ** 30, True, False, Fraction(22, 7), Fraction(-3, 4), Fraction(5), 0.1,
         -2.5e-300, math.inf, -math.inf, math.nan, "unstable")
CYCLE = ("phi", "psi", "residual", "approx_phi", "approx_psi")  # sorted order differs
SERIES = ("n", "value")
_rng = random.Random(8)
FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, math.inf, math.nan, 0.0, -math.inf,
          *(_rng.uniform(-1, 1) * 10.0 ** _rng.randint(-320, 300)
            for _ in range(cli.BLOCK_ROWS + 2)))


def _cycle_tail(head, pair, rows):
    """`rows` float cells: those of `head`, then the two objects of `pair` in
    turn, as the tail of an orbit that `dynamics.iterate` found periodic."""
    return [*head, *(pair[i % 2] for i in range(rows - len(head)))]


ZEROS = (0.0, -0.0)  # equal values, different texts
PERIODIC = [
    _cycle_tail(FLOATS[7:1000], (2.5, -1 / 3), 2 * cli.BLOCK_ROWS + 3),  # cycle starts mid-block
    *(_cycle_tail((), (2.5, -1 / 3), rows)
      for rows in (cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1)),
    _cycle_tail((1.5,), (0.75, 0.75), cli.BLOCK_ROWS + 5),  # period one
    _cycle_tail((), (math.inf, math.nan), 7),
    _cycle_tail((), ZEROS, cli.BLOCK_ROWS + 1),
    # equal values two rows apart but not the same objects: 0, 1, -0, 1, ...
    [(ZEROS[0], 1.0, ZEROS[1], 1.0)[i % 4] for i in range(cli.BLOCK_ROWS + 1)],
]

TABLES = [
    _table("series", SERIES, list(enumerate(CELLS))),
    _table("series", SERIES, []),
    _table("series", SERIES, [(0, 1.5)], status={"kind": "completed", "step": None}),
    _table("series", SERIES, [(0, -1.0)], status={"kind": "near_singular", "step": 1}),
    _table("series", SERIES, [], status={"kind": "hit_singularity", "step": 1}),
    _table("series", SERIES, [(0, Fraction(1, 2))],
           meta={"alternating": True, "predicted_limit": "divergent", "regime": "r"}),
    _table("series", SERIES, [(1, 2)], meta={"predicted_limit": Fraction(-2, 3)},
           status={"kind": "completed", "step": None}),
    _table("series", SERIES, [], meta={}),
    _record(CYCLE, CELLS[:5]),
    _record(CYCLE, (math.nan, -math.inf, math.inf, Fraction(-1, 3), 4)),
    _record(CYCLE, None),
    _table("equilibria", ("value", "multiplier", "classification", "bracket"),
           [CELLS[i:i + 4] for i in range(0, len(CELLS) - 3)]),
    _table("identities", ("kind", "checks", "max_abs_residual"), [("cassini", 25, 0)]),
    # column kinds the one-pass formatting must tell apart
    Table("series", {"n": range(len(FLOATS)), "value": FLOATS},
          status={"kind": "completed", "step": None}),
    Table("series", {"n": range(-20, -7), "value": [Fraction(k, 3) for k in range(13)]}),
    Table("series", {"n": range(4), "value": [1, Fraction(1, 2), -3, Fraction(-7, 3)]}),
    Table("flags", {"flag": (True, False, True), "count": (1, 0, 2 ** 70)}),
    # `%`, quotes and backslashes in names and cells stay text, not conversions
    Table("flags", {"100%": ("%s", "%", '"q"', "back\\slash"), '%s"\\': (1, 0, -5, 2),
                    "%d": (0.5, -0.0, math.inf, 1e-300)}),
    # text that JSON escapes: control characters, DEL, non-ASCII, a lone surrogate
    Table("text", {"caf\u00e9": ("\x00\t", "\x7f", "\u2028\U0001f600", "\ud800"),
                   "tab\tkey": (1, 2, 3, 4)},
          meta={"\u00e9": "line\nbreak", "plain": "a\\b"}, status={"kind": "\u00e9", "step": 0}),
    # float series around the real block size
    *(Table("series", {"n": range(rows), "value": FLOATS[:rows]})
      for rows in (cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1)),
    # periodic float tails, and one beside a column that is not periodic
    *(Table("series", {"n": range(len(cells)), "value": cells},
            status={"kind": "completed", "step": None}) for cells in PERIODIC),
    Table("pair", {"y": PERIODIC[0], "x": (FLOATS * 2)[:len(PERIODIC[0])]}),
    # an all-Fraction column that sorts after an int column listed after it
    Table("forbidden", {"value": [Fraction(-3, 2), Fraction(10 ** 40, 7), Fraction(0), Fraction(5)],
                        "m": range(1, 5)}),
    # no rows, for each column kind
    Table("series", {"n": range(0), "value": []}),
    Table("series", {"n": [], "value": ()}, status={"kind": "completed", "step": None}),
    Table("forbidden", {"m": range(1, 1), "value": []}),
    Table("kinds", {"int": (), "float": (), "fraction": (), "text": ()}),
    Table("kinds", {"int": (), "float": (), "fraction": (), "text": ()}, single=True),
]


def test_quote_equals_the_json_encoder():
    from json.encoder import encode_basestring_ascii

    rng = random.Random(27)
    alphabet = ['"', "\\", "/", "%", " ", "~", "\x7f", "\u00e9", "\u2028", "\ud800",
                "\U0001f600", *map(chr, range(32)), *"azAZ09-"]
    texts = ["", '"', "\\", "plain", "1/3", "-7", *(
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))) for _ in range(2000))]
    for text in texts:
        assert cli._quote(text) == encode_basestring_ascii(text), repr(text)
    for _ in range(200):
        members = {rng.choice(texts): rng.choice([None, rng.randint(-10 ** 20, 10 ** 20),
                                                  rng.choice(texts)]) for _ in range(3)}
        assert cli._json_object(members) == json.dumps(members, sort_keys=True)


@pytest.mark.parametrize("table", TABLES)
def test_json_render_equals_dumps_of_the_payload(table):
    assert render(table, argparse.Namespace(format="json")) == _json_by_dumps(table)


@pytest.mark.parametrize("table", TABLES)
def test_csv_render_equals_per_cell_reference(table):
    assert render(table, argparse.Namespace(format="csv")) == _csv_per_cell(table)


@pytest.mark.parametrize("fmt_flag", ["csv", "json"])
def test_render_gives_one_document_at_every_block_size(monkeypatch, fmt_flag):
    args = argparse.Namespace(format=fmt_flag)
    whole = [render(table, args) for table in TABLES]
    for rows in (1, 2, 7):
        monkeypatch.setattr(cli, "BLOCK_ROWS", rows)
        assert [render(table, args) for table in TABLES] == whole


@pytest.mark.parametrize("fmt_flag", ["csv", "json"])
@pytest.mark.parametrize("kind", [int, Fraction])
def test_render_past_the_digit_limit_raises_digit_limit(fmt_flag, kind):
    # `%d` (ints) and `%s` (Fractions) raise the int->str ValueError of `str`
    table = Table("series", {"n": range(2),
                             "value": [kind(1), kind(10 ** sys.get_int_max_str_digits())]})
    with pytest.raises(DigitLimit):
        render(table, argparse.Namespace(format=fmt_flag))


@pytest.mark.parametrize("fmt_flag", ["csv", "json"])
def test_render_peak_memory_is_about_twice_the_document(fmt_flag):
    # Bytes, not time: rows are joined a block at a time, so the peak is the
    # joined blocks plus the document, ~2.0x its length.  Holding every row
    # string at once, as one join of all rows does, peaks at 4.1x (CSV) and
    # 3.2x (JSON) on this table.
    rng = random.Random(9)
    values = [rng.uniform(0.1, 3.5) for _ in range(50_000)]
    table = Table("series", {"n": range(len(values)), "value": values},
                  status={"kind": "completed", "step": None})
    tracemalloc.start()
    try:
        document = render(table, argparse.Namespace(format=fmt_flag))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(document) < 2.5


@pytest.mark.parametrize("fmt_flag", ["csv", "json"])
def test_float_series_renders_without_a_call_per_cell(monkeypatch, capsys, fmt_flag):
    # Counts calls, not time: the value column is formatted in one pass.
    calls = []
    real_fmt = cli.fmt

    def counting(value):
        calls.append(value)
        return real_fmt(value)

    monkeypatch.setattr(cli, "fmt", counting)
    code, out, _ = invoke(capsys, [
        "simulate", "--branch", "plus", "--p", "2", "--q", "7", "--nu", "6", "--x0", "3",
        "--steps", "1000", "--plane", "float", "--format", fmt_flag])
    assert code == 0 and out.count("\n") == (1 if fmt_flag == "json" else 1003)
    assert calls == []


def test_simulate_refuses_an_exact_orbit_at_the_digit_limit(monkeypatch, capsys):
    # Counts exact steps, not time: the refusal comes at step 14 of 24, where
    # an iterate first certainly has more digits than the int->str limit.
    steps_taken = [0]
    real_step = dynamics._exact_step

    def counting(*args):
        steps_taken[0] += 1
        return real_step(*args)

    monkeypatch.setattr(dynamics, "_exact_step", counting)
    code, out, err = invoke(capsys, ["simulate", "--branch", "plus", "--p", "1", "--q", "2",
                                     "--nu", "2", "--x0", "3", "--steps", "24"])
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == f"error: exact value exceeds {limit} digits; use --plane float\n"
    assert steps_taken[0] == 14


def _count_exact_steps(monkeypatch):
    """Count calls of the exact step rule, one per exact iterate step."""
    count = [0]
    real_step = dynamics._exact_step

    def counting(*args):
        count[0] += 1
        return real_step(*args)

    monkeypatch.setattr(dynamics, "_exact_step", counting)
    return count


@pytest.mark.parametrize("branch, p, q, nu, x0, steps", [
    ("plus", "1", "2", 2, "3", 16),
    ("minus", "3", "1", 2, "4/3", 16),
    ("plus", "2", "5", 3, "5/2", 10),
])
def test_simulate_exact_refuses_only_unprintable_iterates(monkeypatch, capsys,
                                                          branch, p, q, nu, x0, steps):
    # Counts exact steps, not time, under three int->str limits.
    eq = EquationSpec(branch, Fraction(p), Fraction(q), nu)
    argv = ["simulate", "--branch", branch, "--p", p, "--q", q, "--nu", str(nu), "--x0", x0]
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # to count the digits of every iterate
        digits = [max(len(str(abs(x.numerator))), len(str(x.denominator)))
                  for x in dynamics.iterate(eq, Fraction(x0), steps).values]
        for limit in (640, 1000, 4300):
            first = next(k for k, d in enumerate(digits) if d > limit)
            sys.set_int_max_str_digits(limit)
            steps_taken = _count_exact_steps(monkeypatch)
            code, out, err = invoke(capsys, argv + ["--steps", str(steps)])
            assert (code, out) == (2, "") and f"exceeds {limit} digits" in err
            # never an iterate that prints; at most one step past the first that does not
            assert digits[steps_taken[0]] > limit and steps_taken[0] in (first, first + 1)
            assert invoke(capsys, argv + ["--steps", str(first - 1)])[0] == 0
    finally:
        sys.set_int_max_str_digits(previous)


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
    # nu = 1 where p*p + 4q overflows a float: the root and its multiplier,
    # never nan; in the last two the multiplier's squared denominator overflows.
    # At nu = 1 |multiplier| = x/(x + p) < 1 exactly, though the float rounds to -1
    for argv, expected in [
        (["--branch", "plus", "--p", "1", "--q", "1e308"],
         (0, '{"equilibria": [{"bracket": "beyond_one", "classification":'
             ' "locally_asymptotically_stable", "multiplier": "-1", "value": "1e+154"}]}\n', "")),
        (["--branch", "plus", "--p", "1e155", "--q", "1"],
         (0, '{"equilibria": [{"bracket": "in_unit_interval", "classification":'
             ' "locally_asymptotically_stable", "multiplier": "-9.9999999999999694e-311",'
             ' "value": "1e-155"}]}\n', "")),
        (["--branch", "minus", "--p", "1e160", "--q", "3"],
         (0, '{"equilibria": [{"bracket": "in_minus_unit", "classification":'
             ' "locally_asymptotically_stable", "multiplier": "-2.999966601548049e-320",'
             ' "value": "-3e-160"}]}\n', "")),
    ]:
        assert invoke(capsys, ["analyze", *argv, "--nu", "1", "--format", "json"]) == expected


@pytest.mark.parametrize("branch, p, q, classes", [
    # the outer root's polynomial terms reach 1e9: an absolute residual bound rejects it
    ("minus", "1000000", "1/1000000", ["locally_asymptotically_stable", "unstable"]),
    ("minus", "1000000", "7/2", ["locally_asymptotically_stable", "unstable"]),
    ("minus", "1000000", "1/3", ["locally_asymptotically_stable", "unstable"]),
    # two roots although q > p - 1
    ("minus", "1000", "5000", ["locally_asymptotically_stable", "unstable"]),
    # double roots at -2 and -1/3
    ("minus", "12", "16", ["marginally_stable"]),
    ("minus", "1/3", "2/27", ["marginally_stable"]),
    # the multiplier rounds to -1.00000000000025, and period2 finds a cycle
    ("plus", "1", "2000000000001/1000000000000", ["unstable"]),
])
def test_analyze_count_and_class_are_exact(capsys, branch, p, q, classes):
    code, out, err = invoke(capsys, ["analyze", "--branch", branch, "--p", p, "--q", q,
                                     "--nu", "2"])
    assert (code, err) == (0, "")
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == classes


def test_analyze_refuses_two_roots_that_round_to_one_float(capsys):
    code, out, err = invoke(capsys, ["analyze", "--branch", "minus", "--p", "3",
                                     "--q", str(2 - Fraction(1, 10 ** 40)),
                                     "--nu", "2"])
    assert (code, out, err) == (2, "", "error: two equilibria round to the one float -1.0\n")


def test_analyze_empty_list_is_valid(capsys):
    code, out, _ = invoke(
        capsys,
        ["analyze", "--branch", "minus", "--p", "1", "--q", "3", "--nu", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"equilibria": []}


@pytest.mark.parametrize("p, q, nu", [("1", "3", "1101"), ("3", "1", "1100")])
def test_analyze_minus_outer_root_where_the_doubling_bracket_overflows(capsys, p, q, nu):
    # (-2.0)**(nu+1) overflows a float; the bracket on Fractions cannot
    code, out, err = invoke(capsys, ["analyze", "--branch", "minus", "--p", p, "--q", q,
                                     "--nu", nu, "--format", "json"])
    assert (code, err) == (0, "")
    outer = json.loads(out)["equilibria"][-1]
    assert -1.01 < float(outer["value"]) < -1.0
    assert (outer["bracket"], outer["classification"]) == ("below_minus_one", "unstable")


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


BEYOND = str(sys.maxsize + 1)


@pytest.mark.parametrize("argv, flag", [
    (["forbidden", "--branch", "plus", "--p", "1", "--q", "1", "--depth", BEYOND], "--depth"),
    (["products", "--branch", "plus", "--p", "1", "--q", "2", "--x0", "9", "--steps", BEYOND],
     "--steps"),
    (["simulate", "--branch", "plus", "--p", "1", "--q", "1", "--x0", "1", "--steps", BEYOND],
     "--steps"),
    (["closed-form", "--branch", "plus", "--p", "1", "--q", "1", "--x0", "1", "--n", BEYOND], "--n"),
    (["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", BEYOND], "--to"),
    (["horadam", "--p", "1", "--q", "1", f"--from=-{BEYOND}", "--to", "0"], "--from"),
    (["identities", "--p", "1", "--q", "1", "--nmax", BEYOND], "--nmax"),
])
def test_size_flag_beyond_maxsize_is_rejected_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be at most sys.maxsize in magnitude" in captured.err
    parsed = cli.build_parser().parse_args([arg.replace(BEYOND, str(sys.maxsize)) for arg in argv])
    assert sys.maxsize in (abs(value) for value in vars(parsed).values() if type(value) is int)


@pytest.mark.parametrize("command", ["simulate", "analyze", "period2"])
@pytest.mark.parametrize("nu", ["0", "-1", "20001", "99999999999999999999"])
def test_nu_outside_its_bound_is_rejected_at_parse_time(capsys, command, nu):
    # parse only: an exact power at such a nu would take minutes or gigabytes
    argv = [command, "--branch", "plus", "--p", "1", "--q", "1", "--nu"]
    if command == "simulate":
        argv[1:1] = ["--x0", "1", "--steps", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + [nu])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --nu: must be an int from 1 to 20000, got {nu!r}" in captured.err
    assert cli.build_parser().parse_args(argv + ["20000"]).nu == 20000


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3", "zebra"])
def test_period2_rejects_bad_tol_at_parse_time(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run(["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "3", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --tol: must be a finite positive number, got {tol!r}" in captured.err


def test_each_error_class_is_in_one_exit_code_family():
    """`run` maps a ValueError to exit 2 and a SingularInput to exit 3, so every
    class of `ratdyn.errors` but the two bases must be exactly one of them."""
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert errors.DigitLimit in classes
    for cls in set(classes) - {errors.RatdynError, errors.SingularInput}:
        assert issubclass(cls, errors.SingularInput) != issubclass(cls, ValueError), cls


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


def test_closed_pipe_exits_141_with_empty_stderr():
    # the reader closes stdout before the ~420 kB document, more than a pipe
    # buffer holds, is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratdyn", "horadam", "--p", "1", "--q", "1",
         "--from", "0", "--to", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=SRC,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("flags", [["-E"], ["-E", "-u"]])  # stdout buffered, unbuffered
@pytest.mark.parametrize("argv", [
    ["--help"],
    ["simulate", "--help"],
    ["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", "10"],
])
def test_stdout_closed_before_the_start_exits_141_with_empty_stderr(flags, argv):
    # the read end is closed before the spawn: every write to stdout fails,
    # whether it comes from argparse or from the document
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, *flags, "-m", "ratdyn", *argv], stdout=write,
                                stderr=subprocess.PIPE, cwd=SRC, timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("closed, argv", [
    (1, ["--help"]),
    (2, ["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", "15"]),
])
def test_a_stream_closed_at_startup_is_left_alone(closed, argv):
    # Python sets sys.stdout or sys.stderr to None where its fd is closed
    result = subprocess.run(["sh", "-c", f'exec {closed}>&-; exec "$@"', "sh",
                             sys.executable, "-m", "ratdyn", *argv],
                            capture_output=True, cwd=SRC, timeout=60)
    assert result.returncode == 0
    assert result.stdout.endswith(b"15,610\n") if closed == 2 else result.stderr == b""


def test_a_document_with_stdout_closed_at_startup_exits_141_with_empty_stderr():
    # sys.stdout is None: no reader is left to take the document
    argv = ["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", "3"]
    result = subprocess.run(["sh", "-c", 'exec 1>&-; exec "$@"', "sh",
                             sys.executable, "-m", "ratdyn", *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=SRC, timeout=60)
    assert (result.returncode, result.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
