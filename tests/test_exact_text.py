"""The exact exports on decimal integers: `simulate --plane exact`, `closed-form`,
`forbidden` and `products` print num/den texts that the CLI computes on
integral `decimal.Decimal`s.  Each must print the bytes that rendering the
library's Fractions prints, refuse the same values at CPython's int->str
digit limit, and neither use nor change the caller's decimal context."""

from __future__ import annotations

import decimal
import functools
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from ratdyn import cli, closed_form, dynamics
from ratdyn.cli import Table, run
from ratdyn.equation import EquationSpec


def _on_fractions(args):
    """The document of an exact subcommand from the library's Fractions, as
    `render` prints them (its int->str conversion refuses past the limit)."""
    eq = EquationSpec(args.branch, args.p, args.q, getattr(args, "nu", 1))
    if args.command == "simulate":
        orbit = dynamics.iterate(eq, args.x0, args.steps)
        rc = cli.EXIT_OK if orbit.status.ok else cli.EXIT_SINGULAR
        return rc, Table("series", {"n": range(len(orbit.values)), "value": orbit.values},
                         status={"kind": orbit.status.kind.value, "step": orbit.status.step})
    if args.command == "closed-form":
        values = closed_form.closed_form_series(eq, args.x0, args.n)
        return cli.EXIT_OK, Table("series", {"n": range(len(values)), "value": values})
    if args.command == "forbidden":
        points = closed_form.forbidden_points(eq, args.depth)
        return cli.EXIT_OK, Table("forbidden", {"m": [pt.m for pt in points],
                                                "value": [pt.value for pt in points]})
    result = closed_form.product_analysis(eq, args.x0, args.steps)
    limit = "divergent" if result.predicted_limit is None else result.predicted_limit
    return cli.EXIT_OK, Table("series", {"n": range(len(result.partials)),
                                         "value": result.partials},
                              meta={"alternating": result.alternating, "predicted_limit": limit,
                                    "regime": result.regime.value})


def _both(monkeypatch, capsys, argv):
    """(rc, stdout, stderr) of `argv` as the CLI runs it, and as it runs on
    the library's Fractions instead."""
    outputs = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                for name in ("_cmd_simulate", "_cmd_closed_form", "_cmd_forbidden",
                             "_cmd_products"):
                    patch.setattr(cli, name, _on_fractions)
            rc = run(argv)
        captured = capsys.readouterr()
        outputs.append((rc, captured.out, captured.err))
    return outputs


# (p, q) cells with a rational equilibrium: p**2 + 4q is a square
SQUARE_CELLS = [(2, 3), (1, 2), (Fraction(3, 2), 1), (Fraction(5, 3), Fraction(2, 3))]
PARAMS = [1, 2, 3, 7, Fraction(1, 2), Fraction(5, 3), Fraction(9, 4), Fraction(7, 5),
          Fraction(11, 13), Fraction(1, 1000)]


def _equilibria(branch, p, q):
    """The rational fixed points of x -> q/(sign*p + x)."""
    root = closed_form.rational_sqrt(p * p + 4 * q)
    sign = 1 if branch == "plus" else -1
    return [(-sign * p + r) / 2 for r in (root, -root)]


def _grid():
    """Seeded argv for the four exact subcommands: both branches, integer and
    rational p and q, x0 negative, zero, an integer, a rational equilibrium
    and a forbidden point, lengths up to ~2000, both formats."""
    rng = random.Random(23)
    cases = []
    for i in range(30):
        branch = rng.choice(("plus", "minus"))
        kind = ("negative", "zero", "integer", "rational", "equilibrium", "forbidden")[i % 6]
        p, q = rng.choice(SQUARE_CELLS) if kind == "equilibrium" else \
            (Fraction(rng.choice(PARAMS)), Fraction(rng.choice(PARAMS)))
        length = rng.choice((1, 2, 7, 40, 300, 1000 + rng.randrange(1100)))
        if kind == "equilibrium":  # past 1024 steps, where `iterate` tests for a cycle
            length = 1100 + rng.randrange(1000)
        x0 = {"negative": Fraction(-rng.randint(1, 9), rng.randint(1, 9)),
              "zero": Fraction(0),
              "integer": Fraction(rng.choice((-5, 3, 9))),
              "rational": Fraction(rng.randint(1, 99), rng.randint(2, 99)),
              }.get(kind)
        if kind == "equilibrium":
            x0 = rng.choice(_equilibria(branch, p, q))
        if kind == "forbidden":
            points = closed_form.forbidden_points(EquationSpec(branch, p, q), 12)
            x0 = rng.choice(points).value
        common = ["--branch", branch, "--p", str(p), "--q", str(q)]
        fmt = ["--format", "json"] if i % 2 else []
        cases += [
            ["simulate", *common, "--nu", "1", f"--x0={x0}", "--steps", str(length), *fmt],
            ["closed-form", *common, f"--x0={x0}", "--n", str(length), *fmt],
            ["products", *common, f"--x0={x0}", "--steps", str(max(length, 1)), *fmt],
        ]
        if i % 3 == 0:
            cases.append(["forbidden", *common, "--depth", str(max(length, 1)), *fmt])
    # exact nu >= 2 orbits run on decimal integers too
    cases += [["simulate", "--branch", "plus", "--p", "2", "--q", "5", "--nu", "2", "--x0", "3",
               "--steps", "9"],
              ["simulate", "--branch", "minus", "--p", "1/2", "--q", "3", "--nu", "3",
               "--x0=-4/3", "--steps", "5", "--format", "json"]]
    return cases


GRID = _grid()


def test_the_grid_draws_every_outcome():
    kinds = {(argv[0], "--format" in argv) for argv in GRID}
    assert len(kinds) == 8
    assert sum("--x0=0" in argv for argv in GRID) >= 6


@pytest.mark.parametrize("argv", GRID, ids=[" ".join(argv) for argv in GRID])
def test_exact_exports_print_the_bytes_of_the_library_fractions(monkeypatch, capsys, argv):
    cli_output, reference = _both(monkeypatch, capsys, argv)
    assert cli_output == reference


def test_the_grid_reaches_singular_and_periodic_orbits():
    kinds, filled = set(), 0
    for argv in GRID:
        if argv[0] == "simulate":
            args = cli.build_parser().parse_args(argv)
            eq = EquationSpec(args.branch, args.p, args.q, args.nu)
            orbit = dynamics.iterate(eq, args.x0, args.steps)
            kinds.add(orbit.status.kind)
            filled += len(orbit.values) > 3 and orbit.values[-1] is orbit.values[-3]
    assert kinds == {dynamics.StatusKind.COMPLETED, dynamics.StatusKind.HIT_SINGULARITY}
    assert filled >= 3  # orbits from an equilibrium, filled past the cycle test


# --- the digit limit ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _power_of_ten(k: int) -> int:
    return 10 ** k


def _count(n: int) -> int:
    """The decimal digits of n >= 0, without int->str: the least k >= 1 with
    n < 10**k, searched up from a k that 0.3 < log10(2) keeps at or below it."""
    k = max(1, n.bit_length() * 3 // 10)
    while n >= _power_of_ten(k):
        k += 1
    return k


def _digits(value: Fraction) -> int:
    return max(_count(abs(value.numerator)), _count(value.denominator))


CELL = ["--branch", "plus", "--p", "7/5", "--q", "11/13"]
X0 = Fraction(2, 9)


def _printed(command: str, length: int) -> list:
    """The values the document of `command` at `length` prints."""
    eq = EquationSpec.plus(Fraction(7, 5), Fraction(11, 13))
    if command in ("simulate", "closed-form"):
        return list(dynamics.iterate(eq, X0, length).values)
    if command == "forbidden":
        return [pt.value for pt in closed_form.forbidden_points(eq, length)]
    return list(closed_form.product_analysis(eq, X0, length).partials)


def _argv(command: str, length: int) -> list:
    flag = {"simulate": "--steps", "closed-form": "--n", "forbidden": "--depth",
            "products": "--steps"}[command]
    x0 = [] if command == "forbidden" else [f"--x0={X0}"]
    return [command, *CELL, *x0, flag, str(length)]


@pytest.fixture
def int_str_limit():
    previous = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("command", ["simulate", "closed-form", "forbidden", "products"])
def test_every_export_refuses_exactly_the_values_past_the_digit_limit(capsys, int_str_limit,
                                                                      command):
    values = _printed(command, 3000)  # a shorter document prints a prefix of these
    digits = [_digits(v) for v in values]
    assert digits[:100] == [max(len(str(abs(v.numerator))), len(str(v.denominator)))
                            for v in values[:100]]
    for limit in (640, 4300):
        first = next(i for i, d in enumerate(digits) if d > limit)  # the first value refused
        longest = first if command != "forbidden" else first + 1  # a depth counts from 1
        int_str_limit(limit)
        hint = "; use --plane float" if command == "simulate" else ""
        assert run(_argv(command, longest)) == 2
        assert capsys.readouterr() == ("", f"error: exact value exceeds {limit} digits{hint}\n")
        assert run(_argv(command, longest - 1)) == 0
        last = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)[-1].rsplit(",", 1)[-1]
        assert Fraction(last) == values[first - 1]
        assert max(digits[:first]) <= limit
        int_str_limit(0)
        assert run(_argv(command, longest)) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith("," + str(values[first]))


def test_an_exact_seed_past_the_digit_limit_is_refused(capsys):
    seed = "--x0=1e" + str(sys.get_int_max_str_digits())  # 10**limit has one digit too many
    for argv in (["simulate", *CELL, seed, "--steps", "0"],
                 ["closed-form", *CELL, seed, "--n", "3"],
                 ["products", *CELL, seed, "--steps", "1"]):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""


# --- the decimal context ------------------------------------------------------------


def _settings(context: decimal.Context) -> tuple:
    return (context.prec, context.rounding, context.Emin, context.Emax, context.capitals,
            context.clamp, dict(context.flags), dict(context.traps))


EXPORTS = [argv for argv in GRID if argv[0] != "simulate" or argv[argv.index("--nu") + 1] == "1"]


def test_the_exports_neither_use_nor_change_the_callers_decimal_context(capsys):
    expected = []
    for argv in EXPORTS[:12]:
        expected.append((run(argv), capsys.readouterr()))
    loose = decimal.Context(prec=28, traps=[])
    with decimal.localcontext(loose) as caller:
        before = _settings(caller)
        for argv, want in zip(EXPORTS[:12], expected):
            assert (run(argv), capsys.readouterr()) == want
            assert decimal.getcontext() is caller and _settings(caller) == before


def test_the_exact_sweep_yields_in_the_callers_context():
    # a generator that entered the exact context itself would leave it current
    # at each yield; the CLI enters it around the whole sweep instead
    eq, x0 = EquationSpec.minus(3, 7), Fraction(-7, 3)
    exact = dynamics._exact_pairs(eq, x0, int)
    with decimal.localcontext(decimal.Context(prec=28, traps=[])) as caller:
        pairs = dynamics._exact_pairs(eq, x0, Decimal)
        for _ in range(300):
            with decimal.localcontext(cli._EXACT):
                n, d, g = next(pairs)
            assert decimal.getcontext() is caller
            assert (int(n), int(d), g) == next(exact)
    assert n.adjusted() > 100  # far past the 28 digits of the caller's context


def test_a_sweep_outside_the_exact_context_raises_instead_of_rounding():
    eq = EquationSpec.minus(3, 7)
    strict = decimal.Context(prec=28, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(strict), pytest.raises((decimal.Inexact, decimal.Rounded)):
        for _ in zip(range(300), dynamics._exact_pairs(eq, Fraction(-7, 3), Decimal)):
            pass
    # the CLI's context holds every integer exactly and traps the same signals
    assert cli._EXACT.prec == decimal.MAX_PREC
    assert cli._EXACT.traps[decimal.Inexact] and cli._EXACT.traps[decimal.Rounded]
