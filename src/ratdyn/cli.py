"""Command-line interface: deterministic CSV/JSON export of every operation.

Exit codes: 0 success, 1 failed identity suite, 2 flag errors (argparse) or
a float overflow, 3 singular or forbidden input.  Exact rationals render as
num/den strings, floats with 17 significant digits; both round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import analysis, closed_form, dynamics
from .equation import Branch, EquationSpec
from .errors import RatdynError, SingularInput
# bench/trace_run.py wraps this module's `horadam_range` and `check_identity`.
from .horadam import HoradamSpec, check_identity, horadam_range, identity_battery  # noqa: F401

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3


def fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _branch_arg(text: str) -> Branch:
    try:
        return Branch(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("branch must be 'plus' or 'minus'") from exc


def _emit_series(pairs, args, status=None, meta=None) -> None:
    if args.format == "json":
        payload = {"series": [{"n": n, "value": fmt(v)} for n, v in pairs]}
        if status is not None:
            payload["status"] = status
        if meta:
            payload["meta"] = meta
        print(json.dumps(payload, sort_keys=True))
        return
    if meta:
        for key in sorted(meta):
            print(f"# {key}={meta[key]}")
    if status is not None:
        print(f"# status={status['kind']}"
              + (f" step={status['step']}" if status.get("step") is not None else ""))
    print("n,value")
    for n, v in pairs:
        print(f"{n},{fmt(v)}")


def _emit_rows(args, key, columns, rows) -> None:
    """A small table as CSV under a header, or as JSON {key: [one object per row]}."""
    if args.format == "json":
        print(json.dumps({key: [dict(zip(columns, row)) for row in rows]}, sort_keys=True))
        return
    print(",".join(columns))
    for row in rows:
        print(",".join(map(str, row)))


def _cmd_horadam(args) -> int:
    spec = HoradamSpec(args.a, args.b, args.p, args.q)
    values = horadam_range(spec, args.start, args.stop)
    _emit_series(list(zip(range(args.start, args.stop + 1), values)), args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    plane = dynamics.Plane(args.plane)
    x0 = args.x0 if plane is dynamics.Plane.EXACT else float(args.x0)
    orbit = dynamics.iterate(eq, x0, args.steps, plane)
    status = {"kind": orbit.status.kind.value, "step": orbit.status.step}
    _emit_series(list(enumerate(orbit.values)), args, status=status)
    return EXIT_OK if orbit.status.ok else EXIT_SINGULAR


def _cmd_closed_form(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, 1)
    values = closed_form.closed_form_series(eq, args.x0, args.n)
    _emit_series(list(enumerate(values)), args)
    return EXIT_OK


def _cmd_forbidden(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, 1)
    points = closed_form.forbidden_points(eq, args.depth)
    _emit_rows(args, "forbidden", ("m", "value"), [(pt.m, fmt(pt.value)) for pt in points])
    return EXIT_OK


def _cmd_products(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, 1)
    result = closed_form.product_analysis(eq, args.x0, args.steps)
    predicted = "divergent" if result.predicted_limit is None else fmt(result.predicted_limit)
    meta = {
        "alternating": fmt(result.alternating),
        "predicted_limit": predicted,
        "regime": result.regime.value,
    }
    _emit_series(list(enumerate(result.partials)), args, meta=meta)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    reports = [analysis.classify_stability(eq, rep) for rep in analysis.equilibria(eq)]
    rows = [
        (fmt(rep.value), fmt(rep.multiplier), rep.classification.value, rep.bracket.value)
        for rep in reports
    ]
    _emit_rows(args, "equilibria", ("value", "multiplier", "classification", "bracket"), rows)
    return EXIT_OK


def _cmd_period2(args) -> int:
    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    cycle = analysis.solve_period_two(eq, args.tol)
    columns = ("phi", "psi", "residual", "approx_phi", "approx_psi")
    row = None if cycle is None else tuple(
        fmt(v) for v in (cycle.phi, cycle.psi, cycle.residual, *cycle.approx_form))
    if args.format == "json":
        print(json.dumps({"cycle": None if row is None else dict(zip(columns, row))},
                         sort_keys=True))
    else:
        print(",".join(columns))
        print("none" if row is None else ",".join(row))
    return EXIT_OK


def _cmd_identities(args) -> int:
    rows = identity_battery(HoradamSpec.canonical(args.p, args.q), args.nmax)
    print("kind,checks,max_abs_residual")
    for kind, checks, worst in rows:
        print(f"{kind.value},{checks},{fmt(worst)}")
    return EXIT_OK if all(worst == 0 for _, _, worst in rows) else EXIT_IDENTITY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratdyn",
        description="Orbit, closed-form and stability data for x(n+1) = q/(±p + x(n)^nu).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, branch=True, nu=False, fmt_flag=True):
        if branch:
            sp.add_argument("--branch", type=_branch_arg, required=True)
        sp.add_argument("--p", type=_fraction_arg, required=True)
        sp.add_argument("--q", type=_fraction_arg, required=True)
        if nu:
            sp.add_argument("--nu", type=int, default=1)
        if fmt_flag:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("horadam", help="recurrence values W(n) over an index range")
    add_common(sp, branch=False)
    sp.add_argument("--a", type=_fraction_arg, default=Fraction(0))
    sp.add_argument("--b", type=_fraction_arg, default=Fraction(1))
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="stop", type=int, required=True)
    sp.set_defaults(fn=_cmd_horadam)

    sp = sub.add_parser("simulate", help="iterate an orbit and emit the series")
    add_common(sp, nu=True)
    sp.add_argument("--x0", type=_fraction_arg, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--plane", choices=("exact", "float"), default="exact")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("closed-form", help="nu=1 series straight from the closed form")
    add_common(sp)
    sp.add_argument("--x0", type=_fraction_arg, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_closed_form)

    sp = sub.add_parser("forbidden", help="forbidden initial conditions by depth (nu=1)")
    add_common(sp)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=_cmd_forbidden)

    sp = sub.add_parser("products", help="partial products with regime and limit (nu=1)")
    add_common(sp)
    sp.add_argument("--x0", type=_fraction_arg, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(fn=_cmd_products)

    sp = sub.add_parser("analyze", help="equilibria with multipliers and stability")
    add_common(sp, nu=True)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("period2", help="prime two-cycle, if one exists")
    add_common(sp, nu=True)
    sp.add_argument("--tol", type=_tol_arg, default=1e-10)
    sp.set_defaults(fn=_cmd_period2)

    sp = sub.add_parser("identities", help="exact identity battery; exit 1 on any failure")
    add_common(sp, branch=False, fmt_flag=False)
    sp.add_argument("--nmax", type=int, required=True)
    sp.set_defaults(fn=_cmd_identities)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SingularInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (RatdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
