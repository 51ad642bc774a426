"""Command-line interface: deterministic CSV/JSON export of every operation.

Each subcommand returns one `Table`, and `run` writes the rendered document
to stdout once, after it has been computed: a run prints its whole document or
nothing.  `simulate` stopped at a singularity is a complete document with its
`# status=` line and exit 3.  Exit codes: 0 success, 1 failed identity suite,
2 flag errors, a float overflow, or an exact value too large to print, 3
singular or forbidden input.  Exact rationals render as num/den strings,
floats with 17 significant digits; both round-trip losslessly.

A table holds columns, not rows.  `render` turns each column into text in one
pass: a C-level `format`/`str` map when the column is all floats or all ints,
`fmt` per cell otherwise.  It joins each CSV line or JSON record from those
texts, so a long orbit builds no per-row tuple, and joins the rows a block at
a time, so only one block of row strings is alive beside the document.  The
layers are imported by the subcommands that use them.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from itertools import islice, repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .equation import Branch, EquationSpec
from .errors import DigitLimit, RatdynError, SingularInput
# bench/trace_run.py wraps this module's `horadam_range` and `check_identity`.
from .horadam import HoradamSpec, check_identity, horadam_range, identity_battery  # noqa: F401

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3

BLOCK_ROWS = 4096  # rows joined at a time by `render`


def fmt(value) -> str:
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


class Table(NamedTuple):
    """One subcommand's result, held by column.  `columns` maps each column
    name, in CSV order, to its cells: sequences of one length, such as a
    `range` of indices beside the values a layer returned, so no row tuple is
    built.  The rows form a JSON array under `key`; with `single` there is at
    most one row, a JSON object, and none is `null` in JSON and `none` in CSV.
    `meta` and `status` add `#` lines or JSON keys."""

    key: str
    columns: Dict[str, Sequence]
    single: bool = False
    meta: Optional[dict] = None
    status: Optional[dict] = None


def _json_cell(value, encode) -> str:
    """One cell as JSON text: indices and counts stay numbers, the rest are
    strings quoted by `encode`."""
    return str(value) if type(value) is int else encode(fmt(value))


def _column_texts(cells: Sequence, json_text: bool) -> Iterator[str]:
    """`cells` as CSV (`fmt`) or JSON (`_json_cell`) texts.  A column of only
    floats or only ints (not bools) is formatted in one C-level pass.  Only
    JSON loads `json`."""
    kinds = set(map(type, cells))
    if kinds == {int}:
        return map(str, cells)
    if not json_text:
        return map(format, cells, repeat(".17g")) if kinds == {float} else map(fmt, cells)
    from json.encoder import encode_basestring_ascii

    if kinds == {float}:
        return map(encode_basestring_ascii, map(format, cells, repeat(".17g")))
    return map(_json_cell, cells, repeat(encode_basestring_ascii))


def _joined(rows: Iterator[str], sep: str) -> List[str]:
    """Pieces whose concatenation is `sep.join(rows)`.  Rows are joined
    BLOCK_ROWS at a time, so only one block of row strings is alive at once."""
    pieces: List[str] = []
    while block := list(islice(rows, BLOCK_ROWS)):
        pieces += [sep, sep.join(block)] if pieces else [sep.join(block)]
    return pieces


def _json_document(table: Table, texts) -> str:
    """The bytes of `json.dumps(payload, sort_keys=True)`.  A row is joined
    from its cell texts in sorted column order and the key text before each."""
    import json
    from json.encoder import encode_basestring_ascii

    by_name = dict(zip(table.columns, texts))
    pieces = []
    for name in sorted(by_name):
        pieces += [repeat((", " if pieces else "{") + encode_basestring_ascii(name) + ": "),
                   by_name[name]]
    records = map("".join, zip(*pieces, repeat("}")))
    members = {table.key: [next(records, "null")] if table.single
               else ["[", *_joined(records, ", "), "]"]}
    if table.status is not None:
        members["status"] = [json.dumps(table.status, sort_keys=True)]
    if table.meta:
        members["meta"] = [json.dumps({key: fmt(value) for key, value in table.meta.items()},
                                      sort_keys=True)]
    document = []
    for key, value in sorted(members.items()):
        document += [", " if document else "{", encode_basestring_ascii(key), ": ", *value]
    document.append("}\n")
    return "".join(document)


def render(table: Table, args) -> str:
    """The whole CSV or JSON document of `table`, newline-terminated."""
    json_text = getattr(args, "format", "csv") == "json"
    try:  # the cells are formatted lazily, as the document is joined
        texts = [_column_texts(cells, json_text) for cells in table.columns.values()]
        if json_text:
            return _json_document(table, texts)
        lines = [f"# {key}={fmt(value)}" for key, value in sorted((table.meta or {}).items())]
        if table.status is not None:
            step = table.status["step"]
            lines.append(f"# status={table.status['kind']}"
                         + ("" if step is None else f" step={step}"))
        lines.append(",".join(table.columns))
        records = map(",".join, zip(*texts))
        body = [next(records, "none")] if table.single else _joined(records, "\n")
        return "".join([*(line + "\n" for line in lines), *body, "\n" if body else ""])
    except ValueError as exc:  # CPython's int->str digit limit, the only ValueError here
        raise DigitLimit(sys.get_int_max_str_digits()) from exc


def _cmd_horadam(args) -> Tuple[int, Table]:
    spec = HoradamSpec(args.a, args.b, args.p, args.q)
    values = horadam_range(spec, args.start, args.stop)
    return EXIT_OK, Table("series", {"n": range(args.start, args.stop + 1), "value": values})


def _cmd_simulate(args) -> Tuple[int, Table]:
    from . import dynamics

    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    plane = dynamics.Plane(args.plane)
    x0 = args.x0 if plane is dynamics.Plane.EXACT else float(args.x0)
    orbit = dynamics.iterate(eq, x0, args.steps, plane,
                             max_digits=sys.get_int_max_str_digits())
    status = {"kind": orbit.status.kind.value, "step": orbit.status.step}
    rc = EXIT_OK if orbit.status.ok else EXIT_SINGULAR
    return rc, Table("series", {"n": range(len(orbit.values)), "value": orbit.values},
                     status=status)


def _cmd_closed_form(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    values = closed_form.closed_form_series(eq, args.x0, args.n)
    return EXIT_OK, Table("series", {"n": range(len(values)), "value": values})


def _cmd_forbidden(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    points = closed_form.forbidden_points(eq, args.depth)
    return EXIT_OK, Table("forbidden", {"m": [pt.m for pt in points],
                                        "value": [pt.value for pt in points]})


def _cmd_products(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    result = closed_form.product_analysis(eq, args.x0, args.steps)
    limit = "divergent" if result.predicted_limit is None else result.predicted_limit
    meta = {"alternating": result.alternating, "predicted_limit": limit,
            "regime": result.regime.value}
    return EXIT_OK, Table("series", {"n": range(len(result.partials)), "value": result.partials},
                          meta=meta)


def _cmd_analyze(args) -> Tuple[int, Table]:
    from . import analysis

    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    reports = [analysis.classify_stability(eq, rep) for rep in analysis.equilibria(eq)]
    return EXIT_OK, Table("equilibria", {
        "value": [r.value for r in reports],
        "multiplier": [r.multiplier for r in reports],
        "classification": [r.classification.value for r in reports],
        "bracket": [r.bracket.value for r in reports]})


def _cmd_period2(args) -> Tuple[int, Table]:
    from . import analysis

    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    cycle = analysis.solve_period_two(eq, args.tol)
    row = () if cycle is None else (cycle.phi, cycle.psi, cycle.residual, *cycle.approx_form)
    names = ("phi", "psi", "residual", "approx_phi", "approx_psi")
    return EXIT_OK, Table("cycle", {name: row[i:i + 1] for i, name in enumerate(names)},
                          single=True)


def _cmd_identities(args) -> Tuple[int, Table]:
    rows = identity_battery(HoradamSpec.canonical(args.p, args.q), args.nmax)
    rc = EXIT_OK if all(worst == 0 for _, _, worst in rows) else EXIT_IDENTITY_FAILURE
    return rc, Table("identities", {"kind": [kind.value for kind, _, _ in rows],
                                    "checks": [checks for _, checks, _ in rows],
                                    "max_abs_residual": [worst for _, _, worst in rows]})


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
    """Parse `argv`, compute, render, and only then write stdout, once."""
    args = build_parser().parse_args(argv)
    try:
        rc, table = args.fn(args)
        document = render(table, args)
    except SingularInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (RatdynError, ValueError, OverflowError) as exc:
        overflow = "float overflow: " if isinstance(exc, OverflowError) else ""
        hint = "; use --plane float" if isinstance(exc, DigitLimit) and "plane" in args else ""
        print(f"error: {overflow}{exc}{hint}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(document)
    return rc


if __name__ == "__main__":
    sys.exit(run())
