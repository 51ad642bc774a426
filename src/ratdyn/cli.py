"""Command-line interface: deterministic CSV/JSON export of every operation.

Each subcommand returns one `Table`, and `run` writes the rendered document
to stdout once, after it has been computed: a run prints its whole document or
nothing.  `simulate` stopped at a singularity is a complete document with its
`# status=` line and exit 3.  Exit codes: 0 success, 1 failed identity suite,
2 flag errors, a float overflow or underflow, an exact value too large to
print, or a proven two-cycle that floats cannot locate, 3 singular or
forbidden input, 141 (128 + SIGPIPE, as a shell reports a process that
SIGPIPE killed) when the reader of stdout closed it first (also for --help)
or a document finds fd 1 closed at the start, with nothing on stderr.  An
error message that a closed fd 2 cannot take is lost, not its exit code.
Exact rationals render as num/den strings, floats with 17 significant
digits; both round-trip losslessly.

The command line is read from `_COMMANDS`, one table of every subcommand's
handler, help and flags.  `_read` reads its plain form without argparse: the
subcommand, then each of its flags at most once, spelled in full, as
`--flag=value` or as `--flag value` with a value that does not start with
'-' or is '-' and ASCII digits (`--from -284`, which argparse reads as a
value in every supported Python), every required flag given, every value
converted and among its choices.  Anything else (--help, a prefix, a
repeated flag, `--x0 -1/2`, an error) goes whole to `_argparse_parser`,
built from the same table only then, which gives argparse's Namespace, help
and error bytes.  Importing argparse and building its nine parsers takes a
job longer than most jobs compute.  `build_parser().parse_args(argv)` is the
two in turn.

`run` returns the exit code to an in-process caller.  `main`, the entry point
of `ratdyn` and `python -m ratdyn`, ends the process with it as soon as
stdout and stderr are flushed: the interpreter's teardown (~7 ms) would
follow a document already written.

The exact exports (`simulate --plane exact`, `closed-form`, `forbidden`,
`products`) run the library's integer sweeps on integral Decimals under
`_EXACT` and make each value's num/den text as it comes (`_as_texts`), so
no big binary integer is ever converted to decimal: `str(Decimal)` is linear
in the digits, CPython's int->str quadratic.  A value with more digits than
the int->str limit is refused (DigitLimit) before the steps after it.

A table holds columns, not rows.  `render` gives each column of a block one
conversion by the types of its cells (`%d` ints, `%.17g` floats, `%s`
Fractions and the texts of a `_Texts` column, all three quoted in JSON; `%s`
over `fmt` texts otherwise, quoted by `_quote` in JSON, which loads `json`
only for text to escape) and formats up to BLOCK_ROWS rows at a time with
one `%` of the repeated row template, so a long orbit runs no Python code
per cell and only one block's cells are alive beside the document.  A block
whose column repeats two objects in turn, as the tail of an orbit that
`dynamics._record` found periodic, formats those two once, into a two-row
template.  The test is by identity, since 0.0 == -0.0 but they print
differently; a `_Periodic` column, a float orbit of `simulate`, says where
its tail starts and is not tested.

The index of a table, n or m, is formatted by the block, not by the cell,
where it holds two whole decades past 999: its blocks then end where it
crosses a multiple of 1000.  The indices of such a block share k = n // 1000
and differ in their last three digits, so from the second block on with
one row template, count and start digits, the template is cut once around
k with those digits in it (`_cut`), and the block is str(k) joined between
the pieces, then `%` of its other cells if any are left.  A periodic tail
costs one join per 1,000 rows.  The layers are imported by the subcommands
that use them.
"""

from __future__ import annotations

import decimal
import math
import operator
import os
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

from .equation import Branch, EquationSpec
from .errors import DigitLimit, SingularInput
# bench/trace_run.py wraps this module's `horadam_range` and `check_identity`.
from .horadam import HoradamSpec, check_identity, horadam_range, identity_battery  # noqa: F401

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_BROKEN_PIPE = 141

BLOCK_ROWS = 4096  # rows joined at a time by `render`, at most
_DECADE = 1000  # an index's blocks end where it crosses a multiple of this
_NU_MAX = 20000

# Integer arithmetic on decimal digits: a result it would round raises instead.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                decimal.Overflow, decimal.Inexact, decimal.Rounded])


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _bad_value(message: str) -> Exception:
    """argparse's ArgumentTypeError(message).  A value a converter refuses
    sends the command line to argparse, so argparse is loaded only then."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_value(f"not a rational number: {text!r}") from exc


def _bounded_int(text: str, low: int, high: int, bound: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise _bad_value(f"invalid int value: {text!r}") from exc
    if not low <= value <= high:
        raise _bad_value(f"must be {bound}, got {text!r}")
    return value


def _size_arg(text: str) -> int:
    """An index or count: an int at most sys.maxsize in magnitude, as slices need."""
    return _bounded_int(text, -sys.maxsize, sys.maxsize, "at most sys.maxsize in magnitude")


def _nu_arg(text: str) -> int:
    """An exponent from 1 to _NU_MAX.  An exact power costs ~53*nu bits, and
    far above the bound one takes minutes or exhausts memory."""
    return _bounded_int(text, 1, _NU_MAX, f"an int from 1 to {_NU_MAX}")


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise _bad_value(f"must be a finite positive number, got {text!r}")
    return value


def _branch_arg(text: str) -> Branch:
    try:
        return Branch(text)
    except ValueError as exc:
        raise _bad_value("branch must be 'plus' or 'minus'") from exc


class _Texts(list):
    """A column of the num/den texts `_as_texts` makes.  They hold only
    digits, '-' and '/', so `render` formats them as the Fractions they
    spell: a JSON cell is the text in quotes, with nothing to escape."""


class _Periodic(list):
    """A float orbit's values whose rows from `tail` on repeat the objects
    at tail and tail + 1 in turn, as `dynamics._record` filled them."""

    tail: int


class Table(NamedTuple):
    """One subcommand's result, held by column.  `columns` maps each column
    name, in CSV order, to its cells: sliceable sequences of one length, such
    as a `range` beside a layer's list, cut a block at a time into the row
    template.  The rows form a JSON array under `key`; with `single` there is
    at most one row, a JSON object, and none is `null` in JSON and `none` in
    CSV.  `meta` and `status` add `#` lines or JSON keys."""

    key: str
    columns: Dict[str, Sequence]
    single: bool = False
    meta: Optional[dict] = None
    status: Optional[dict] = None


def _quote(text: str) -> str:
    """json.dumps(text): printable ASCII without '"' or '\\' in quotes as it
    is, any other text through json's encoder, which only then is loaded."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(text)


def _json_object(members: dict) -> str:
    """json.dumps(members, sort_keys=True) for str keys and str, int or None values."""
    return "{%s}" % ", ".join(
        "%s: %s" % (_quote(key), "null" if value is None else value if type(value) is int
                    else _quote(value))
        for key, value in sorted(members.items()))


def _conversion(kinds: set, json_text: bool):
    """(conv, text) for cells of the types `kinds`: the `%` conversion of a
    cell, and the function applied to each cell first, or None."""
    if kinds == {int}:
        return "%d", None
    if kinds == {float} or kinds == {Fraction}:
        conv = "%.17g" if kinds == {float} else "%s"
        return (f'"{conv}"' if json_text else conv), None
    # an int stays a JSON number, any other cell a string
    return "%s", (lambda v: str(v) if type(v) is int else _quote(fmt(v))) if json_text else fmt


def _cut(template: str, low: int, count: int, convert: bool) -> List[str]:
    """The pieces of `template`, `count` rows whose index is '%i', around
    the index's leading digits k: a block whose index runs from 1000*k + low
    is str(k).join(pieces), then `%` of its other cells if `convert`, else
    with '%%' already undone.  [] where a cell's own text holds '%i' or NUL."""
    if template.count("%i") != count:
        return []
    # '%' doubled, one `%` puts NUL and the last three digits where each index was
    text = template.replace("%", "%%").replace("%%i", "\0%03i") % tuple(range(low, low + count))
    cut = (text if convert else text % ()).split("\0")
    return cut if len(cut) == count + 1 else []


def _row_blocks(table: Table, json_text: bool) -> List[str]:
    """Pieces whose concatenation is every row of `table`: CSV lines joined by
    newlines, or JSON records (keys sorted) joined by ", ".  A JSON cell that
    is not an int is a quoted string."""
    columns = [(f"{_quote(name).replace('%', '%%')}: " if json_text else "", cells,
                cells.tail if type(cells) is _Periodic else None)
               for name, cells in (sorted if json_text else list)(table.columns.items())]
    rows = min(map(len, table.columns.values()), default=0)
    # The index, n or m, is the first range of step 1.  Where it holds two
    # whole decades k >= 1, a template cut at k serves again, so its blocks
    # end where it crosses a multiple of 1000; elsewhere it is an int column.
    index = next((cells for _, cells, _ in columns
                  if type(cells) is range and cells.step == 1), None)
    if index is not None and (not rows or (index[rows - 1] + 1) // _DECADE
                              - max(-(-index[0] // _DECADE), 1) < 2):
        index = None
    tails = [tail for _, _, tail in columns if tail is not None]
    sep = ", " if json_text else "\n"
    pieces: List[str] = []
    key = template = None  # the last block's row templates and count, and its template
    seen, cuts = set(), {}  # each block's (key, low); _cut of a template's second use
    start = k = 0
    while start < rows:
        count = min(BLOCK_ROWS, rows - start)
        if index is not None:
            k, low = divmod(index[start], _DECADE)
            count = min(count, _DECADE - low)
        for tail in tails:  # a periodic tail starts a block
            if start < tail < start + count:
                count = tail - start
        parts, fields = [], ([], [])  # the cells to convert; the even and odd rows' fields
        for head, column, tail in columns:
            if column is index:
                at = len(parts)
                parts.append(column[start:start + count])
                for row in fields:
                    row.append(head + "%i")
                continue
            # Two objects in turn, as the tail of an orbit that dynamics._record
            # found periodic, are each formatted once, into their row of a
            # two-row template.  By identity, not value: 0.0 == -0.0.  The
            # tail of a `_Periodic` column is known, and not tested.
            if tail is not None and count > 2 and start >= tail:
                part, pair = column[start:start + 2], True
            else:
                part = column[start:start + count]
                pair = tail is None and count > 2 and all(map(operator.is_, part[2:], part))
            if type(part) is range:
                kinds = {int}
            elif type(column) is _Texts:
                kinds = {Fraction}  # the texts str(Fraction) prints: formatted alike
            else:
                kinds = set(map(type, part[:2] if pair else part))
            conv, text = _conversion(kinds, json_text)
            if pair:
                for row, cell in zip(fields, part):
                    field = (head + conv) % (cell if text is None else text(cell),)
                    row.append(field.replace("%", "%%"))
                continue
            parts.append(part if text is None else map(text, part))
            for row in fields:
                row.append(head + conv)
        rows_of = tuple("{" + ", ".join(row) + "}" if json_text else ",".join(row)
                        for row in fields)
        if key != (rows_of, count):
            key, template = (rows_of, count), sep.join((rows_of * (count // 2 + 1))[:count])
        block, cut = template, None
        if k > 0:  # each index of the block is str(k), then three digits
            cut = cuts.get((key, low))
            if cut is None and (key, low) in seen:
                cut = cuts[key, low] = _cut(template, low, count, len(parts) > 1)
            seen.add((key, low))
        if cut:
            del parts[at]
            block = str(k).join(cut)
        if parts or not cut:  # a cut without other cells to convert has no '%' left
            flat = [None] * (count * len(parts))  # the cells to convert, row by row
            for i, part in enumerate(parts):
                flat[i::len(parts)] = part
            block %= tuple(flat)
        pieces += [sep, block] if pieces else [block]
        start += count
    return pieces


def _json_document(table: Table, rows: List[str]) -> str:
    """The bytes of `json.dumps(payload, sort_keys=True)`, around `rows`."""
    members = {table.key: (rows or ["null"]) if table.single else ["[", *rows, "]"]}
    if table.status is not None:
        members["status"] = [_json_object(table.status)]
    if table.meta:
        members["meta"] = [_json_object({key: fmt(value) for key, value in table.meta.items()})]
    document = []
    for key, value in sorted(members.items()):
        document += [", " if document else "{", _quote(key), ": ", *value]
    document.append("}\n")
    return "".join(document)


def render(table: Table, args) -> str:
    """The whole CSV or JSON document of `table`, newline-terminated."""
    json_text = getattr(args, "format", "csv") == "json"
    try:
        rows = _row_blocks(table, json_text)
        if json_text:
            return _json_document(table, rows)
        lines = [f"# {key}={fmt(value)}" for key, value in sorted((table.meta or {}).items())]
        if table.status is not None:
            step = table.status["step"]
            lines.append(f"# status={table.status['kind']}"
                         + ("" if step is None else f" step={step}"))
        lines.append(",".join(table.columns))
        body = rows or (["none"] if table.single else [])
        return "".join([*(line + "\n" for line in lines), *body, "\n" if body else ""])
    except ValueError as exc:  # CPython's int->str digit limit, the only ValueError here
        raise DigitLimit(sys.get_int_max_str_digits()) from exc


def _cmd_horadam(args) -> Tuple[int, Table]:
    spec = HoradamSpec(args.a, args.b, args.p, args.q)
    values = horadam_range(spec, args.start, args.stop)
    return EXIT_OK, Table("series", {"n": range(args.start, args.stop + 1), "value": values})


def _as_texts(sweep, *args):
    """sweep(*args, Decimal, make) under _EXACT, an exact sweep of the library
    run on integral Decimals.  make(n, d) is the text str(Fraction) prints for
    a reduced pair n/d, n or n/d, and raises DigitLimit where n or d has more
    digits than CPython's int->str limit (0: none)."""
    limit = sys.get_int_max_str_digits()
    top = limit - 1 if limit else decimal.MAX_EMAX  # the largest adjusted() that prints

    def make(n: Decimal, d: Decimal) -> str:
        if n.adjusted() > top or d.adjusted() > top:
            raise DigitLimit(limit)
        return str(n) if d == 1 else "%s/%s" % (n, d)

    with decimal.localcontext(_EXACT):
        return sweep(*args, Decimal, make)


def _cmd_simulate(args) -> Tuple[int, Table]:
    from . import dynamics

    eq = EquationSpec(args.branch, args.p, args.q, args.nu)
    if args.plane == "exact":
        values, status = _as_texts(dynamics._exact_orbit, eq, args.x0, args.steps)
        values = _Texts(values)
    else:
        x = float(args.x0)
        values = _Periodic([x])
        _, status, values.tail = dynamics._record(values, dynamics._float_values(eq, x),
                                                  args.steps, dynamics.StatusKind.NEAR_SINGULAR)
    rc = EXIT_OK if status.ok else EXIT_SINGULAR
    return rc, Table("series", {"n": range(len(values)), "value": values},
                     status={"kind": status.kind.value, "step": status.step})


def _cmd_closed_form(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    values = _Texts(_as_texts(closed_form._series, eq, args.x0, args.n))
    return EXIT_OK, Table("series", {"n": range(len(values)), "value": values})


def _cmd_forbidden(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    values = _Texts(_as_texts(closed_form._forbidden_values, eq, args.depth))
    return EXIT_OK, Table("forbidden", {"m": range(1, len(values) + 1), "value": values})


def _cmd_products(args) -> Tuple[int, Table]:
    from . import closed_form

    eq = EquationSpec(args.branch, args.p, args.q, 1)
    regime, limit, alternating = closed_form._product_limit(eq, args.x0, args.steps)
    partials = _Texts(_as_texts(closed_form._partial_products, eq, args.x0, args.steps))
    meta = {"alternating": alternating, "predicted_limit": "divergent" if limit is None else limit,
            "regime": regime.value}
    return EXIT_OK, Table("series", {"n": range(len(partials)), "value": partials}, meta=meta)


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


def _flag(spelling: str, dest: str, **options) -> Tuple[str, dict]:
    """A flag: its spelling, and argparse's `add_argument` keywords for it:
    dest, and any of type (the converter of its text), required, default,
    choices and help."""
    return spelling, dict(dest=dest, **options)


def _common(branch=True, nu=False, fmt_flag=True) -> tuple:
    flags = [_flag("--branch", "branch", type=_branch_arg, required=True)] if branch else []
    flags += [_flag("--p", "p", type=_fraction_arg, required=True),
              _flag("--q", "q", type=_fraction_arg, required=True)]
    if nu:
        flags.append(_flag("--nu", "nu", type=_nu_arg, default=1, help=f"exponent, 1 to {_NU_MAX}"))
    if fmt_flag:
        flags.append(_flag("--format", "format", choices=("csv", "json"), default="csv"))
    return tuple(flags)


# Each subcommand's handler, help and flags, in the order of `ratdyn --help`
# and of each usage line.
_COMMANDS: Dict[str, Tuple[Callable, str, tuple]] = {
    "horadam": (
        _cmd_horadam, "recurrence values W(n) over an index range",
        _common(branch=False) + (
            _flag("--a", "a", type=_fraction_arg, default=Fraction(0)),
            _flag("--b", "b", type=_fraction_arg, default=Fraction(1)),
            _flag("--from", "start", type=_size_arg, required=True),
            _flag("--to", "stop", type=_size_arg, required=True))),
    "simulate": (
        _cmd_simulate, "iterate an orbit and emit the series",
        _common(nu=True) + (
            _flag("--x0", "x0", type=_fraction_arg, required=True),
            _flag("--steps", "steps", type=_size_arg, required=True),
            _flag("--plane", "plane", choices=("exact", "float"), default="exact"))),
    "closed-form": (
        _cmd_closed_form, "nu=1 series straight from the closed form",
        _common() + (
            _flag("--x0", "x0", type=_fraction_arg, required=True),
            _flag("--n", "n", type=_size_arg, required=True))),
    "forbidden": (
        _cmd_forbidden, "forbidden initial conditions by depth (nu=1)",
        _common() + (
            _flag("--depth", "depth", type=_size_arg, required=True),)),
    "products": (
        _cmd_products, "partial products with regime and limit (nu=1)",
        _common() + (
            _flag("--x0", "x0", type=_fraction_arg, required=True),
            _flag("--steps", "steps", type=_size_arg, required=True))),
    "analyze": (
        _cmd_analyze, "equilibria with multipliers and stability",
        _common(nu=True)),
    "period2": (
        _cmd_period2, "prime two-cycle, if one exists",
        _common(nu=True) + (
            _flag("--tol", "tol", type=_tol_arg, default=1e-10, help="bisects to width "
                  "min(tol, 1e-12): any tol >= 1e-12 prints the default"),)),
    "identities": (
        _cmd_identities, "exact identity battery; exit 1 on any failure",
        _common(branch=False, fmt_flag=False) + (
            _flag("--nmax", "nmax", type=_size_arg, required=True),)),
}


def _read(argv: List[str]) -> Optional[SimpleNamespace]:
    """The attributes of argparse's Namespace for the plain form of `argv`
    (see the module docstring), or None for any other argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    fn, _, flags = command
    unread = dict(flags)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        spelling, joined, value = token.partition("=")
        options = unread.pop(spelling, None)
        if options is None:  # not a flag of the command, or given before
            return None
        if not joined:
            value = next(tokens, "-")
            # argparse reads '-' and ASCII digits as a value, and every other
            # token that starts with '-' as a flag in some Python version
            if value.startswith("-") and not (value[1:].isascii() and value[1:].isdigit()):
                return None
        if "type" in options:
            try:
                value = options["type"](value)
            except Exception:  # argparse reports it, or raises it again
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[options["dest"]] = value
    for options in unread.values():
        if options.get("required"):
            return None
        values[options["dest"]] = options.get("default")
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def _argparse_parser():
    """The argparse parser of _COMMANDS, for --help and every command line
    that `_read` declines: its Namespace, its usage and its error bytes."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, whose help into a closed stdout exits 141.
        argparse ignores a failed write, which drops the error where stdout
        is unbuffered (-u); a buffered stdout keeps the help for `main`'s
        flush to fail on."""

        def print_help(self, file=None):
            file = file or sys.stdout
            if file is not None:  # None where fd 1 was closed at startup
                try:
                    file.write(self.format_help())
                except BrokenPipeError:
                    self.exit(EXIT_BROKEN_PIPE)

    parser = _Parser(
        prog="ratdyn",
        description="Orbit, closed-form and stability data for x(n+1) = q/(±p + x(n)^nu).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for spelling, options in flags:
            sp.add_argument(spelling, **options)
        sp.set_defaults(fn=fn)
    return parser


class _CommandLine:
    """What `build_parser` returns: `parse_args(argv)` is `_read(argv)`, or
    where that declines, the argparse parser's `parse_args(argv)`."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _read(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


def build_parser() -> _CommandLine:
    return _CommandLine()


def _error(message: str) -> None:
    """Print `message` to stderr.  Where fd 2 is closed the message is lost,
    but not the exit code that goes with it."""
    try:
        if sys.stderr is not None:  # print(file=None) would write to stdout
            print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass


def run(argv=None) -> int:
    """Parse `argv`, compute, render, and only then write stdout, once."""
    args = build_parser().parse_args(argv)
    try:
        rc, table = args.fn(args)
        document = render(table, args)
    except SingularInput as exc:
        _error(str(exc))
        return EXIT_SINGULAR
    except (OverflowError, ZeroDivisionError) as exc:  # a float past either end of its range
        what = ("overflow: a value exceeds" if isinstance(exc, OverflowError)
                else "underflow: a nonzero value rounds to zero in")
        _error(f"float {what} the float range")
        return EXIT_USAGE
    except ValueError as exc:
        plane = isinstance(exc, DigitLimit) and hasattr(args, "plane")
        hint = "; use --plane float" if plane else ""
        _error(f"{exc}{hint}")
        return EXIT_USAGE
    if sys.stdout is None:  # fd 1 closed at startup: no reader to write to
        return EXIT_BROKEN_PIPE
    try:
        sys.stdout.write(document)
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    return rc


def main(argv=None) -> NoReturn:
    """The process entry point: `run`, with argparse's SystemExit (--help or
    a flag error) as its exit code, then flush stdout and stderr and end the
    process at once, without the interpreter's teardown.  A closed stdout
    is exit 141 with nothing on stderr; any other exception propagates."""
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse's, with an int code
        rc = exc.code
    try:
        if sys.stdout is not None:  # None where fd 1 was closed at startup
            sys.stdout.flush()
    except BrokenPipeError:
        rc = EXIT_BROKEN_PIPE
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # fd 2 closed: what was printed there is lost, not the exit code
        pass
    os._exit(rc)


if __name__ == "__main__":
    main()
