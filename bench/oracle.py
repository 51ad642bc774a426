"""Independent output checks for benchmark jobs.

Nothing here imports ratdyn: every expected value comes from plain reference
code (linear recurrence sweeps, direct map iteration, explicit formulas), so a
fast path in the package is judged against arithmetic it does not share.

A job *fails* when it times out, prints a traceback, exits with a code outside
the documented 0/1/2/3, writes stdout before a nonzero exit, exits nonzero
where the reference says the computation succeeds, or prints output that does
not match the reference.  Only the last case makes the output *wrong*.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

FLOAT_REL_TOL = 1e-9  # float orbits, cycle equations, equilibrium residuals
MARGINAL_BAND = 1e-12  # stability classification band documented by the CLI
DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False  # the program printed a result that disagrees with the reference
    reason: str = ""


PASS = Verdict(True)


class Mismatch(Exception):
    """Output disagrees with the reference."""


@contextlib.contextmanager
def unlimited_int_digits():
    """Exact outputs may exceed the default int<->str digit limit; lift it while parsing."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def check(argv: Sequence[str], rc: Optional[int], out: bytes, err: bytes,
          timed_out: bool = False, clean_refusal_ok: bool = False) -> Verdict:
    """Judge one job.  `clean_refusal_ok` accepts exit 2 or 3 with empty stdout
    and no traceback in place of a result (the fixed form of a known defect)."""
    if timed_out:
        return Verdict(False, reason="timeout")
    if b"Traceback (most recent call last)" in err:
        return Verdict(False, reason="traceback")
    if rc not in DOCUMENTED_EXIT_CODES:
        return Verdict(False, reason=f"undocumented exit code {rc}")
    if rc != 0:
        if out:
            return Verdict(False, reason=f"stdout written before exit {rc}")
        if clean_refusal_ok and rc in (2, 3) and err.strip():
            return PASS
        return Verdict(False, reason=f"exit {rc} where the reference succeeds")
    try:
        with unlimited_int_digits():
            _CHECKS[argv[0]](_flags(argv[1:]), out.decode())
    except Mismatch as exc:
        return Verdict(False, wrong=True, reason=str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, wrong=True, reason=f"unparsable output: {exc!r}")
    return PASS


def _flags(args: Sequence[str]) -> Dict[str, str]:
    """`--name value` and `--name=value` options as a dict."""
    flags: Dict[str, str] = {}
    it = iter(args)
    for token in it:
        name, eq, value = token[2:].partition("=")
        flags[name] = value if eq else next(it)
    return flags


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= FLOAT_REL_TOL * max(abs(want), scale, 1e-300)


# ------------------------------------------------------------------ parsing

def _table(text: str, header: str) -> Tuple[Dict[str, str], List[List[str]]]:
    """CSV body under `header`; `# key=value` lines before it become metadata."""
    meta: Dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        for token in lines[i][1:].split():
            key, _, value = token.partition("=")
            meta[key] = value
        i += 1
    _expect(i < len(lines) and lines[i] == header, f"missing header {header!r}")
    return meta, [line.split(",") for line in lines[i + 1:]]


def _series(flags: Dict[str, str], text: str):
    """(meta, status kind, status step, [(n, value text)]) from CSV or JSON."""
    if flags.get("format") == "json":
        payload = json.loads(text)
        status = payload.get("status") or {}
        rows = [(item["n"], item["value"]) for item in payload["series"]]
        return payload.get("meta") or {}, status.get("kind"), status.get("step"), rows
    meta, rows = _table(text, "n,value")
    step = meta.get("step")
    return (meta, meta.get("status"), None if step is None else int(step),
            [(int(n), value) for n, value in rows])


def _exact_rows(rows, want: Sequence[Fraction], first: int = 0) -> None:
    _expect(len(rows) == len(want), f"{len(rows)} rows, reference has {len(want)}")
    for k, ((n, text), value) in enumerate(zip(rows, want)):
        _expect(n == first + k, f"row {k} is labelled {n}")
        _expect(Fraction(text) == value, f"value at n={n} differs from the reference")


# ------------------------------------------------------- reference arithmetic

def horadam_sweep(a, b, p, q, start: int, stop: int) -> List[Fraction]:
    """W(start..stop) by one linear walk: forward from (W0, W1), and backward
    W(n-1) = (W(n+1) - p*W(n)) / q for negative indices."""
    values = {0: a, 1: b}
    lo, hi = min(start, 0), max(stop, 1)
    w0, w1 = a, b
    for n in range(2, hi + 1):
        w0, w1 = w1, p * w1 + q * w0
        values[n] = w1
    w0, w1 = a, b  # W(0), W(1)
    for n in range(-1, lo - 1, -1):
        w0, w1 = (w1 - p * w0) / q, w0
        values[n] = w0
    return [values[n] for n in range(start, stop + 1)]


def _rational_orbit(sign: int, p, q, nu: int, x0: Fraction, steps: int) -> List[Fraction]:
    xs = [x0]
    for _ in range(steps):
        den = xs[-1] ** nu + sign * p
        _expect(den != 0, "reference orbit is singular")
        xs.append(q / den)
    return xs


def _float_orbit(sign: int, p: float, q: float, nu: int, x0: float, steps: int):
    """Orbit values and the step that overflowed or hit a pole (None if none)."""
    xs = [x0]
    for k in range(1, steps + 1):
        try:
            xs.append(q / (xs[-1] ** nu + sign * p))
        except (OverflowError, ZeroDivisionError):
            return xs, k
        if not math.isfinite(xs[-1]):
            xs.pop()
            return xs, k
    return xs, None


def _eq(flags):
    sign = 1 if flags["branch"] == "plus" else -1
    return sign, Fraction(flags["p"]), Fraction(flags["q"]), int(flags.get("nu", 1))


# ------------------------------------------------------------ per subcommand

def _check_horadam(flags, text):
    _, _, _, rows = _series(flags, text)
    start, stop = int(flags["from"]), int(flags["to"])
    want = horadam_sweep(Fraction(flags.get("a", 0)), Fraction(flags.get("b", 1)),
                         Fraction(flags["p"]), Fraction(flags["q"]), start, stop)
    _exact_rows(rows, want, first=start)


def _check_closed_form(flags, text):
    _, _, _, rows = _series(flags, text)
    sign, p, q, _ = _eq(flags)
    _exact_rows(rows, _rational_orbit(sign, p, q, 1, Fraction(flags["x0"]), int(flags["n"])))


def _check_simulate(flags, text):
    _, kind, step, rows = _series(flags, text)
    sign, p, q, nu = _eq(flags)
    steps = int(flags["steps"])
    if flags.get("plane", "exact") == "exact":
        _expect(kind == "completed", f"status {kind!r}, reference completes")
        _exact_rows(rows, _rational_orbit(sign, p, q, nu, Fraction(flags["x0"]), steps))
        return
    xs, stopped = _float_orbit(sign, float(p), float(q), nu, float(Fraction(flags["x0"])), steps)
    if stopped is None:
        _expect(kind == "completed", f"status {kind!r}, reference completes")
    else:
        _expect(kind not in (None, "completed") and step == stopped,
                f"status {kind!r} at {step}, reference leaves the float range at {stopped}")
    _expect(len(rows) == len(xs), f"{len(rows)} rows, reference has {len(xs)}")
    for k, ((n, value), want) in enumerate(zip(rows, xs)):
        _expect(n == k and _close(float(value), want), f"float value at n={n} off the reference")


def _check_forbidden(flags, text):
    if flags.get("format") == "json":
        rows = [(item["m"], item["value"]) for item in json.loads(text)["forbidden"]]
    else:
        rows = [(int(m), v) for m, v in _table(text, "m,value")[1]]
    sign, p, q, _ = _eq(flags)
    depth = int(flags["depth"])
    ws = horadam_sweep(Fraction(0), Fraction(1), p, q, 0, depth + 1)
    _exact_rows(rows, [-sign * ws[m + 1] / ws[m] for m in range(1, depth + 1)], first=1)


def _check_products(flags, text):
    meta, _, _, rows = _series(flags, text)
    sign, p, q, _ = _eq(flags)
    x0 = Fraction(flags["x0"])
    partials, acc = [], Fraction(1)
    for x in _rational_orbit(sign, p, q, 1, x0, int(flags["steps"])):
        acc *= x
        partials.append(acc)
    _exact_rows(rows, partials)
    diff = p - (q - 1)
    if diff > 0:
        want = ("PGreaterQm1", "0", "false")
    elif diff == 0:
        limit = x0 * (q + 1) / (q + x0) if sign > 0 else x0 * (q + 1) / (q - x0)
        want = ("PEqualQm1", str(limit), "false" if sign > 0 else "true")
    else:
        want = ("PLessQm1", "divergent", "false")
    got = (meta.get("regime"), meta.get("predicted_limit"), meta.get("alternating"))
    _expect(got == want, f"product metadata {got}, reference {want}")


def _check_identities(flags, text):
    _, rows = _table(text, "kind,checks,max_abs_residual")
    n = int(flags["nmax"])
    want = {
        "convolution": n * (n - 1) // 2,
        "cassini": n,
        "docagne": n * (n - 1) // 2,
        "johnson": 3 * 8 * 8 * 8,
        "phi_power": n,
    }
    got = {kind: int(count) for kind, count, _ in rows}
    _expect(got == want, f"identity check counts {got}, reference {want}")
    _expect(all(Fraction(res) == 0 for _, _, res in rows), "nonzero identity residual")


def plus_cycle_exists(p: Fraction, q: Fraction, nu: int) -> bool:
    """Exact existence test for a prime two-cycle of x -> q/(p + x**nu), x > 0.

    The map has negative Schwarzian derivative, so a two-cycle exists exactly
    when the equilibrium is unstable, |f'(xbar)| = nu*xbar**(nu+1)/q > 1.
    With t = (q/nu)**(1/(nu+1)) that is xbar > t, i.e. t**(nu+1) + p*t < q,
    which clears to nu**nu * p**(nu+1) < q**nu * (nu-1)**(nu+1).
    """
    return nu > 1 and nu ** nu * p ** (nu + 1) < q ** nu * (nu - 1) ** (nu + 1)


def mixed_cycle_exists(p: Fraction, q: Fraction, nu: int) -> bool:
    """A mixed-sign two-cycle (alpha < 0 < beta) of y -> q/(-p + y**nu) with
    even nu exists for every p, q > 0.

    Put alpha(beta) = -q/(p - beta**nu) for 0 < beta < p**(1/nu) and
    F(beta) = q/(alpha**nu - p) where alpha**nu > p; a root of F(beta) = beta
    is such a cycle.  That set of beta is an interval ending at p**(1/nu).
    At its left end either alpha**nu -> p from above, so F -> +inf, or it is
    beta = 0 with F(0) > 0.  At the right end alpha -> -inf, so
    F(beta) - beta -> -p**(1/nu) < 0.  F is continuous in between, so
    F(beta) - beta changes sign.
    """
    return p > 0 and q > 0 and nu % 2 == 0


def _check_period2(flags, text):
    sign, p, q, nu = _eq(flags)
    if flags.get("format") == "json":
        cycle = json.loads(text)["cycle"]
        row = None if cycle is None else [cycle[k] for k in
                                          ("phi", "psi", "residual", "approx_phi", "approx_psi")]
    else:
        _, rows = _table(text, "phi,psi,residual,approx_phi,approx_psi")
        _expect(len(rows) == 1, f"{len(rows)} result rows")
        row = None if rows[0] == ["none"] else rows[0]
    if sign > 0 or nu % 2 == 1:
        exists = plus_cycle_exists(p, q, nu)
    else:
        exists = mixed_cycle_exists(p, q, nu)
    _expect((row is not None) == exists,
            f"cycle {'missing' if exists else 'reported'}, reference says "
            f"{'one exists' if exists else 'none exists'}")
    if row is None:
        return
    phi, psi, residual, approx_phi, approx_psi = map(float, row)
    pf, qf = float(p), float(q)
    for a, b in ((phi, psi), (psi, phi)):
        scale = max(qf, abs(a * b ** nu), abs(a * pf))
        _expect(_close(a * (sign * pf + b ** nu), qf, scale), "cycle equation not satisfied")
    _expect(abs(phi - psi) > 1e-6 * max(1.0, abs(phi)), "cycle is not prime")
    if sign > 0:
        region = phi > 0 and psi > 0
    elif nu % 2 == 1:
        region = phi < 0 and psi < 0
    else:
        region = min(phi, psi) < 0 < max(phi, psi) and min(phi, psi) ** nu > pf
    _expect(region, "cycle outside the searched region")
    _expect(0.0 <= residual <= FLOAT_REL_TOL * max(qf, 1.0), f"residual {residual}")
    ratio_pow = (qf / pf) ** nu
    if sign > 0:
        want = (qf / pf, qf / (pf + ratio_pow))
    elif nu % 2 == 1:
        want = (-qf / pf, -qf / (pf + ratio_pow))
    else:
        want = (-qf / pf, qf / (ratio_pow - pf) if ratio_pow != pf else math.inf)
    _expect(_close(approx_phi, want[0]) and _close(approx_psi, want[1]),
            "approximate form differs from its formula")


def _check_analyze(flags, text):
    sign, p, q, nu = _eq(flags)
    if flags.get("format") == "json":
        rows = [[r["value"], r["multiplier"], r["classification"], r["bracket"]]
                for r in json.loads(text)["equilibria"]]
    else:
        rows = _table(text, "value,multiplier,classification,bracket")[1]
    if sign > 0 or nu % 2 == 1:
        count = 1
    else:  # the documented q vs p - 1 trichotomy; q = p - 1 reports the root -1 only
        count = 2 if q < p - 1 else 1 if q == p - 1 else 0
    _expect(len(rows) == count, f"{len(rows)} equilibria, reference has {count}")
    pf, qf = float(p), float(q)
    seen = set()
    for value, multiplier, classification, bracket in rows:
        x, m = float(value), float(multiplier)
        _expect(x not in seen, "repeated equilibrium")
        seen.add(x)
        scale = abs(x) ** (nu + 1) + pf * abs(x) + qf
        _expect(abs(x ** (nu + 1) + sign * pf * x - qf) <= FLOAT_REL_TOL * scale,
                f"equilibrium polynomial residual too large at {x}")
        _expect(_close(m, -qf * nu * x ** (nu - 1) / (sign * pf + x ** nu) ** 2),
                f"multiplier {m} differs from the derivative")
        if abs(m) < 1 - MARGINAL_BAND:
            want = "locally_asymptotically_stable"
        elif abs(m) > 1 + MARGINAL_BAND:
            want = "unstable"
        else:
            want = "marginally_stable"
        _expect(classification == want, f"classification {classification}, reference {want}")
        if x > 0:
            where = "at_one" if x == 1.0 else "in_unit_interval" if x < 1 else "beyond_one"
        else:
            where = ("at_minus_one" if x == -1.0 else "in_minus_unit" if x > -1
                     else "below_minus_one")
        _expect(bracket == where, f"bracket {bracket}, reference {where}")


_CHECKS = {
    "horadam": _check_horadam,
    "closed-form": _check_closed_form,
    "simulate": _check_simulate,
    "forbidden": _check_forbidden,
    "products": _check_products,
    "identities": _check_identities,
    "period2": _check_period2,
    "analyze": _check_analyze,
}
