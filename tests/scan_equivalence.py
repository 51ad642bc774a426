"""The near-tangent, mixed and deck scans: both decision paths, nearest floats.

Runs `period2` and `analyze` on every cell of three scans, once as shipped
(floats propose, certified signs decide) and once with the float proposals
off, so that only the certified bisection runs.  It exits 1 on any
difference in exit code, stdout or stderr, where the sha256 of the shipped
outputs differs from the one pinned in scan_equivalence.sha256, so any
change of the printed bytes fails too, or where a printed cycle point is not
the float nearest the exact one.  That check is exact and written here,
with no ratdyn predicate: x*(f(x)**nu + sign*p) - q, which has no pole where
x**nu + sign*p != 0 and changes sign at each cycle point (extended past the
mixed region's edge by its sign at the edge), must change sign between the
midpoints to the point's two float neighbours, or be 0 at it.
It also lists each `period2` invocation that exits 2, and prints each
pass's time beside the number of certified signs it took.

- Near-tangent scan (2,240 cells): nu 2-12, p in {1, 2, 3, 1/2, 5/3} and
  q = Fraction(q*)*(1 +- 10**-e) for e = 3..16, where q* is the float
  tangency value of nu^nu p^(nu+1) = q^nu (nu-1)^(nu+1); the plus branch,
  and the minus branch at odd nu.
- Mixed scan (504 cells): the minus branch at even nu in {2,4,6,8,10,20},
  p = 10**0..10**20 and q in {1/1000, 1, 7, 1000}.
- Deck scan (562 cells): bench/jobs.py's cycle cells at nu 5-48 on plus and
  odd nu on minus, and its mixed cells at even nu 2-40 on minus.

The pinned digest is the same on Python 3.10-3.13.  Its name does not match
test_*.py, so pytest does not collect it.  Run it from a checkout:

    PYTHONPATH=src python tests/scan_equivalence.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from ratdyn import analysis, cli


def near_tangent_cells():
    for nu in range(2, 13):
        for p in (1, 2, 3, Fraction(1, 2), Fraction(5, 3)):
            tangent = nu * float(p) ** ((nu + 1) / nu) / (nu - 1) ** ((nu + 1) / nu)
            for e in range(3, 17):
                for sign in (1, -1):
                    q = Fraction(tangent) * (1 + sign * Fraction(1, 10 ** e))
                    for branch in ("plus", "minus") if nu % 2 else ("plus",):
                        yield branch, p, q, nu


def mixed_cells():
    for nu in (2, 4, 6, 8, 10, 20):
        for e in range(21):
            for q in (Fraction(1, 1000), 1, 7, 1000):
                yield "minus", 10 ** e, q, nu


# bench/jobs.py's cycle cells (p, q), two-cycle for every nu >= 6 (its
# _CYCLE_CELLS and _CHEAP_CYCLE_CELLS), and its mixed cells (_MIXED_CELLS).
DECK_CYCLE_CELLS = ((1, 4), (3, 5), (2, 7), (1, 3), (1, 1), (1, 2), (2, 3))
DECK_MIXED_CELLS = ((3, 1), (2, 1), (4, 1), (3, 2), (5, 2))


def deck_cells():
    for p, q in DECK_CYCLE_CELLS:
        for nu in range(5, 49):
            for branch in ("plus", "minus") if nu % 2 else ("plus",):
                yield branch, p, q, nu
    for p, q in DECK_MIXED_CELLS:
        for nu in range(2, 41, 2):
            yield "minus", p, q, nu


def outputs():
    """(argv, exit code, stdout, stderr) of every scan invocation."""
    for branch, p, q, nu in (*near_tangent_cells(), *mixed_cells(), *deck_cells()):
        for command in ("period2", "analyze"):
            argv = [command, "--branch", branch, "--p", str(p), "--q", str(q), "--nu", str(nu)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            yield argv, code, out.getvalue(), err.getvalue()


DIGEST = Path(__file__).with_name("scan_equivalence.sha256")


def digest(results) -> str:
    """sha256 over one JSON line [argv, exit code, stdout, stderr] per invocation."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(json.dumps(result).encode() + b"\n")
    return sha.hexdigest()


def _cycle_sign(argv, x: Fraction) -> int:
    """Sign of x*(f(x)**nu + sign*p) - q, f(x) = q/(x**nu + sign*p), in
    Fractions.  In the mixed region (even nu on minus) x**nu > p for x < 0
    and x**nu < p for x > 0; past that edge, where a second cycle of the map
    can lie within a float of it, the sign is the one inside next to the
    edge, -1 for x < 0 and +1 for x > 0, as the expression tends to -inf and
    +inf there."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    sign = 1 if flags["--branch"] == "plus" else -1
    p, q, nu = Fraction(flags["--p"]), Fraction(flags["--q"]), int(flags["--nu"])
    den = x ** nu + sign * p
    if sign < 0 and nu % 2 == 0 and (den if x < 0 else -den) <= 0:
        return 1 if x > 0 else -1
    value = x * ((q / den) ** nu + sign * p) - q
    return (value > 0) - (value < 0)


def is_nearest_float(argv, x: float) -> bool:
    """Whether the exact cycle point lies within half a float of x: the
    sign changes between the midpoints to x's float neighbours, or is 0 at x."""
    below, above = ((Fraction(x) + Fraction(math.nextafter(x, end))) / 2
                    for end in (-math.inf, math.inf))
    return (_cycle_sign(argv, Fraction(x)) == 0
            or _cycle_sign(argv, below) * _cycle_sign(argv, above) < 0)


def misses(results):
    """(argv, point) of every printed cycle point that is not the nearest float."""
    for argv, code, out, _ in results:
        lines = out.splitlines()
        if argv[0] == "period2" and code == 0 and lines[1] != "none":
            for x in map(float, lines[1].split(",")[:2]):
                if not is_nearest_float(argv, x):
                    yield argv, x


def counted_outputs():
    """(list(outputs()), how many certified signs it took), counted through
    a wrapper of analysis._certified_sign."""
    count, certify = 0, analysis._certified_sign

    def counting(*args):
        nonlocal count
        count += 1
        return certify(*args)

    analysis._certified_sign = counting
    try:
        return list(outputs()), count
    finally:
        analysis._certified_sign = certify


def main() -> int:
    start = time.perf_counter()
    proposed, proposed_signs = counted_outputs()
    middle = time.perf_counter()
    float_spec = analysis._float_spec
    analysis._float_spec = lambda eq: None  # no float proposal: the certified path alone
    try:
        certified, certified_signs = counted_outputs()
    finally:
        analysis._float_spec = float_spec
    end = time.perf_counter()
    differences = [(a, b) for a, b in zip(proposed, certified) if a != b]
    for a, b in differences[:20]:
        print(f"differs: {' '.join(a[0])}\n  proposed:  {a[1:]!r}\n  certified: {b[1:]!r}")
    missed = list(misses(proposed))
    for argv, x in missed[:20]:
        print(f"not the nearest float: {x!r} of {' '.join(argv)}")
    refused = [(argv, err) for argv, code, _, err in proposed if argv[0] == "period2" and code == 2]
    for argv, err in refused:
        print(f"exit 2: {' '.join(argv)}: {err.strip()}")
    shipped, pinned = digest(proposed), DIGEST.read_text().strip()
    print(f"{len(proposed)} invocations, {len(differences)} differences, {len(missed)} cycle "
          f"points not the nearest float, {len(refused)} period2 exits 2 "
          f"({middle - start:.1f} s and {proposed_signs} certified signs proposed, "
          f"{end - middle:.1f} s and {certified_signs} certified only)")
    print(f"sha256 {shipped} ({'matches' if shipped == pinned else 'differs from'} "
          f"{DIGEST.name})")
    failed = differences or missed or len(proposed) != len(certified) or shipped != pinned
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
