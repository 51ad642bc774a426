"""The near-tangent, mixed and deck scans through both decision paths.

Runs `period2` and `analyze` on every cell of three scans, once as shipped
(floats propose, certified signs decide) and once with the float proposals
off, so that only the certified bisection runs.  It exits 1 on any
difference in exit code, stdout or stderr, or where the sha256 of the
shipped outputs differs from the one pinned in scan_equivalence.sha256, so
any change of the printed bytes fails too.

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


def main() -> int:
    start = time.perf_counter()
    proposed = list(outputs())
    middle = time.perf_counter()
    float_spec = analysis._float_spec
    analysis._float_spec = lambda eq: None  # no float proposal: the certified path alone
    try:
        certified = list(outputs())
    finally:
        analysis._float_spec = float_spec
    end = time.perf_counter()
    differences = [(a, b) for a, b in zip(proposed, certified) if a != b]
    for a, b in differences[:20]:
        print(f"differs: {' '.join(a[0])}\n  proposed:  {a[1:]!r}\n  certified: {b[1:]!r}")
    shipped, pinned = digest(proposed), DIGEST.read_text().strip()
    print(f"{len(proposed)} invocations, {len(differences)} differences "
          f"({middle - start:.1f} s proposed, {end - middle:.1f} s certified only)")
    print(f"sha256 {shipped} ({'matches' if shipped == pinned else 'differs from'} "
          f"{DIGEST.name})")
    return 1 if differences or len(proposed) != len(certified) or shipped != pinned else 0


if __name__ == "__main__":
    sys.exit(main())
