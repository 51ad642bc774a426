"""Seeded job decks for the three benchmark workloads.

A *job* is one `python -m ratdyn <subcommand> ...` invocation.  A workload is
an endless sequence of *rounds*; every round holds one job per stratum slot,
drawn fresh from the seeded generator and shuffled.  Each stratum draws its
parameters from a short list of choices of similar cost, so every seed does
comparable work in each stratum, and a run made of whole rounds always has the
same mix of job kinds.

Growth pairs (`pair` set) run the same parameters at a base size and at about
four times that size; the traced run turns them into log-log slopes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

WORKLOADS = ("recurrence", "cycles", "orbits")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `argv` excludes the program name."""

    stratum: str
    argv: Tuple[str, ...]
    pair: str = ""  # growth-pair id shared by the two sizes; "" when unpaired
    size: int = 0  # n (recurrence) or nu (cycles) of a growth-pair member
    defect: bool = False  # known defect: scored, expected to fail at the seed


def _r(value) -> str:
    return str(Fraction(value))


def _fmt(rng: random.Random) -> Tuple[str, ...]:
    return ("--format", "json") if rng.random() < 0.5 else ()


# ---------------------------------------------------------------- recurrence

def _recurrence_round(rng: random.Random, tag: str) -> List[Job]:
    jobs: List[Job] = []

    def pair(stratum, base_args, start_of, stop_of, n):
        for size in (n, 4 * n):
            argv = ("horadam",) + base_args + (
                "--from", str(start_of(size)), "--to", str(stop_of(size))) + _fmt(rng)
            jobs.append(Job(stratum, argv, pair=f"{tag}:{stratum}", size=size))

    p, q = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    pair("horadam.forward", ("--p", _r(p), "--q", _r(q)),
         lambda s: 0, lambda s: s, rng.randint(70, 80))
    p, q = rng.choice((1, 2, 3)), rng.choice((1, 2))
    pair("horadam.backward", ("--p", _r(p), "--q", _r(q)),
         lambda s: -s, lambda s: 0, rng.randint(70, 80))
    seeds = ("--a=" + rng.choice(("1/3", "-2", "3/4", "5")),
             "--b", rng.choice(("5", "1/2", "-1", "7/3")),
             "--p", rng.choice(("3/2", "1/2", "5/3", "2")),
             "--q", rng.choice(("2", "1/3", "3/4", "1")))
    pair("horadam.seeded", seeds, lambda s: 0, lambda s: s, rng.randint(35, 40))

    for branch in ("plus", "minus"):
        x0 = Fraction(rng.choice((3, "1/2", "7/3", 5, "2/5")))
        if branch == "minus":  # negative y0 is never forbidden on the minus branch
            x0 = -x0
        jobs.append(Job("closed_form", (
            "closed-form", "--branch", branch, "--p", _r(rng.choice((1, 2, 3))),
            "--q", _r(rng.randint(1, 7)), f"--x0={x0}",
            "--n", str(rng.randint(90, 110))) + _fmt(rng)))
    for _ in range(2):
        jobs.append(Job("identities", (
            "identities", "--p", _r(rng.choice((1, 2, 3))),
            "--q", _r(rng.choice((1, 2, 3))), "--nmax", str(rng.randint(11, 13)))))
    return jobs


# -------------------------------------------------------------------- cycles

# Plus-branch cells (p, q) with a prime two-cycle for every nu >= 6 (mirrored,
# also on the minus branch with odd nu).  The period-two search costs about the
# same on each of them at nu ~ 45; (1, 2) and (2, 3) cost ten times less and
# serve only the small-nu stratum.
_CYCLE_CELLS = ((1, 4), (3, 5), (2, 7), (1, 3), (1, 1))
_CHEAP_CYCLE_CELLS = ((1, 2), (2, 3))
# Cells with no two-cycle for any nu.  On the first the search scans its whole
# grid; on the second, for nu above ~50, the equilibrium already lies at or
# beyond q/p and the search stops at once.
_NO_CYCLE_CELLS_SEARCHED = ((4, 3), (3, 1), (3, 2))
_NO_CYCLE_CELLS_EARLY = ((2, 1), (5, 2))
_TANGENCY_CELLS = ((1, 2, 2), (2, 3, 3), (3, 4, 4))  # nu = p + 1: must print none
_MIXED_CELLS = ((3, 1), (2, 1), (4, 1), (3, 2), (5, 2))


def _cycles_round(rng: random.Random, tag: str) -> List[Job]:
    jobs: List[Job] = []

    def period2(stratum, branch, p, q, nu, **kw):
        return Job(stratum, ("period2", "--branch", branch, "--p", _r(p), "--q", _r(q),
                             "--nu", str(nu)) + _fmt(rng), **kw)

    def pair(stratum, branch, cells, nu, big):
        p, q = rng.choice(cells)
        for size in (nu, big):
            jobs.append(period2(stratum, branch, p, q, size, pair=f"{tag}:{stratum}", size=size))

    # The three growth pairs cost about the same at their larger size.
    pair("period2.plus", "plus", _CYCLE_CELLS, 12, 48)
    pair("period2.minus_odd", "minus", _CYCLE_CELLS, 11, 45)
    pair("period2.minus_even", "minus", _MIXED_CELLS, 10, 40)

    for branch, cells, nus in (("plus", _NO_CYCLE_CELLS_SEARCHED, (2, 30)),
                               ("minus", _NO_CYCLE_CELLS_EARLY, (55, 100))):
        p, q = rng.choice(cells)
        nu = rng.randint(*nus)
        if branch == "minus" and nu % 2 == 0:
            nu += 1
        jobs.append(period2("period2.none", branch, p, q, nu))
    p, q, nu = rng.choice(_TANGENCY_CELLS)
    jobs.append(period2("period2.tangency", "plus", p, q, nu))
    p, q = rng.choice(_CYCLE_CELLS + _CHEAP_CYCLE_CELLS)
    jobs.append(period2("period2.small", rng.choice(("plus", "minus")), p, q,
                        rng.choice((5, 7, 9, 11))))
    p, q = rng.choice(_MIXED_CELLS)
    jobs.append(period2("period2.small", "minus", p, q, rng.choice((2, 4, 6, 8))))

    def analyze(branch, p, q, nu):
        jobs.append(Job("analyze", ("analyze", "--branch", branch, "--p", _r(p), "--q", _r(q),
                                    "--nu", str(nu)) + _fmt(rng)))

    analyze("plus", rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 100))
    analyze("minus", rng.randint(1, 4), rng.randint(1, 6), 2 * rng.randint(0, 49) + 1)
    # Minus branch, even nu: two, one or no equilibria as q <, =, > p - 1.  The
    # q > p - 1 cells stay clear of the band just above p - 1 where the
    # polynomial has negative roots outside the documented contract.
    p = rng.randint(4, 7)
    analyze("minus", p, rng.choice((p - 1, rng.randint(1, p - 2), p + rng.randint(1, 3))),
            2 * rng.randint(1, 50))
    return jobs


# -------------------------------------------------------------------- orbits

# The two defects reproduced at the seed; scored, never resized or re-seeded.
DEFECT_EXACT = ("simulate", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "2",
                "--x0", "3", "--steps", "14")
DEFECT_FLOAT = ("simulate", "--branch", "plus", "--p", "1", "--q", "1", "--nu", "200",
                "--x0", "100", "--steps", "100", "--plane", "float")


def _orbits_round(rng: random.Random, tag: str) -> List[Job]:
    jobs: List[Job] = []

    def positive_x0(branch, choices):
        x0 = Fraction(rng.choice(choices))
        return x0 if branch == "plus" else -x0

    # Two long float exports, one per format, make up 2/15 of a round, so the
    # 90th percentile falls inside this class instead of at its edge.
    for fmt in ((), ("--format", "json")):
        branch = rng.choice(("plus", "minus"))
        nu = rng.choice((2, 3, 4, 5, 6))
        if branch == "minus" and nu % 2 == 0:  # mirrored plus orbit needs odd nu
            nu += 1
        jobs.append(Job("simulate.float", (
            "simulate", "--branch", branch, "--p", _r(rng.choice((1, 2, 3))),
            "--q", _r(rng.choice((1, 2, 3, 5))), "--nu", str(nu),
            "--x0=" + _r(positive_x0(branch, ("1.001", "1/2", "2", "3/2"))),
            "--steps", str(rng.randint(95000, 105000)), "--plane", "float") + fmt))
    for _ in range(3):
        branch = rng.choice(("plus", "minus"))
        jobs.append(Job("simulate.exact", (
            "simulate", "--branch", branch, "--p", _r(rng.choice((1, 2, 3))),
            "--q", _r(rng.randint(1, 7)), "--nu", "1",
            "--x0=" + _r(positive_x0(branch, (3, "1/2", "7/3", 5))),
            "--steps", str(rng.randint(1800, 2200))) + _fmt(rng)))
    # Exact nu = 2, 3: operands double or triple in length every step; the
    # step counts keep the last iterate below 2000 digits for every choice.
    for nu, steps in ((2, rng.choice((9, 10))), (3, rng.choice((5, 6)))):
        jobs.append(Job("simulate.exact_growth", (
            "simulate", "--branch", "plus", "--p", _r(rng.choice((1, 2, 3))),
            "--q", _r(rng.choice((1, 2, 5))), "--nu", str(nu),
            "--x0", _r(rng.choice((3, 2, "5/2", "4/3"))), "--steps", str(steps)) + _fmt(rng)))
    for _ in range(3):
        jobs.append(Job("forbidden", (
            "forbidden", "--branch", rng.choice(("plus", "minus")),
            "--p", _r(rng.choice((1, 2, 3))), "--q", _r(rng.choice((1, 2, 3))),
            "--depth", str(rng.randint(1800, 2200))) + _fmt(rng)))
    for p, q in rng.sample(((2, 1), (3, 2), (1, 2), (2, 3), ("1/2", 2), (1, 3)), 3):
        branch = rng.choice(("plus", "minus"))
        jobs.append(Job("products", (
            "products", "--branch", branch, "--p", _r(p), "--q", _r(q),
            "--x0=" + _r(positive_x0(branch, (9, 2, "1/2", "7/3"))),
            "--steps", str(rng.randint(1800, 2200))) + _fmt(rng)))
    jobs.append(Job("defect.exact_digits", DEFECT_EXACT, defect=True))
    jobs.append(Job("defect.float_overflow", DEFECT_FLOAT, defect=True))
    return jobs


_ROUNDS = {"recurrence": _recurrence_round, "cycles": _cycles_round, "orbits": _orbits_round}


def rounds(workload: str, seed: int) -> Iterator[List[Job]]:
    """Endless shuffled rounds of `workload`; the same seed gives the same rounds."""
    rng = random.Random(f"ratdyn-bench:{workload}:{seed}")
    make = _ROUNDS[workload]
    index = 0
    while True:
        jobs = make(rng, str(index))
        rng.shuffle(jobs)
        yield jobs
        index += 1
