"""Equilibria, multipliers, stability classes and two-cycles."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn import analysis, cli
from ratdyn.analysis import (
    Bracket,
    PeriodTwoCycle,
    Stability,
    classify_stability,
    equilibria,
    linear_stability_criterion,
    smallest_even_cycle_exponent,
    solve_period_two,
)
from ratdyn.dynamics import Plane, detect_period, iterate
from ratdyn.equation import Branch, EquationSpec
from ratdyn.interval import Interval, Undecided


def brute_force_two_cycle(eq, grid=1e-4):
    """Independent oracle: scan f(f(x)) - x on a float grid over (0, q/p],
    refine each straddle by plain bisection, drop roots near the equilibrium."""
    p, q, nu = float(eq.p), float(eq.q), eq.nu

    def f(x):
        return q / (p + x ** nu)

    def g(x):
        return f(f(x)) - x

    xbar = equilibria(eq)[0].value
    hi = q / p
    xs = [grid * k for k in range(1, int(hi / grid) + 1)]
    roots = []
    for a, b in zip(xs, xs[1:]):
        if g(a) == 0.0:
            roots.append(a)
            continue
        if g(a) * g(b) < 0.0:
            lo_, hi_ = a, b
            for _ in range(80):
                mid = 0.5 * (lo_ + hi_)
                if g(lo_) * g(mid) <= 0.0:
                    hi_ = mid
                else:
                    lo_ = mid
            roots.append(0.5 * (lo_ + hi_))
    return [r for r in roots if abs(r - xbar) > 1e-3]


# --- equilibria -------------------------------------------------------------------


def test_plus_equilibrium_examples():
    reports = equilibria(EquationSpec.plus(1, 2, 3))
    assert len(reports) == 1
    assert reports[0].value == 1.0
    assert reports[0].bracket is Bracket.AT_ONE

    reports = equilibria(EquationSpec.plus(2, 7, 1))
    assert reports[0].value == pytest.approx(2 * math.sqrt(2) - 1, abs=1e-12)
    assert reports[0].bracket is Bracket.BEYOND_ONE


def test_minus_even_examples():
    reports = equilibria(EquationSpec.minus(3, 1, 2))
    assert len(reports) == 2
    inner, outer = reports
    assert -1 < inner.value < 0 and inner.bracket is Bracket.IN_MINUS_UNIT
    assert outer.value < -1 and outer.bracket is Bracket.BELOW_MINUS_ONE
    # roots of x^3 - 3x - 1 pinned by an independent cubic solve
    assert inner.value == pytest.approx(-0.34729635533386, abs=1e-10)
    assert outer.value == pytest.approx(-1.53208888623796, abs=1e-10)

    assert equilibria(EquationSpec.minus(1, 3, 2)) == []
    boundary = equilibria(EquationSpec.minus(3, 2, 2))
    assert len(boundary) == 1 and boundary[0].value == -1.0
    assert boundary[0].bracket is Bracket.AT_MINUS_ONE


def test_minus_odd_examples():
    reports = equilibria(EquationSpec.minus(3, 2, 1))
    assert len(reports) == 1
    assert -1 < reports[0].value < 0
    assert reports[0].bracket is Bracket.IN_MINUS_UNIT

    reports = equilibria(EquationSpec.minus(1, 2, 1))
    assert reports[0].value == -1.0
    assert reports[0].bracket is Bracket.AT_MINUS_ONE

    reports = equilibria(EquationSpec.minus(1, 5, 3))
    assert reports[0].value < -1
    assert reports[0].bracket is Bracket.BELOW_MINUS_ONE


# odd-nu cells: four where a separate minus search used to land one ulp off
# the negated plus root, one whose default plus bracket overflows, and a grid
MIRROR_CELLS = [
    (1, Fraction(5, 2), 7),
    (1, Fraction(5, 3), 3),
    (1, Fraction(7, 2), 3),
    (2, Fraction(5, 2), 9),
    (Fraction(1, 10), 10, 401),
] + [
    (p, q, nu)
    for p in (Fraction(1, 10), Fraction(1, 2), 1, Fraction(5, 3), 2, Fraction(7, 2), 10)
    for q in (Fraction(1, 10), Fraction(1, 2), 1, Fraction(5, 2), 3, Fraction(7, 2), 10)
    for nu in (1, 3, 5, 7, 9, 21, 101, 401)
]
MIRRORED = {
    Bracket.IN_UNIT_INTERVAL: Bracket.IN_MINUS_UNIT,
    Bracket.AT_ONE: Bracket.AT_MINUS_ONE,
    Bracket.BEYOND_ONE: Bracket.BELOW_MINUS_ONE,
}


def test_minus_odd_is_mirror_of_plus():
    # (-x)**nu = -x**nu for odd nu: the minus report is the plus report with the
    # value negated and the bracket mirrored, bit for bit (repr round-trips)
    for p, q, nu in MIRROR_CELLS:
        reports = []
        for eq in (EquationSpec.plus(p, q, nu), EquationSpec.minus(p, q, nu)):
            (report,) = equilibria(eq)
            reports.append(classify_stability(eq, report))
        plus, minus = reports
        expected = plus._replace(value=-plus.value, bracket=MIRRORED[plus.bracket])
        assert repr(minus) == repr(expected), (p, q, nu)


def test_equilibrium_residuals_random():
    rng = random.Random(41)
    for _ in range(200):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.randint(1, 8)
        branch = rng.choice([Branch.PLUS, Branch.MINUS])
        eq = EquationSpec(branch, p, q, nu)
        for report in equilibria(eq):
            assert _rounds_a_root(eq, report.value), (eq, report)


def test_plus_equilibrium_where_the_default_bracket_overflows():
    # 101.0**401 overflows a float, so a float bracket from max(1, q/p) + 1 fails
    eq = EquationSpec.plus(Fraction(1, 10), 10, 400)
    (report,) = equilibria(eq)
    assert 1.0 < report.value < 10 ** (1 / 401)
    assert _rounds_a_root(eq, report.value)
    assert report.bracket is Bracket.BEYOND_ONE


def test_plus_equilibrium_at_the_top_of_the_float_range():
    # x**2 + x - q with q = r*r + r has the root r; from 1 the steps x -> 2x
    # end at 2**1024, past the floats, for every r in [2**1023, 2**1024); the
    # float after the largest one is taken as 2**1024, so a root below
    # max + ulp/2 rounds to max and one on or past it overflows, as float(r)
    top, ulp = Fraction(sys.float_info.max), Fraction(math.ulp(sys.float_info.max))
    for r in (Fraction(3, 2) * 2 ** 1023, top - ulp / 3, top - ulp / 2, top, top + ulp / 4):
        assert [report.value for report in equilibria(EquationSpec.plus(1, r * r + r))] == [float(r)]
    for r in (top + ulp / 2, top + 3 * ulp / 4):
        with pytest.raises(OverflowError):
            equilibria(EquationSpec.plus(1, r * r + r))


def test_bracket_trichotomy_random():
    rng = random.Random(43)
    for _ in range(200):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.randint(1, 8)
        plus = equilibria(EquationSpec.plus(p, q, nu))[0]
        if q < p + 1:
            assert plus.bracket is Bracket.IN_UNIT_INTERVAL and 0 < plus.value < 1
        elif q == p + 1:
            assert plus.bracket is Bracket.AT_ONE and plus.value == 1.0
        else:
            assert plus.bracket is Bracket.BEYOND_ONE and plus.value > 1

        if nu % 2 == 0:  # two roots, one double root or none; q = p - 1 reports -1 alone
            count = len(equilibria(EquationSpec.minus(p, q, nu)))
            left, right = nu ** nu * p ** (nu + 1), q ** nu * (nu + 1) ** (nu + 1)
            assert count == (1 if q == p - 1 else 2 if left > right else 1 if left == right else 0)


def _rounds_a_root(eq, x) -> bool:
    """x is the float nearest a root of x**(nu+1) + sign*p*x - q: x is a root,
    or the exact polynomial has opposite signs, or a zero, at the midpoints
    between x and its two float neighbours."""
    def value(t):
        return t ** (eq.nu + 1) + eq.sign * eq.p * t - eq.q

    below, above = ((Fraction(x) + Fraction(math.nextafter(x, side))) / 2
                    for side in (-math.inf, math.inf))
    return value(Fraction(x)) == 0 or value(below) * value(above) <= 0


def test_equilibria_are_the_floats_nearest_the_exact_roots():
    rng = random.Random(20)
    pool = [Fraction(1, 10 ** 6), Fraction(10 ** 6)]
    pool += [Fraction(rng.randint(1, 99), rng.randint(1, 12)) for _ in range(8)]
    seen = set()
    for nu in [*range(1, 51), 101, 401]:
        for branch in Branch:
            cells = [(rng.choice(pool), rng.choice(pool)) for _ in range(3)]
            if branch is Branch.MINUS and nu % 2 == 0:  # q < p - 1: the inner and outer roots
                p = rng.choice([Fraction(10 ** 6),
                                Fraction(rng.randint(25, 99), rng.randint(1, 8))])
                cells.append((p, (p - 1) * Fraction(rng.randint(1, 99), 100)))
            for p, q in cells:
                eq = EquationSpec(branch, p, q, nu)
                for report in equilibria(eq):
                    assert _rounds_a_root(eq, report.value), (eq, report)
                    seen.add(report.bracket)
    assert seen >= {Bracket.IN_UNIT_INTERVAL, Bracket.BEYOND_ONE, Bracket.IN_MINUS_UNIT,
                    Bracket.BELOW_MINUS_ONE}


def test_equilibria_scale_bit_for_bit_under_x_equals_lambda_y():
    # x = lam*y maps (p, q, nu) to (p/lam**nu, q/lam**(nu+1), nu).  For
    # lam = 2**k a float divides by lam exactly, so the nearest floats to the
    # roots must too, wherever neither root is subnormal.
    rng = random.Random(9)
    values = sorted({Fraction(n, d) for n in range(1, 13) for d in (1, 2, 3, 7)})
    for _ in range(300):
        lam = Fraction(2) ** rng.randint(-3, 3)
        branch, nu = rng.choice(list(Branch)), rng.randint(1, 10)
        p, q = rng.choice(values), rng.choice(values)
        xs = [r.value for r in equilibria(EquationSpec(branch, p, q, nu))]
        scaled = EquationSpec(branch, p / lam ** nu, q / lam ** (nu + 1), nu)
        ys = [r.value for r in equilibria(scaled)]
        if any(abs(v) < sys.float_info.min for v in xs + ys):
            continue
        scaled_xs = [x / float(lam) for x in xs]
        if len(ys) == len(xs):
            assert ys == scaled_xs, (branch, p, q, nu, lam)
        else:  # q = p - 1 reports the root -1 alone, and x = lam*y does not keep q = p - 1
            assert q == p - 1 or scaled.q == scaled.p - 1, (branch, p, q, nu, lam)
            assert set(ys) <= set(scaled_xs) or set(scaled_xs) <= set(ys), (p, q, nu, lam)


# --- stability --------------------------------------------------------------------


def test_classify_examples():
    eq = EquationSpec.plus(3, 4, 2)
    report = classify_stability(eq, equilibria(eq)[0])
    assert report.multiplier == pytest.approx(-0.5, abs=1e-12)
    assert report.classification is Stability.LOCALLY_ASYMPTOTICALLY_STABLE

    eq = EquationSpec.plus(1, 2, 4)
    report = classify_stability(eq, equilibria(eq)[0])
    assert report.multiplier == pytest.approx(-2.0, abs=1e-12)
    assert report.classification is Stability.UNSTABLE

    eq = EquationSpec.minus(3, 2, 1)
    report = classify_stability(eq, equilibria(eq)[0])
    assert abs(report.multiplier) < 1
    assert report.classification is Stability.LOCALLY_ASYMPTOTICALLY_STABLE


def test_multiplier_law_when_q_is_p_plus_one():
    for p in (1, 2, 3, 5):
        for nu in range(1, 9):
            eq = EquationSpec.plus(p, p + 1, nu)
            report = classify_stability(eq, equilibria(eq)[0])
            assert abs(report.multiplier - (-nu / (p + 1))) < 1e-12


def test_marginal_band():
    eq = EquationSpec.plus(1, 2, 2)  # multiplier exactly -1
    report = classify_stability(eq, equilibria(eq)[0])
    assert report.classification is Stability.MARGINALLY_STABLE


CLASS_SIGN = {Stability.LOCALLY_ASYMPTOTICALLY_STABLE: 1, Stability.MARGINALLY_STABLE: 0,
              Stability.UNSTABLE: -1}


def _sympy_classes(sympy, eq):
    """(isolating interval, class sign) of each root of the equilibrium
    polynomial in the studied range (x > 0 on plus, x < 0 on minus), in
    ascending order.  sympy isolates the roots; each interval is bisected
    until bounds of |multiplier| = q*nu*|x|**(nu-1) / (x**nu + sign*p)**2
    over it, from its monotone factors, lie on one side of 1, which is the
    class.  A root whose interval reaches width 1e-40 undecided is marginal."""
    x = sympy.symbols("x")
    P, Q = (sympy.Rational(v.numerator, v.denominator) for v in (eq.p, eq.q))
    poly = sympy.Poly(x ** (eq.nu + 1) + eq.sign * P * x - Q, x).sqf_part()
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]

    def sign(v):
        value = Fraction(0)
        for c in coeffs:
            value = value * v + c
        return (value > 0) - (value < 0)

    def side(lo, hi):
        """1 where |multiplier| < 1 on [lo, hi], -1 where it is > 1, else 0"""
        if eq.denominator(lo) * eq.denominator(hi) <= 0:
            return 0
        num = sorted(eq.q * eq.nu * abs(v) ** (eq.nu - 1) for v in (lo, hi))
        den = sorted(eq.denominator(v) ** 2 for v in (lo, hi))
        return (num[1] < den[0]) - (num[0] > den[1])

    roots = []
    for (lo, hi), _ in poly.intervals():
        lo, hi = Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))
        if (lo + hi > 0) != (eq.sign > 0):
            continue
        top = sign(hi) or -sign(lo)  # an end may be the neighbouring root
        while (cls := side(lo, hi)) == 0 and hi - lo >= Fraction(1, 10 ** 40):
            mid = (lo + hi) / 2
            s = sign(mid)
            if s == 0:
                lo = hi = mid
            elif s == top:
                hi = mid
            else:
                lo = mid
        roots.append(((lo, hi), cls))
    return roots


def test_classes_and_counts_match_the_integer_tests_and_sympy():
    # Every nu 1-50 on both branches: seeded p, q including 10**+-6, the
    # tangency (p, q) = ((nu-/+1) c**nu, nu c**(nu+1)) with its root at c, and
    # beside it for even nu on minus the band q(1 -+ 10**-3), where q > p - 1
    # has two roots or none.  The integer tests: s = sign of nu^nu p^(nu+1) -
    # q^nu k^(nu+1), k = nu+1 for even nu on minus, nu-1 elsewhere, is the
    # class of the one root; for even nu on minus it is two roots (outer
    # unstable, inner stable), one marginal double root, or none, and at
    # q = p - 1 the root -1 alone, stable iff p > nu + 1.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2111)
    pool = [Fraction(1, 10 ** 6), Fraction(10 ** 6), Fraction(1, 3), Fraction(7, 2), 1, 2,
            1000, 5000]
    for nu in range(1, 51):
        for branch in Branch:
            mixed = branch is Branch.MINUS and nu % 2 == 0
            k = nu + 1 if mixed else nu - 1
            c = rng.choice([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)])
            p = k * c ** nu
            cells = [(rng.choice(pool), rng.choice(pool)) for _ in range(3)]
            cells += [(p, nu * c ** (nu + 1))] if k else []
            if mixed:
                cells += [(p, nu * c ** (nu + 1) * (1 + s * Fraction(1, 1000))) for s in (-1, 1)]
                top = rng.choice([2, Fraction(7, 2), 1000, 10 ** 6])
                cells.append((top, top - 1))
            for p, q in map(lambda cell: tuple(map(Fraction, cell)), cells):
                eq = EquationSpec(branch, p, q, nu)
                left, right = nu ** nu * p ** (nu + 1), q ** nu * k ** (nu + 1)
                s = (left > right) - (left < right)
                if not mixed:
                    expected = [s]
                elif q == p - 1:
                    expected = [(p > nu + 1) - (p < nu + 1)]
                else:
                    expected = {1: [-1, 1], 0: [0], -1: []}[s]
                reports = sorted(classify_stability(eq, r) for r in equilibria(eq))
                roots = _sympy_classes(sympy, eq)
                if mixed and q == p - 1:
                    roots = [(ends, cls) for ends, cls in roots if ends[0] <= -1 <= ends[1]]
                assert [CLASS_SIGN[r.classification] for r in reports] == expected, eq
                assert [cls for _, cls in roots] == expected, eq
                for report, ((lo, hi), _) in zip(reports, roots):
                    ulp = math.ulp(report.value)
                    assert lo - ulp <= report.value <= hi + ulp, (eq, report)


def test_classify_rejects_non_equilibrium():
    eq = EquationSpec.plus(1, 2, 3)
    from ratdyn.analysis import EquilibriumReport

    for value in (0.5, float("nan")):
        with pytest.raises(ValueError, match="does not satisfy the equilibrium polynomial"):
            classify_stability(eq, EquilibriumReport(value, Bracket.IN_UNIT_INTERVAL))


def test_minus_nu_one_inner_equilibrium_always_stable():
    # for nu = 1 the multiplier is q/phi_plus^2 and phi_plus^2 = p*phi_plus + q > q,
    # so the inner equilibrium is stable for every p, q
    rng = random.Random(47)
    for _ in range(40):
        p = Fraction(rng.randint(11, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        if q >= p + 1:
            continue
        eq = EquationSpec.minus(p, q, 1)
        report = classify_stability(eq, equilibria(eq)[0])
        assert report.classification is Stability.LOCALLY_ASYMPTOTICALLY_STABLE


def test_minus_odd_inner_equilibrium_can_destabilize_for_large_nu():
    # |multiplier| = nu*|x|**(nu+1)/q can exceed 1 once the equilibrium sits
    # close to -1; the classification must follow the multiplier, not the
    # blanket always-stable folklore for odd exponents
    eq = EquationSpec.minus(Fraction(27, 10), Fraction(33, 10), 7)
    report = classify_stability(eq, equilibria(eq)[0])
    assert -1 < report.value < 0
    assert report.classification is Stability.UNSTABLE
    assert report.multiplier == pytest.approx(-1.51065511, abs=1e-6)


def test_linear_stability_criterion():
    assert linear_stability_criterion([0.5])
    assert not linear_stability_criterion([-2])
    assert linear_stability_criterion([2 / (3 + 1)])
    assert not linear_stability_criterion([0.6, 0.6])


# --- period two -------------------------------------------------------------------


def test_cycle_exists_above_threshold():
    cycle = solve_period_two(EquationSpec.plus(1, 2, 3))
    assert cycle is not None
    # symmetric-function solution: s^3 - 2 s^2 - 1 = 0, e = 1/s
    assert cycle.phi == pytest.approx(1.97613, abs=1e-4)
    assert cycle.psi == pytest.approx(0.22944, abs=1e-4)
    assert cycle.approx_form == (2.0, pytest.approx(2 / 9, abs=1e-15))
    assert cycle.residual < 1e-12


def test_cycle_matches_brute_force_oracle():
    eq = EquationSpec.plus(1, 2, 3)
    cycle = solve_period_two(eq)
    roots = brute_force_two_cycle(eq)
    assert roots, "oracle found no cycle"
    assert min(abs(r - cycle.phi) for r in roots) < 1e-6
    assert min(abs(r - cycle.psi) for r in roots) < 1e-6


def test_no_cycle_in_stable_regime():
    assert solve_period_two(EquationSpec.plus(3, 4, 2)) is None
    assert solve_period_two(EquationSpec.plus(2, 3, 1)) is None


def test_no_cycle_at_flip_boundary():
    # multiplier is exactly -1 here and the second iterate meets the diagonal
    # only at the equilibrium (triple contact): no prime cycle exists, and the
    # exact-sign scan must not hallucinate one from float noise
    assert solve_period_two(EquationSpec.plus(1, 2, 2)) is None
    assert solve_period_two(EquationSpec.plus(2, 3, 3)) is None
    assert solve_period_two(EquationSpec.plus(3, 4, 4)) is None
    assert solve_period_two(EquationSpec.plus(4, 5, 5)) is None
    # the odd-nu minus branch mirrors the plus branch, tangency included
    assert solve_period_two(EquationSpec.minus(2, 3, 3)) is None
    assert solve_period_two(EquationSpec.minus(4, 5, 5)) is None


def test_cycle_residual_and_quotient_identity():
    for p, q, nu in [(1, 2, 3), (1, 2, 5), (2, 3, 6), (3, 4, 8), (1, 2, 6)]:
        eq = EquationSpec.plus(p, q, nu)
        cycle = solve_period_two(eq)
        assert cycle is not None
        assert cycle.residual < 1e-10 * max(1.0, q)
        assert abs(cycle.phi - cycle.psi) > 1e-8
        if nu >= 2:
            num = cycle.psi ** nu - cycle.phi ** nu
            den = cycle.psi ** (nu - 1) - cycle.phi ** (nu - 1)
            assert abs(num / den - q / p) < 1e-8


def test_minus_odd_cycle_mirrors_plus():
    minus = solve_period_two(EquationSpec.minus(1, 2, 5))
    assert minus.approx_form[0] == -2.0
    assert minus.approx_form[1] == pytest.approx(-2 / 33, abs=1e-15)
    assert minus.residual < 1e-12
    # the five printed fields are the plus cycle's, negated bit for bit; the
    # residual is the plus residual, since negation is exact
    for p, q, nu in MIRROR_CELLS:
        if nu > 21:
            continue
        plus = solve_period_two(EquationSpec.plus(p, q, nu))
        minus = solve_period_two(EquationSpec.minus(p, q, nu))
        if plus is None:
            assert minus is None, (p, q, nu)
            continue
        expected = PeriodTwoCycle(
            phi=-plus.phi,
            psi=-plus.psi,
            residual=plus.residual,
            approx_form=(-plus.approx_form[0], -plus.approx_form[1]),
        )
        assert repr(minus) == repr(expected), (p, q, nu)


def test_minus_even_mixed_cycle():
    eq = EquationSpec.minus(3, 1, 2)
    cycle = solve_period_two(eq)
    assert cycle is not None
    assert cycle.phi < 0 < cycle.psi
    assert cycle.residual < 1e-12
    # independent check that the pair really swaps under the map
    f = lambda y: 1.0 / (-3.0 + y ** 2)
    assert f(cycle.phi) == pytest.approx(cycle.psi, rel=1e-9)
    assert f(cycle.psi) == pytest.approx(cycle.phi, rel=1e-9)
    assert cycle.phi == pytest.approx(-1.9067, abs=2e-3)


def test_mixed_pair_that_misses_the_cycle_equations_is_refused():
    # Newton starts within float resolution of the edge -p**(1/nu) and lands on
    # a pair in the region whose cycle equations miss by ~6e131
    with pytest.raises(ValueError, match="cannot locate"):
        solve_period_two(EquationSpec.minus(10 ** 16, 1000, 10))


def test_cycle_existence_matches_criterion_on_random_rationals():
    # plus branch, and its odd-nu minus mirror: a prime two-cycle exists iff
    # nu^nu p^(nu+1) < q^nu (nu-1)^(nu+1) (negative Schwarzian; equality is
    # the flip tangency).  Minus branch, even nu: the mixed-sign cycle always
    # exists (intermediate value theorem on the one-variable cycle map).
    rng = random.Random(20151)
    for _ in range(100):
        p = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        q = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        nu = rng.randint(1, 12)
        expected = nu ** nu * p ** (nu + 1) < q ** nu * (nu - 1) ** (nu + 1)
        cases = [(EquationSpec.plus(p, q, nu), expected)]
        cases.append((EquationSpec.minus(p, q, nu), expected if nu % 2 else True))
        for eq, exists in cases:
            cycle = solve_period_two(eq)
            assert (cycle is not None) == exists, (eq, expected)
            if cycle is None:
                continue
            assert cycle.residual < 1e-10 * max(1.0, float(q)), eq
            if eq.branch is Branch.MINUS and nu % 2 == 0:
                assert cycle.phi < 0 < cycle.psi, eq


def _period2_cells():
    """A seeded sample of the mixed region at even nu, p = 10**0..10**20 and
    q in {1/1000, 1, 7, 1000}, where the cycle can lie within float
    resolution of the edge -p**(1/nu); and the plus branch at (1, 2 +- 10**-k, 2),
    on both sides of the flip tangency q = 2."""
    mixed = [("minus", 10 ** e, q, nu) for nu in (2, 4, 6, 8, 10, 20) for e in range(21)
             for q in (Fraction(1, 1000), 1, 7, 1000)]
    plus = [("plus", 1, 2 + s * Fraction(1, 10 ** k), 2) for k in range(12, 21) for s in (1, -1)]
    return random.Random(504).sample(mixed, 48) + plus


@pytest.mark.parametrize("branch, p, q, nu", _period2_cells())
def test_period2_prints_none_only_where_the_criterion_says_no_cycle(capsys, branch, p, q, nu):
    eq = EquationSpec(Branch(branch), p, q, nu)
    proven = branch == "minus" or nu ** nu * eq.p ** (nu + 1) < eq.q ** nu * (nu - 1) ** (nu + 1)
    code = cli.run(["period2", "--branch", branch, "--p", str(p), "--q", str(q), "--nu", str(nu)])
    out, err = capsys.readouterr()
    if not proven:
        assert (code, out.splitlines()[1:]) == (0, ["none"])
        return
    if code == 2:  # floats cannot locate the proven cycle: a clean refusal
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    phi, psi = map(Fraction, out.splitlines()[1].split(",")[:2])
    if branch == "minus":
        assert phi < 0 < psi and phi ** nu > eq.p
    else:
        assert phi > 0 and psi > 0 and phi != psi


def test_cycle_existence_matches_sympy_root_isolation():
    # Independent oracle for nu <= 6: a prime cycle exists iff the numerator of
    # f(f(x)) - x, with every factor it shares with the equilibrium polynomial
    # divided out, has a real root in the studied region.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    cells = [(1, 2), (2, 3), (3, 4), (1, 1), (3, 1), (Fraction(1, 2), 2), (2, 5)]
    for p, q in cells:
        for nu in range(1, 7):
            for branch in (Branch.PLUS, Branch.MINUS):
                eq = EquationSpec(branch, p, q, nu)
                P, Q = (sympy.Rational(v.numerator, v.denominator) for v in (eq.p, eq.q))
                f = lambda y: Q / (eq.sign * P + y ** nu)
                num = sympy.Poly(sympy.fraction(sympy.cancel(f(f(x)) - x))[0], x)
                fixed = sympy.Poly(x ** (nu + 1) + eq.sign * P * x - Q, x)
                while (common := sympy.gcd(num, fixed)).degree() > 0:
                    num = sympy.quo(num, common)
                if branch is Branch.PLUS:
                    inside = lambda r: r > 0
                elif nu % 2:
                    inside = lambda r: r < 0
                else:
                    inside = lambda r: r < 0 and r ** nu > eq.p
                as_fraction = lambda r: Fraction(int(r.p), int(r.q))
                found = False
                for (lo, hi), _ in num.intervals() if num.degree() > 0 else []:
                    while inside(as_fraction(lo)) != inside(as_fraction(hi)):
                        lo, hi = num.refine_root(lo, hi, eps=(hi - lo) / 16)
                    found = found or inside(as_fraction(lo))
                assert found == (solve_period_two(eq) is not None), eq


def test_smallest_even_cycle_exponent():
    # the mixed-sign cycle exists for every even nu (intermediate-value
    # argument on the one-variable cycle map), so the answer is 2
    assert smallest_even_cycle_exponent(1, 2) == 2
    assert smallest_even_cycle_exponent(3, 4) == 2
    assert smallest_even_cycle_exponent(3, 4, cap=1) is None
    with pytest.raises(ValueError):
        smallest_even_cycle_exponent(0, 4)


# --- certified signs --------------------------------------------------------------

PREDICATES = {"second_iterate": analysis._second_iterate_sign, "psi": analysis._psi_sign}


def _filtered_sign(predicate, eq, x):
    """The predicate on an enclosure of x, or Undecided when it abstains."""
    try:
        return predicate(eq, Interval.enclose(x))
    except Undecided:
        return Undecided


def test_certified_signs_equal_exact_signs_on_acceptance_grid():
    decided = total = 0
    for p in (1, 2, 3):
        for nu in range(1, 9):
            for branch in (Branch.PLUS, Branch.MINUS):
                eq = EquationSpec(branch, p, p + 1, nu)
                for k in range(-40, 41):
                    x = Fraction(k, 8)
                    for predicate in PREDICATES.values():
                        filtered = _filtered_sign(predicate, eq, x)
                        total += 1
                        if filtered is not Undecided:
                            decided += 1
                            assert filtered == predicate(eq, x), (eq, x, predicate)
    assert decided > 0.9 * total


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    p=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
    q=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
    nu=st.integers(1, 40),
    branch=st.sampled_from(Branch),
    x=st.fractions(min_value=-6, max_value=6, max_denominator=10 ** 9),
    name=st.sampled_from(sorted(PREDICATES)),
)
def test_certified_signs_equal_exact_signs_on_random_rationals(p, q, nu, branch, x, name):
    eq, predicate = EquationSpec(branch, p, q, nu), PREDICATES[name]
    filtered = _filtered_sign(predicate, eq, x)
    assert filtered is Undecided or filtered == predicate(eq, x)


def test_denominator_equals_the_signed_sum_bit_for_bit():
    # x**nu + p or x**nu - p against x**nu + sign*p, on 1,000 Fractions and
    # their floats and enclosures: -p encloses as the negated enclosure of p
    rng = random.Random(12)
    for _ in range(1000):
        eq = EquationSpec(rng.choice(list(Branch)),
                          Fraction(rng.randint(1, 99), rng.randint(1, 12)),
                          Fraction(rng.randint(1, 99), rng.randint(1, 12)), rng.randint(1, 12))
        x = Fraction(rng.randint(-600, 600), rng.randint(1, 97))
        for value in (x, float(x), Interval.enclose(x)):
            new, ref = eq.denominator(value), value ** eq.nu + eq.sign * eq.p
            if isinstance(value, Interval):
                new, ref = (new.lo, new.hi), (ref.lo, ref.hi)
            assert type(new) is type(ref) and repr(new) == repr(ref), (eq, value)


def test_enclosure_abstains_where_the_exact_sign_is_degenerate():
    # g(1) = 0 exactly at the flip tangency (1,2,2)
    tangent = EquationSpec.plus(1, 2, 2)
    assert _filtered_sign(analysis._second_iterate_sign, tangent, Fraction(1)) is Undecided
    assert analysis._certified_sign(analysis._second_iterate_sign, tangent, Fraction(1)) == 0
    # alpha**nu - p = 0 at alpha = -2 on minus (4,1,2): the region edge
    edge = EquationSpec.minus(4, 1, 2)
    assert _filtered_sign(analysis._psi_sign, edge, Fraction(-2)) is Undecided
    assert analysis._certified_sign(analysis._psi_sign, edge, Fraction(-2)) is None


def _sign_evaluations(monkeypatch, eq):
    """(all, exact) sign-predicate evaluations made by solve_period_two(eq)."""
    kinds = []
    with monkeypatch.context() as patch:
        for name in ("_second_iterate_sign", "_psi_sign"):
            predicate = getattr(analysis, name)
            patch.setattr(analysis, name,
                          lambda eq, x, predicate=predicate: kinds.append(type(x)) or predicate(eq, x))
        solve_period_two(eq)
    return len(kinds), kinds.count(Fraction)


def test_period_two_sign_work(monkeypatch):
    # Counts of predicate evaluations, not time.  The criterion decides
    # no-cycle and tangency cells without a sign; at nu = 200 an exact sign
    # costs ~0.3 s of Fraction powers, so the enclosure must decide nearly all.
    for eq in (EquationSpec.plus(3, 1, 48), EquationSpec.plus(1, 2, 2),
               EquationSpec.plus(2, 3, 3), EquationSpec.plus(3, 4, 4)):
        assert _sign_evaluations(monkeypatch, eq) == (0, 0), eq
    for eq in (EquationSpec.minus(3, 1, 200), EquationSpec.plus(1, 2, 200)):
        total, exact = _sign_evaluations(monkeypatch, eq)
        assert total > 0 and exact <= 4, (eq, total, exact)


# --- float proposals, certified decisions --------------------------------------------

PROPOSED = ("_rounded_root", "_nearest_float", "_cycle_search", "_dyadic_cell", "_sign_change")


def _tangent_q(p, nu):
    """The float tangency value q* of nu^nu p^(nu+1) = q^nu (nu-1)^(nu+1)."""
    return nu * float(p) ** ((nu + 1) / nu) / (nu - 1) ** ((nu + 1) / nu)


def _proposal_cells():
    rng = random.Random(22)

    def rational():
        return Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7)))

    cells = [EquationSpec(rng.choice(list(Branch)), rational(), rational(), rng.randint(1, 60))
             for _ in range(40)]
    for e in range(3, 17):  # near the flip tangency, where float proposals often fail
        nu, p = rng.randint(2, 12), rng.choice((1, 2, 3, Fraction(1, 2), Fraction(5, 3)))
        q = Fraction(_tangent_q(p, nu)) * (1 + rng.choice((1, -1)) * Fraction(1, 10 ** e))
        cells.append(EquationSpec(Branch.PLUS if nu % 2 == 0 else rng.choice(list(Branch)), p, q, nu))
    for _ in range(8):  # the mixed region near its edge -p**(1/nu)
        q = rng.choice((Fraction(1, 1000), 1, 7, 1000))
        cells.append(EquationSpec.minus(10 ** rng.randint(0, 20), q, rng.choice((2, 4, 6, 8, 10, 20))))
    # floats propose a pair that the certificate refutes: (-, -) at (1, 2 + 2e-13, 2), (+, +) at
    # (2, 2**2.5*(1 + 1e-13), 2); (1e6, 1/1000, 60): a float B**nu overflows on the mixed grid
    tangent = Fraction(_tangent_q(2, 2))
    return cells + [EquationSpec.plus(1, 2 + Fraction(2, 10 ** 13), 2),
                    EquationSpec.plus(2, tangent * (1 + Fraction(1, 10 ** 13)), 2),
                    EquationSpec.plus(1, Fraction(3, 2), 1600),
                    EquationSpec.minus(10 ** 6, Fraction(1, 1000), 60)]


# Equilibria alone: from nu ~ 1750 a float probe 1.5**nu of the bracket [1, 2]
# overflows and its certified sign stands in; the overflow goldens' cycle
# searches are never reached (approx_form overflows first) and take ~20 s.
OVERFLOW_EQUILIBRIA = [EquationSpec.plus(2, 5, 2000), EquationSpec.minus(3, 1, 1800),
                       EquationSpec.plus(Fraction(1, 10), 10, 1800),
                       EquationSpec.plus(Fraction(1, 10), 10, 200),
                       EquationSpec.minus(Fraction(1, 10), 10, 200),
                       EquationSpec.plus(Fraction(1, 10), 10, 400)]


def _search(eq):
    """equilibria(eq), then the cycle search where a cycle exists."""
    mixed = eq.branch is Branch.MINUS and eq.nu % 2 == 0
    runs = [lambda: equilibria(eq)]
    if mixed:
        runs.append(lambda: analysis._mixed_root(eq, 1e-10))
    elif analysis._stable(eq) < 0:
        runs.append(lambda: analysis._positive_root(EquationSpec.plus(eq.p, eq.q, eq.nu), 1e-10))
    for run in runs:
        try:
            run()
        except ValueError:  # two roots that round to one float, or an unlocated cycle
            pass


def _outcome(fn, *args, **kwargs):
    """("value", what fn returns) or ("ValueError", the args it raises)."""
    try:
        return "value", fn(*args, **kwargs)
    except ValueError as error:
        return "ValueError", error.args


def _record(calls, name, fn):
    def recorded(*args, **kwargs):
        kind, result = outcome = _outcome(fn, *args, **kwargs)
        calls.append((name, args, kwargs, outcome))
        if kind == "ValueError":
            raise ValueError(*result)
        return result
    return recorded


def test_float_proposals_change_no_result(monkeypatch):
    # Every call of the functions floats propose for, replayed with the
    # proposals off (test-only: _float_spec patched to None, so only the
    # certified bisection runs), returns the same result.
    calls = []
    with monkeypatch.context() as patch:
        for name in PROPOSED:
            patch.setattr(analysis, name, _record(calls, name, getattr(analysis, name)))
        for eq in _proposal_cells():
            _search(eq)
        for eq in OVERFLOW_EQUILIBRIA:
            equilibria(eq)
    assert {call[0] for call in calls} == set(PROPOSED)
    monkeypatch.setattr(analysis, "_float_spec", lambda eq: None)
    for name, args, kwargs, (kind, result) in calls:
        certified_kind, certified = _outcome(getattr(analysis, name), *args, **kwargs)
        assert (certified_kind, type(certified), certified) == (kind, type(result), result), (name, args)


def _step_predicate(root, edge=None):
    """A sign predicate +1 below root, 0 at it and -1 above it, None past
    edge: exact on floats and Fractions, on an Interval where it proves it."""
    def sign(x):
        if edge is not None and x > edge:
            return None
        return (x < root) - (x > root)

    def predicate(eq, x):
        if isinstance(x, Interval):
            lo, hi = sign(x.lo), sign(x.hi)
            if lo != hi or lo == 0:
                raise Undecided
            return lo
        return sign(x)
    return predicate


def _linear_scan(eq, predicate, points):
    """The certified scan _sign_change replaced, kept as the reference: the
    first point where the certified sign is 0, or the first consecutive
    (+, -) pair skipping None, or None."""
    lo = None  # last point with sign +1
    for point in points:
        s = analysis._certified_sign(predicate, eq, point)
        if s is None:
            continue
        if s == 0:
            return point, point
        if s < 0 and lo is not None:
            return lo, point
        lo = point if s > 0 else None
    return None


def _sign_change_cases():
    """(predicate, grid, dyadic) triples: seeded ascending Fraction grids
    with the root on a grid point, between two, outside the grid and past a
    region edge (an all-None tail among them), and dyadic brackets
    (a, b, levels) with the root inside, on a cell end or not."""
    rng = random.Random(24)
    cases = []
    for _ in range(300):
        grid = sorted({Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice((1, 3, 7, 10 ** 9)))
                       for _ in range(rng.randint(1, 40))})
        root = rng.choice((rng.choice(grid), rng.choice(grid) + Fraction(1, 10 ** 12),
                           (grid[0] + grid[-1]) / 2 + Fraction(1, 10 ** 12), grid[0] - 1,
                           grid[-1] + 1))
        edge = rng.choice((None, None, None, root + Fraction(rng.randint(0, 10 ** 5), 3),
                           rng.choice(grid), grid[0] - 1))
        cases.append((_step_predicate(root, edge), grid, None))
    for _ in range(150):
        levels = rng.randint(0, 9)
        a = Fraction(rng.randint(-2 ** 20, 2 ** 20), rng.choice((2 ** rng.randint(0, 30), 3, 10 ** 7)))
        b = a + Fraction(rng.randint(1, 2 ** 20), rng.choice((2 ** rng.randint(0, 40), 7)))
        on_cell = a + (b - a) * Fraction(rng.randint(1, 2 ** levels), 2 ** levels)
        root = rng.choice((on_cell, a + (b - a) * Fraction(rng.randint(1, 10 ** 6 - 1), 10 ** 6)))
        if root == b:
            root = (a + b) / 2
        cases.append((_step_predicate(root), None, (a, b, levels)))
    return cases


def _sign_change_outcome(monkeypatch, eq, predicate, grid, dyadic):
    """The dyadic bracket's cell, or the cycle search's result on the grid
    with its bracket left whole: (lo + hi)/2, or None for ValueError."""
    if grid is None:
        a, b, levels = dyadic
        return analysis._dyadic_cell(eq, predicate, a, b, 1, levels)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_dyadic_cell", lambda eq, predicate, lo, hi, *rest: (lo, hi))
        try:
            return analysis._cycle_search(eq, predicate, [grid], 1e-10)
        except ValueError:
            return None


def test_sign_change_matches_the_linear_scan(monkeypatch):
    # Proposals on, off (_float_spec patched to None) and adversarial
    # (_float_sign patched to random signs) give the linear certified scan's
    # result in every case, since certified signs confirm each proposal.
    eq, rng = EquationSpec.plus(1, 2, 2), random.Random(5)
    for predicate, grid, dyadic in _sign_change_cases():
        if grid is None:
            a, b, levels = dyadic
            want = _linear_scan(eq, predicate, [a + (b - a) * Fraction(j, 2 ** levels)
                                                for j in range(2 ** levels + 1)])
        else:
            found = _linear_scan(eq, predicate, grid)
            want = found and (found[0] + found[1]) / 2
        for way in ("proposed", "certified only", "adversarial"):
            with monkeypatch.context() as patch:
                if way == "certified only":
                    patch.setattr(analysis, "_float_spec", lambda eq: None)
                elif way == "adversarial":
                    patch.setattr(analysis, "_float_sign",
                                  lambda predicate, spec, x: rng.choice((1, -1, 0, None)))
                got = _sign_change_outcome(patch, eq, predicate, grid, dyadic)
            assert got == want, (way, grid, dyadic)


def _float_below(x: Fraction) -> float:
    """The largest float strictly below x."""
    f = float(x)
    return f if f < x else math.nextafter(f, -math.inf)


def _nearest_float_cases():
    """(root, lo, hi) triples, seeded: a root on a float, on the rounding
    boundary halfway to the next float, or between two floats, of either
    sign, normal, subnormal or below the subnormals; brackets with float
    ends, with ends that are not floats, a few ulps wide or binades wide,
    either way round."""
    rng = random.Random(25)
    cases = []
    for _ in range(400):
        f = rng.choice((-1, 1)) * math.ldexp(1 + rng.random(), rng.choice(
            (rng.randint(-1074, 1022), rng.randint(-1080, -1020), rng.randint(-60, 60))))
        step = Fraction(math.nextafter(f, math.inf)) - Fraction(f)
        root = Fraction(f) + rng.choice((0, Fraction(1, 2), Fraction(rng.randint(1, 999), 1000))) * step
        if rng.random() < 0.1:  # below the smallest subnormal, whose float is a signed zero
            root = rng.choice((-1, 1)) * Fraction(rng.randint(1, 10 ** 6), 2 ** 1100)
        scale = abs(root) * Fraction(1, 2 ** rng.randint(1, 60)) or step
        below, above = (root + sign * scale * Fraction(rng.randint(1, 10 ** 6), rng.choice((3, 10 ** 6)))
                        for sign in (-1, 1))
        if rng.random() < 0.5:  # float ends
            below, above = Fraction(_float_below(below)), -Fraction(_float_below(-above))
        cases.append((root, *((below, above) if rng.random() < 0.5 else (above, below))))
    return cases


def test_nearest_float_is_the_float_of_the_root(monkeypatch):
    # Proposals on, off (_float_spec patched to None) and adversarial
    # (_float_sign patched to random signs): the float() of the exact root,
    # signed zeros included, from one certified bisection.
    eq, rng = EquationSpec.plus(1, 2, 2), random.Random(6)
    for root, lo, hi in _nearest_float_cases():
        predicate = _step_predicate(root)
        side = predicate(eq, lo)
        for way in ("proposed", "certified only", "adversarial"):
            with monkeypatch.context() as patch:
                if way == "certified only":
                    patch.setattr(analysis, "_float_spec", lambda eq: None)
                elif way == "adversarial":
                    patch.setattr(analysis, "_float_sign",
                                  lambda predicate, spec, x: rng.choice((1, -1, 0, None)))
                got = analysis._nearest_float(eq, predicate, lo, hi, side)
            assert repr(got) == repr(float(root)), (way, root, lo, hi)


def test_nearest_float_reads_no_sign_past_its_bracket():
    # A second root just past the bracket, in the same float cell: the
    # midpoint there lies past an end, whose sign stands in for it.  Roots
    # at f + u/10 (second at 3u/10) and f + 9u/10 (second at 7u/10).
    f, u = Fraction(3, 2), Fraction(math.ulp(1.5))

    def between(a, b, inside):
        """inside strictly between a and b, 0 at them, -inside elsewhere."""
        def predicate(eq, x):
            if isinstance(x, Interval):
                raise Undecided
            return 0 if x in (a, b) else inside if a < x < b else -inside
        return predicate

    eq = EquationSpec.plus(1, 2, 2)
    for predicate, lo, hi, want in ((between(f + u / 10, f + 3 * u / 10, -1), f - 10 * u, f + u / 5, 1.5),
                                    (between(f + 7 * u / 10, f + 9 * u / 10, 1), f + 4 * u / 5, f + 20 * u,
                                     math.nextafter(1.5, 2))):
        assert analysis._nearest_float(eq, predicate, lo, hi, predicate(eq, lo)) == want
        mirrored = lambda eq, x, predicate=predicate: predicate(eq, -x)
        assert analysis._nearest_float(eq, mirrored, -lo, -hi, predicate(eq, lo)) == -want


def _counted_certificates(monkeypatch, run):
    """(what run() returns, how many certified signs it took)."""
    counted, certify = [], analysis._certified_sign
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_certified_sign", lambda *args: counted.append(args) or certify(*args))
        return run(), len(counted)


def test_a_near_miss_proposal_gallops_to_the_change(monkeypatch):
    # Floats that propose the pair d indices off the change: the linear
    # scan's answer still, within 2*log2(d) + 4 certified signs, where a
    # restart from the whole range would take ~22.
    eq, rng = EquationSpec.plus(1, 2, 2), random.Random(11)
    for d in (*range(1, 65), *rng.sample(range(65, 1001), 60), 1000):
        for miss in (d, -d):
            root = rng.randrange(2000, 2 ** 20 - 2000) + Fraction(1, 2)
            proposed = _step_predicate(root + miss)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_float_sign", lambda predicate, spec, x: proposed(spec, x))
                (j, s), signs = _counted_certificates(patch, lambda: analysis._sign_change(
                    eq, _step_predicate(root), Fraction, float, 0, 2 ** 20, 1))
            assert (j, s) == (math.ceil(root), -1), (d, miss)
            assert signs <= 2 * math.log2(d) + 4, (d, miss, signs)


def test_equilibria_sign_work(monkeypatch):
    # Counts of certified signs, not time: the steps to the bracket, its two
    # confirmed floats and the midpoint between them.  At nu = 20,000 the
    # floats are wrong a few ulps from the flat roots, so this counts the
    # gallop too (53 signs where a refuted pair restarted the search).
    for nu in (2, 100, 400, 1600):
        _, signs = _counted_certificates(monkeypatch, lambda: equilibria(EquationSpec.plus(2, 5, nu)))
        assert signs == 5, (nu, signs)
    eq = EquationSpec.minus(100000, Fraction(199999, 2), 20000)
    roots, signs = _counted_certificates(monkeypatch, lambda: equilibria(eq))
    assert len(roots) == 2 and signs <= 20, signs
    # Two roots of even nu on minus at q = p - 1 + f*(q_max - p + 1), q_max
    # the float double-root value: 136 cells, 3,760 signs by the dyadic cells
    # of the parent, 3,883 where a refuted pair restarts the search.
    cells = []
    for nu in (2, 4, 10, 20, 50, 100, 400):
        for p in (3, 10, 100, 1000, 10 ** 5):
            top = Fraction(p ** (1 + 1 / nu) * nu / (nu + 1) ** (1 + 1 / nu)) - p + 1
            cells += [EquationSpec.minus(p, p - 1 + f * top, nu)
                      for f in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(999, 1000))]
    cells = [eq for eq in cells if eq.q > eq.p - 1 and analysis._stable(eq) > 0]
    _, signs = _counted_certificates(monkeypatch, lambda: [equilibria(eq) for eq in cells])
    assert len(cells) == 136 and signs <= 2200, signs


def _certified_signs(monkeypatch, eq):
    cycle, signs = _counted_certificates(monkeypatch, lambda: solve_period_two(eq))
    assert cycle is not None
    return signs


def test_period_two_certifies_only_the_proposals(monkeypatch):
    # The certified-only path takes 98 and 42 certified signs on these cells
    # (a bisection of the grid's indices, then of the bracket's dyadic
    # cells); a proposal that silently fell back to it would fail here.
    for eq in (EquationSpec.plus(1, 4, 48), EquationSpec.minus(3, 1, 40)):
        assert _certified_signs(monkeypatch, eq) <= 20, eq
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_float_spec", lambda eq: None)
            assert _certified_signs(patch, eq) > 30, eq


def test_period_two_tol_validation():
    with pytest.raises(ValueError):
        solve_period_two(EquationSpec.plus(1, 2, 3), tol=0)


# --- stability vs dynamics consistency -----------------------------------------------


def test_stable_equilibria_attract_perturbations():
    for p, q, nu in [(1, 2, 1), (2, 3, 2), (3, 4, 3), (3, 4, 1)]:
        eq = EquationSpec.plus(p, q, nu)
        report = classify_stability(eq, equilibria(eq)[0])
        assert report.classification is Stability.LOCALLY_ASYMPTOTICALLY_STABLE
        orbit = iterate(eq, report.value * (1 + 1e-3), 2000, Plane.FLOAT)
        assert abs(orbit.values[-1] - report.value) < 1e-6


def test_unstable_equilibria_shed_orbits_onto_the_cycle():
    for p, q, nu in [(1, 2, 4), (2, 3, 5), (3, 4, 6)]:
        eq = EquationSpec.plus(p, q, nu)
        report = classify_stability(eq, equilibria(eq)[0])
        assert report.classification is Stability.UNSTABLE
        cycle = solve_period_two(eq)
        assert cycle is not None
        orbit = iterate(eq, report.value * (1 + 1e-3), 900, Plane.FLOAT)
        detection = detect_period(orbit, max_period=8, tol=1e-9, burn_in=300)
        assert detection is not None and detection.period == 2
