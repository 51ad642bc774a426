"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

There are two regions: the plus branch, and the mixed-sign region of even nu
on minus.  For odd nu, (-x)**nu = -x**nu makes the minus map the plus map in
y = -x, so its equilibrium and two-cycle are computed as the plus branch's,
negated (exactly, in floats): analyze and period2 share one equilibrium and
print exact mirrors.  Equilibria are roots of x**(nu+1) + sign*p*x - q
(sign +1 on the plus branch, -1 on minus), located by sign-bracketed
bisection and polished by Newton steps.  Whether a prime two-cycle exists is
decided exactly, before any search, by the criterion in solve_period_two.
The one search, _cycle_search, then only locates the cycle: a scan of a
rational grid for a sign change of a sign predicate, bisection, then Newton
polish on the cycle system.  A region supplies only its predicate and grid:
g(x) = f(f(x)) - x above the equilibrium on the plus branch, and a
one-variable reduction of the cycle equations in the mixed-sign region.
Each sign is evaluated first on an outward-rounded float enclosure
(ratdyn.interval); where that cannot prove the sign it abstains and the same
predicate runs on Fractions, so every sign the search sees is exact.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .equation import Branch, EquationSpec
from .horadam import binet_roots
from .interval import Interval, Undecided

MARGINAL_BAND = 1e-12
CYCLE_SEPARATION = 1e-8

SignPredicate = Callable[[EquationSpec, object], Optional[int]]


class Bracket(Enum):
    IN_UNIT_INTERVAL = "in_unit_interval"
    AT_ONE = "at_one"
    BEYOND_ONE = "beyond_one"
    IN_MINUS_UNIT = "in_minus_unit"
    AT_MINUS_ONE = "at_minus_one"
    BELOW_MINUS_ONE = "below_minus_one"


# the bracket of -x given that of x: odd nu on minus is the plus branch in y = -x
_MIRRORED = {Bracket.IN_UNIT_INTERVAL: Bracket.IN_MINUS_UNIT, Bracket.AT_ONE: Bracket.AT_MINUS_ONE,
             Bracket.BEYOND_ONE: Bracket.BELOW_MINUS_ONE}


class Stability(Enum):
    LOCALLY_ASYMPTOTICALLY_STABLE = "locally_asymptotically_stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


class EquilibriumReport(NamedTuple):
    """An equilibrium value with its location bracket; multiplier and
    classification are filled in by classify_stability."""

    value: float
    bracket: Bracket
    multiplier: Optional[float] = None
    classification: Optional[Stability] = None


def equilibrium_polynomial(eq: EquationSpec, x: float) -> float:
    """x**(nu+1) + sign*p*x - q; equilibria are its roots."""
    return x ** (eq.nu + 1) + eq.sign * float(eq.p) * x - float(eq.q)


def _polynomial_derivative(eq: EquationSpec, x: float) -> float:
    return (eq.nu + 1) * x ** eq.nu + eq.sign * float(eq.p)


def _bisect(eq: EquationSpec, lo: float, hi: float) -> float:
    """A root of the equilibrium polynomial on [lo, hi], which brackets one."""
    flo = equilibrium_polynomial(eq, lo)
    if flo == 0.0:
        return lo
    if equilibrium_polynomial(eq, hi) == 0.0:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = equilibrium_polynomial(eq, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _polish(eq: EquationSpec, x: float) -> float:
    for _ in range(4):
        deriv = _polynomial_derivative(eq, x)
        if deriv == 0.0:
            break
        x -= equilibrium_polynomial(eq, x) / deriv
    return x


def equilibria(eq: EquationSpec) -> List[EquilibriumReport]:
    """All equilibria in the studied range, with location brackets.

    Plus branch: the single positive root (the polynomial is strictly
    increasing on (0, inf)); it sits below, at, or above 1 according to
    q <=> p+1.  Minus branch, odd nu: (-x)**nu = -x**nu, so the map is the
    plus map in y = -x, and its single negative root is computed as the plus
    root negated, with the mirrored bracket.  Minus branch, even nu: count
    follows the q vs p-1 trichotomy (two roots when q < p-1, the root -1
    alone when q = p-1, none when q > p-1); in a thin band of q just above
    p-1 with p far from nu+1 the polynomial admits further negative roots
    that are outside this contract.  An empty list is a valid outcome.
    """
    p, q, nu = eq.p, eq.q, eq.nu

    if eq.branch is Branch.MINUS and nu % 2 == 1:
        (plus,) = equilibria(EquationSpec.plus(p, q, nu))
        return [EquilibriumReport(-plus.value, _MIRRORED[plus.bracket])]

    if eq.branch is Branch.PLUS:
        if q == p + 1:
            return [EquilibriumReport(1.0, Bracket.AT_ONE)]
        bracket = Bracket.IN_UNIT_INTERVAL if q < p + 1 else Bracket.BEYOND_ONE
        if nu == 1:
            value = (-float(p) + binet_roots(float(p), float(q)).discriminant ** 0.5) / 2.0
        if nu > 1 or not math.isfinite(value):  # at nu = 1, p*p + 4q can overflow
            hi = float(max(Fraction(1), q / p)) + 1.0
            try:
                hi ** (nu + 1)
            except OverflowError:  # every positive root has x**(nu+1) < q and p*x < q
                hi = min(float(q / p), float(q) ** (1.0 / (nu + 1)))
            value = _bisect(eq, 0.0, hi)
        return [EquilibriumReport(_polish(eq, value), bracket)]

    # even nu on the minus branch
    if q == p - 1:
        return [EquilibriumReport(-1.0, Bracket.AT_MINUS_ONE)]
    if q > p - 1:
        return []
    inner = _polish(eq, _bisect(eq, -1.0, 0.0))
    left = 2.0
    try:
        while equilibrium_polynomial(eq, -left) >= 0.0:
            left *= 2.0
    except OverflowError:  # the outer root -a has a**(nu+1) = p*a - q < p*a, so a < p**(1/nu)
        left = float(p) ** (1.0 / nu)
    outer = _polish(eq, _bisect(eq, -left, -1.0))
    return [
        EquilibriumReport(inner, Bracket.IN_MINUS_UNIT),
        EquilibriumReport(outer, Bracket.BELOW_MINUS_ONE),
    ]


def classify_stability(eq: EquationSpec, report: EquilibriumReport) -> EquilibriumReport:
    """Fill in the linearization multiplier and the stability classification.

    The multiplier is the map derivative at the equilibrium,
    -q*nu*x**(nu-1) / (sign*p + x**nu)**2.  Classification: locally
    asymptotically stable when |multiplier| < 1 - 1e-12, unstable when
    |multiplier| > 1 + 1e-12, marginal in between (linearization is
    inconclusive there and no asymptotic claim is made).
    """
    x = report.value
    if not abs(equilibrium_polynomial(eq, x)) <= 1e-8 * max(1.0, float(eq.q)):  # nan too
        raise ValueError(f"{x} does not satisfy the equilibrium polynomial")
    multiplier = -float(eq.q) * eq.nu * x ** (eq.nu - 1) / eq.denominator(float(x)) ** 2
    magnitude = abs(multiplier)
    if magnitude < 1.0 - MARGINAL_BAND:
        classification = Stability.LOCALLY_ASYMPTOTICALLY_STABLE
    elif magnitude > 1.0 + MARGINAL_BAND:
        classification = Stability.UNSTABLE
    else:
        classification = Stability.MARGINALLY_STABLE
    return report._replace(multiplier=multiplier, classification=classification)


def linear_stability_criterion(coeffs: Sequence[float]) -> bool:
    """Sufficient condition for asymptotic stability of a linear difference
    equation: the absolute values of its coefficients sum below one."""
    return sum(abs(float(c)) for c in coeffs) < 1.0


class PeriodTwoCycle(NamedTuple):
    """A prime two-cycle (phi, psi); residual is the worst defect of the two
    defining equations value*(sign*p + other**nu) = q.  approx_form holds the
    closed candidates (q/p, q/(p+(q/p)**nu)) and their branch variants; they
    are an approximation (good for large nu), reported for comparison, never
    asserted."""

    phi: float
    psi: float
    residual: float
    approx_form: Tuple[float, float]


def _sign_of(value) -> int:
    return (value > 0) - (value < 0)


def _second_iterate_sign(eq: EquationSpec, x) -> Optional[int]:
    """Sign of f(f(x)) - x, or None when the evaluation crosses a pole."""
    den1 = eq.denominator(x)
    if den1 == 0:
        return None
    x1 = eq.q / den1
    den2 = eq.denominator(x1)
    if den2 == 0:
        return None
    return _sign_of(eq.q / den2 - x)


def _cycle_newton(eq: EquationSpec, phi: float, psi: float) -> Tuple[float, float]:
    """Polish the pair on the full 2x2 cycle system for machine-level residuals."""
    q, nu = float(eq.q), eq.nu
    for _ in range(8):
        a11 = eq.denominator(psi)
        a22 = eq.denominator(phi)
        f1 = phi * a11 - q
        f2 = psi * a22 - q
        a12 = phi * nu * psi ** (nu - 1)
        a21 = psi * nu * phi ** (nu - 1)
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            break
        phi -= (f1 * a22 - f2 * a12) / det
        psi -= (f2 * a11 - f1 * a21) / det
    return phi, psi


def _cycle_residual(eq: EquationSpec, phi: float, psi: float) -> float:
    q = float(eq.q)
    return max(abs(phi * eq.denominator(psi) - q), abs(psi * eq.denominator(phi) - q))


def _certified_sign(predicate: SignPredicate, eq: EquationSpec, x: Fraction) -> Optional[int]:
    """The exact value of a region's sign predicate (None outside the region)
    at x: decided on an interval enclosure of x when that proves it, else by
    running the predicate on x itself."""
    try:
        return predicate(eq, Interval.enclose(x))
    except Undecided:
        return predicate(eq, x)


def _cycle_search(
    eq: EquationSpec, predicate: SignPredicate, grid: Sequence[Fraction], tol: float
) -> Optional[Fraction]:
    """Cycle point phi: the first zero of the certified sign on the ascending
    grid, or its first consecutive (+, -) pair (skipping None) bisected to
    width min(tol, 1e-12).  No bracket on the grid means no root."""
    lo: Optional[Fraction] = None  # last grid point with sign +1
    for point in grid:
        s = _certified_sign(predicate, eq, point)
        if s is None:
            continue
        if s == 0:
            return point
        if s < 0 and lo is not None:
            hi = point
            break
        lo = point if s > 0 else None
    else:
        return None

    width = Fraction(min(tol, 1e-12))
    for _ in range(80):
        mid = (lo + hi) / 2
        s = _certified_sign(predicate, eq, mid)
        if s is None or s == 0:
            return mid
        if s > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return (lo + hi) / 2


def _finish_cycle(
    eq: EquationSpec, root: Optional[Fraction], approx_form: Tuple[float, float]
) -> Optional[PeriodTwoCycle]:
    if root is None:
        return None
    phi = float(root)
    den = eq.denominator(phi)
    if den == 0.0:
        return None
    psi = float(eq.q) / den
    phi, psi = _cycle_newton(eq, phi, psi)
    if abs(phi - psi) <= CYCLE_SEPARATION:
        return None
    residual = _cycle_residual(eq, phi, psi)
    return PeriodTwoCycle(phi=phi, psi=psi, residual=residual, approx_form=approx_form)


def _approx_form(eq: EquationSpec) -> Tuple[float, float]:
    p, q, nu = float(eq.p), float(eq.q), eq.nu
    ratio_pow = (q / p) ** nu
    if eq.branch is Branch.MINUS and nu % 2 == 0:
        den = -p + ratio_pow
        return (-q / p, q / den if den != 0.0 else float("inf"))
    sign = eq.sign  # odd nu on minus: the plus pair, negated
    return (sign * q / p, sign * q / (p + ratio_pow))


def _positive_root(eq: EquationSpec, tol: float) -> Optional[Fraction]:
    """Cycle point of the plus branch inside (equilibrium, q/p].  The map is
    decreasing on positive values, so the cycle straddles the equilibrium
    x = q/(p + x**nu) < q/p.  The grid ends at q/p, where g < 0 strictly
    (f(q/p) > 0 implies f(f(q/p)) < q/p), so a positive point has a bracket."""
    xbar = Fraction(equilibria(eq)[0].value)
    hi = eq.q / eq.p
    offsets = {Fraction(1, 10 ** k) for k in range(1, 10)}
    offsets |= {Fraction(j, 64) for j in range(1, 65)}
    grid = [xbar + (hi - xbar) * tau for tau in sorted(offsets)]
    return _cycle_search(eq, _second_iterate_sign, grid, tol)


def _psi_sign(eq: EquationSpec, alpha) -> Optional[int]:
    """Sign of alpha*(B**nu - p) - q with B = q/(alpha**nu - p), or None
    outside the mixed-cycle region alpha**nu > p."""
    den = eq.denominator(alpha)
    if den <= 0:
        return None
    return _sign_of(alpha * eq.denominator(eq.q / den) - eq.q)


def _mixed_root(eq: EquationSpec, tol: float) -> Optional[Fraction]:
    """Negative point alpha of the mixed-sign two-cycle, minus branch, even
    nu: alpha**nu > p (its image is positive) and _psi_sign changes sign at
    alpha.  No equilibrium can enter this region (alpha**nu > p forces the
    equilibrium polynomial negative), so any root is a genuine prime cycle."""
    p, q, nu = eq.p, eq.q, eq.nu
    edge = float(p) ** (1.0 / nu)
    far = max(float(q / p) + 2.0, edge + 2.0, 4.0)
    for _ in range(40):
        left = Fraction(-far).limit_denominator(10 ** 9)
        if _certified_sign(_psi_sign, eq, left) == 1:
            break
        far *= 2.0
    else:
        return None

    grid: List[Fraction] = [left]
    span = -float(left) - edge
    for j in range(1, 97):
        grid.append(Fraction(-(edge + span * (96 - j) / 96.0)).limit_denominator(10 ** 12))
    for k in range(1, 10):
        grid.append(Fraction(-(edge * (1.0 + 10.0 ** -k))).limit_denominator(10 ** 12))
    return _cycle_search(eq, _psi_sign, sorted(set(grid)), tol)


def solve_period_two(eq: EquationSpec, tol: float = 1e-10) -> Optional[PeriodTwoCycle]:
    """Prime two-cycle of the map, or None when none exists in the studied
    region (positive values on the plus branch, their mirror for odd nu on
    minus, the mixed-sign region for even nu on minus).

    Existence is decided first, exactly.  On the plus branch, mirrored for odd
    nu on minus, the map is decreasing with negative Schwarzian derivative, so
    a cycle exists iff the equilibrium is unstable: iff nu^nu p^(nu+1) <
    q^nu (nu-1)^(nu+1) (Singer, SIAM J. Appl. Math. 1978).  Equality is the
    flip tangency, for example (1,2,2), where f(f(x)) - x has numerator
    -(x-1)^3 (x^2+x+2): no prime cycle.  For even nu on minus the mixed-sign
    cycle always exists (intermediate value theorem).  The search only
    locates the cycle.  Every cycle reports approx_form, so its float
    overflow is raised before the search."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p, q, nu = eq.p, eq.q, eq.nu
    mixed = eq.branch is Branch.MINUS and nu % 2 == 0
    if not mixed and not nu ** nu * p ** (nu + 1) < q ** nu * (nu - 1) ** (nu + 1):
        return None
    approx_form = _approx_form(eq)
    if mixed:
        return _finish_cycle(eq, _mixed_root(eq, tol), approx_form)
    plus = EquationSpec.plus(p, q, nu)
    cycle = _finish_cycle(plus, _positive_root(plus, tol), approx_form)
    if eq.branch is Branch.PLUS or cycle is None:
        return cycle
    # negation is exact, so the minus residual has the plus residual's bits
    return cycle._replace(phi=-cycle.phi, psi=-cycle.psi)


def smallest_even_cycle_exponent(p, q, cap: int = 64) -> Optional[int]:
    """Smallest even nu <= cap for which the minus branch has a prime
    two-cycle.  For every even nu the mixed-sign cycle exists (intermediate
    value theorem on the one-variable cycle map of _mixed_root), so this is
    2 when cap >= 2 and None otherwise."""
    EquationSpec.minus(p, q, 2)  # validates p and q
    return 2 if cap >= 2 else None
