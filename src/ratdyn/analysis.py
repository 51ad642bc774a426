"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

There are two regions: the plus branch, and the mixed-sign region of even nu
on minus.  For odd nu, (-x)**nu = -x**nu makes the minus map the plus map in
y = -x, so its equilibrium and two-cycle are computed as the plus branch's,
negated (exactly, in floats): analyze and period2 share one equilibrium and
print exact mirrors.  Equilibria are roots of x**(nu+1) + sign*p*x - q
(sign +1 on the plus branch, -1 on minus), bracketed by powers of two and
bisected on certified signs until the bracket holds one float: the float
nearest the root.  Whether a prime two-cycle exists is decided exactly,
before any search, by the criterion in solve_period_two.  The one search,
_cycle_search, then only locates the cycle, or refuses with ValueError
where floats cannot: a scan of rational grids for a sign change of a sign
predicate, bisection, then Newton polish on the cycle system.  A region
supplies only its predicate and grids: g(x) = f(f(x)) - x above the
equilibrium on the plus branch, and a one-variable reduction of the cycle
equations in the mixed-sign region.
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
# bench/trace_run.py wraps this module's `binet_roots`.
from .horadam import binet_roots  # noqa: F401
from .interval import Interval, Undecided

MARGINAL_BAND = 1e-12
CYCLE_SEPARATION = 1e-8
_UNLOCATED = "a prime two-cycle exists, but float arithmetic cannot locate it"

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


def _sign_of(value) -> int:
    return (value > 0) - (value < 0)


def _equilibrium_sign(eq: EquationSpec, x) -> int:
    """Sign of the equilibrium polynomial at x, in the arithmetic of x."""
    return _sign_of(x * eq.denominator(x) - eq.q)


def _rounded_root(eq: EquationSpec, start: int, factor: Fraction) -> float:
    """The float nearest the first root of the equilibrium polynomial met
    from start (1 or -1, not a root) by steps x -> x*factor (2 or 1/2).  The
    steps stop at a certified sign change; bisection on Fractions then
    narrows the bracket until both ends round to one float, which is the
    root's, since float(Fraction) rounds correctly and rounding is monotone."""
    inside = Fraction(start)  # the bracket end with the start's sign
    side = _certified_sign(_equilibrium_sign, eq, inside)
    outside = inside * factor
    while (s := _certified_sign(_equilibrium_sign, eq, outside)) == side:
        inside, outside = outside, outside * factor
    while s != 0 and float(inside) != float(outside):
        mid = (inside + outside) / 2
        s = _certified_sign(_equilibrium_sign, eq, mid)
        if s == side:
            inside = mid
        else:
            outside = mid
    return float(outside)


def equilibria(eq: EquationSpec) -> List[EquilibriumReport]:
    """All equilibria in the studied range, with location brackets; each
    value is the float nearest the exact root.

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
    half, double = Fraction(1, 2), Fraction(2)

    if eq.branch is Branch.MINUS and nu % 2 == 1:
        (plus,) = equilibria(EquationSpec.plus(p, q, nu))
        return [EquilibriumReport(-plus.value, _MIRRORED[plus.bracket])]

    if eq.branch is Branch.PLUS:
        if q == p + 1:
            return [EquilibriumReport(1.0, Bracket.AT_ONE)]
        if q < p + 1:
            return [EquilibriumReport(_rounded_root(eq, 1, half), Bracket.IN_UNIT_INTERVAL)]
        return [EquilibriumReport(_rounded_root(eq, 1, double), Bracket.BEYOND_ONE)]

    # even nu on the minus branch: at t = -x > 0 the polynomial is
    # -t**(nu+1) + p*t - q, concave, so the steps from -1 meet one root each way
    if q == p - 1:
        return [EquilibriumReport(-1.0, Bracket.AT_MINUS_ONE)]
    if q > p - 1:
        return []
    return [
        EquilibriumReport(_rounded_root(eq, -1, half), Bracket.IN_MINUS_UNIT),
        EquilibriumReport(_rounded_root(eq, -1, double), Bracket.BELOW_MINUS_ONE),
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
    num, den = -float(eq.q) * eq.nu * x ** (eq.nu - 1), eq.denominator(float(x))
    try:
        multiplier = num / den ** 2
    except OverflowError:  # den**2 overflows where num/den/den may be finite
        multiplier = num / den / den
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


def _cycle_defects(eq: EquationSpec, phi: float, psi: float) -> List[Tuple[float, float]]:
    """(|a*(sign*p + b**nu) - q|, its largest term) for (a, b) = (phi, psi)
    and (psi, phi): the defects of the two cycle equations and their scales."""
    p, q = float(eq.p), float(eq.q)
    return [(abs(a * eq.denominator(b) - q), max(q, abs(a * b ** eq.nu), abs(a * p)))
            for a, b in ((phi, psi), (psi, phi))]


def _certified_sign(predicate: SignPredicate, eq: EquationSpec, x: Fraction) -> Optional[int]:
    """The exact value of a region's sign predicate (None outside the region)
    at x: decided on an interval enclosure of x when that proves it, else by
    running the predicate on x itself."""
    try:
        return predicate(eq, Interval.enclose(x))
    except Undecided:
        return predicate(eq, x)


def _cycle_search(
    eq: EquationSpec, predicate: SignPredicate, grids: Sequence[Sequence[Fraction]], tol: float
) -> Fraction:
    """Cycle point phi: the first zero of the certified sign on an ascending
    grid, or its first consecutive (+, -) pair (skipping None) bisected to
    width min(tol, 1e-12).  A grid is scanned only when the grids before it
    hold no bracket.  The criterion has already proved that a cycle exists,
    so when no grid holds a bracket the search refuses with ValueError."""
    for grid in grids:
        lo: Optional[Fraction] = None  # last grid point with sign +1
        for point in grid:
            s = _certified_sign(predicate, eq, point)
            if s is None:
                continue
            if s == 0:
                return point
            if s < 0 and lo is not None:
                return _bisect_sign(eq, predicate, lo, point, tol)
            lo = point if s > 0 else None
    raise ValueError(_UNLOCATED)


def _bisect_sign(eq: EquationSpec, predicate: SignPredicate, lo: Fraction, hi: Fraction,
                 tol: float) -> Fraction:
    """A zero of the certified sign in (lo, hi), where it is +1 at lo and -1 at hi."""
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


def _finish_cycle(eq: EquationSpec, root: Fraction, approx_form: Tuple[float, float]
                  ) -> PeriodTwoCycle:
    """The cycle through root, polished in floats; ValueError where the float
    pair leaves the region (denominator > 0), collapses onto an equilibrium,
    or misses a cycle equation by more than 1e-9 of its largest term."""
    phi = float(root)
    den = eq.denominator(phi)
    if den > 0.0:
        phi, psi = _cycle_newton(eq, phi, float(eq.q) / den)
        if abs(phi - psi) > CYCLE_SEPARATION and eq.denominator(Fraction(phi)) > 0:
            defects = _cycle_defects(eq, phi, psi)
            if all(defect <= 1e-9 * scale for defect, scale in defects):
                return PeriodTwoCycle(phi, psi, max(d for d, _ in defects), approx_form)
    raise ValueError(_UNLOCATED)


def _approx_form(eq: EquationSpec) -> Tuple[float, float]:
    p, q, nu = float(eq.p), float(eq.q), eq.nu
    ratio_pow = (q / p) ** nu
    if eq.branch is Branch.MINUS and nu % 2 == 0:
        den = -p + ratio_pow
        return (-q / p, q / den if den != 0.0 else float("inf"))
    sign = eq.sign  # odd nu on minus: the plus pair, negated
    return (sign * q / p, sign * q / (p + ratio_pow))


def _positive_root(eq: EquationSpec, tol: float) -> Fraction:
    """Cycle point of the plus branch inside (equilibrium, q/p].  The map is
    decreasing on positive values, so the cycle straddles the equilibrium
    x = q/(p + x**nu) < q/p.  The grid ends at q/p, where g < 0 strictly
    (f(q/p) > 0 implies f(f(q/p)) < q/p), so a positive point has a bracket."""
    xbar = Fraction(equilibria(eq)[0].value)
    hi = eq.q / eq.p
    offsets = {Fraction(1, 10 ** k) for k in range(1, 10)}
    offsets |= {Fraction(j, 64) for j in range(1, 65)}
    grid = [xbar + (hi - xbar) * tau for tau in sorted(offsets)]
    return _cycle_search(eq, _second_iterate_sign, [grid], tol)


def _psi_sign(eq: EquationSpec, alpha) -> Optional[int]:
    """Sign of alpha*(B**nu - p) - q with B = q/(alpha**nu - p), or None
    outside the mixed-cycle region alpha**nu > p."""
    den = eq.denominator(alpha)
    if den <= 0:
        return None
    return _sign_of(alpha * eq.denominator(eq.q / den) - eq.q)


def _mixed_root(eq: EquationSpec, tol: float) -> Fraction:
    """Negative point alpha of the mixed-sign two-cycle, minus branch, even
    nu: alpha**nu > p (its image is positive) and _psi_sign changes sign at
    alpha.  No equilibrium can enter this region (alpha**nu > p forces the
    equilibrium polynomial negative), so any root is a genuine prime cycle.
    A second grid, down to -top*(1 + 10**-16) for an exact top >= p**(1/nu),
    seeks a root closer to the edge than the first grid's nearest point."""
    p, q, nu = eq.p, eq.q, eq.nu
    edge = float(p) ** (1.0 / nu)
    far = max(float(q / p) + 2.0, edge + 2.0, 4.0)
    for _ in range(40):
        left = Fraction(-far).limit_denominator(10 ** 9)
        if _certified_sign(_psi_sign, eq, left) == 1:
            break
        far *= 2.0
    else:
        raise ValueError(_UNLOCATED)

    span = -float(left) - edge
    grid = [left] + [Fraction(-(edge + span * (96 - j) / 96.0)).limit_denominator(10 ** 12)
                     for j in range(1, 97)]
    near = [Fraction(-(edge * (1.0 + 10.0 ** -k))).limit_denominator(10 ** 12)
            for k in range(1, 10)]
    top = Fraction(edge)
    while top ** nu < p:
        top = Fraction(math.nextafter(float(top), math.inf))
    nearer = [-top * (1 + Fraction(1, 10 ** k)) for k in range(10, 17)]
    return _cycle_search(eq, _psi_sign, [sorted(set(grid + near)), sorted(near + nearer)], tol)


def solve_period_two(eq: EquationSpec, tol: float = 1e-10) -> Optional[PeriodTwoCycle]:
    """Prime two-cycle of the map, or None when none exists in the studied
    region (positive values on the plus branch, their mirror for odd nu on
    minus, the mixed-sign region for even nu on minus).

    Existence is decided first, exactly, and is the only source of None.  On
    the plus branch, mirrored for odd nu on minus, the map is decreasing with
    negative Schwarzian derivative, so a cycle exists iff the equilibrium is
    unstable: iff nu^nu p^(nu+1) < q^nu (nu-1)^(nu+1) (Singer, SIAM J. Appl.
    Math. 1978).  Equality is the flip tangency, for example (1,2,2), where
    f(f(x)) - x has numerator -(x-1)^3 (x^2+x+2): no prime cycle.  For even
    nu on minus the mixed-sign cycle always exists (intermediate value
    theorem).  The search only locates the cycle, bisecting to width
    min(tol, 1e-12), so every tol >= 1e-12 gives the cycle of the default
    tol; where floats cannot (near the flip tangency, or at the mixed
    region's edge), or the polished pair misses a cycle equation, it raises
    ValueError.  Every cycle reports approx_form, so its float overflow is
    raised before the search."""
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
    # negation is exact, so odd nu on minus has the plus residual's bits
    return cycle._replace(phi=eq.sign * cycle.phi, psi=eq.sign * cycle.psi)


def smallest_even_cycle_exponent(p, q, cap: int = 64) -> Optional[int]:
    """Smallest even nu <= cap for which the minus branch has a prime
    two-cycle.  For every even nu the mixed-sign cycle exists (intermediate
    value theorem on the one-variable cycle map of _mixed_root), so this is
    2 when cap >= 2 and None otherwise."""
    EquationSpec.minus(p, q, 2)  # validates p and q
    return 2 if cap >= 2 else None
