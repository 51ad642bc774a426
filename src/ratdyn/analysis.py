"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

Equilibria are roots of x**(nu+1) + sign*p*x - q (sign +1 on the plus
branch, -1 on minus), located by sign-bracketed bisection and polished by
Newton steps.  Every two-cycle comes from one search, _cycle_search: a scan
of a rational grid for a sign change of an exact sign predicate, exact
bisection, then Newton polish on the cycle system.  A region supplies only
its predicate and grid: g(x) = f(f(x)) - x above the equilibrium on the plus
branch (mirrored for odd nu on minus), and a one-variable reduction of the
cycle equations in the mixed-sign region for even nu on minus.  Exact signs
make the existence decision immune to floating noise near degenerate
tangencies, where a float root-finder can stall on a pseudo-root.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .equation import Branch, EquationSpec
from .errors import NotAnEquilibrium
from .horadam import binet_roots

MARGINAL_BAND = 1e-12
CYCLE_SEPARATION = 1e-8


class Bracket(Enum):
    IN_UNIT_INTERVAL = "in_unit_interval"
    AT_ONE = "at_one"
    BEYOND_ONE = "beyond_one"
    IN_MINUS_UNIT = "in_minus_unit"
    AT_MINUS_ONE = "at_minus_one"
    BELOW_MINUS_ONE = "below_minus_one"


class Stability(Enum):
    LOCALLY_ASYMPTOTICALLY_STABLE = "locally_asymptotically_stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class EquilibriumReport:
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


def _bisect(f, lo: float, hi: float, iterations: int = 100) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if f(hi) == 0.0:
        return hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _polish(eq: EquationSpec, x: float, rounds: int = 4) -> float:
    for _ in range(rounds):
        deriv = _polynomial_derivative(eq, x)
        if deriv == 0.0:
            break
        x -= equilibrium_polynomial(eq, x) / deriv
    return x


def equilibria(eq: EquationSpec) -> List[EquilibriumReport]:
    """All equilibria in the studied range, with location brackets.

    Plus branch: the single positive root (the polynomial is strictly
    increasing on (0, inf)); it sits below, at, or above 1 according to
    q <=> p+1.  Minus branch, odd nu: the single negative root, trichotomy
    against p+1 again.  Minus branch, even nu: count follows the q vs p-1
    trichotomy (two roots when q < p-1, the root -1 alone when q = p-1,
    none when q > p-1); in a thin band of q just above p-1 with p far from
    nu+1 the polynomial admits further negative roots that are outside this
    contract.  An empty list is a valid outcome.
    """
    p, q, nu = eq.p, eq.q, eq.nu

    if eq.branch is Branch.PLUS:
        if q == p + 1:
            return [EquilibriumReport(1.0, Bracket.AT_ONE)]
        bracket = Bracket.IN_UNIT_INTERVAL if q < p + 1 else Bracket.BEYOND_ONE
        if nu == 1:
            value = (-float(p) + binet_roots(float(p), float(q)).discriminant ** 0.5) / 2.0
        else:
            hi = float(max(Fraction(1), q / p)) + 1.0
            value = _bisect(lambda x: equilibrium_polynomial(eq, x), 0.0, hi)
        return [EquilibriumReport(_polish(eq, value), bracket)]

    if nu % 2 == 1:
        if q == p + 1:
            return [EquilibriumReport(-1.0, Bracket.AT_MINUS_ONE)]
        if nu == 1:
            roots = binet_roots(float(p), float(q))
            value = roots.phi_minus
        elif q < p + 1:
            value = _bisect(lambda x: equilibrium_polynomial(eq, x), -1.0, 0.0)
        else:
            left = 2.0
            while equilibrium_polynomial(eq, -left) <= 0.0:
                left *= 2.0
            value = _bisect(lambda x: equilibrium_polynomial(eq, x), -left, -1.0)
        bracket = Bracket.IN_MINUS_UNIT if q < p + 1 else Bracket.BELOW_MINUS_ONE
        return [EquilibriumReport(_polish(eq, value), bracket)]

    # even nu on the minus branch
    if q == p - 1:
        return [EquilibriumReport(-1.0, Bracket.AT_MINUS_ONE)]
    if q > p - 1:
        return []
    inner = _polish(eq, _bisect(lambda x: equilibrium_polynomial(eq, x), -1.0, 0.0))
    left = 2.0
    while equilibrium_polynomial(eq, -left) >= 0.0:
        left *= 2.0
    outer = _polish(eq, _bisect(lambda x: equilibrium_polynomial(eq, x), -left, -1.0))
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
    if abs(equilibrium_polynomial(eq, x)) > 1e-8 * max(1.0, float(eq.q)):
        raise NotAnEquilibrium(f"{x} does not satisfy the equilibrium polynomial")
    den = eq.sign * float(eq.p) + x ** eq.nu
    multiplier = -float(eq.q) * eq.nu * x ** (eq.nu - 1) / den ** 2
    magnitude = abs(multiplier)
    if magnitude < 1.0 - MARGINAL_BAND:
        classification = Stability.LOCALLY_ASYMPTOTICALLY_STABLE
    elif magnitude > 1.0 + MARGINAL_BAND:
        classification = Stability.UNSTABLE
    else:
        classification = Stability.MARGINALLY_STABLE
    return dataclasses.replace(report, multiplier=multiplier, classification=classification)


def linear_stability_criterion(coeffs: Sequence[float]) -> bool:
    """Sufficient condition for asymptotic stability of a linear difference
    equation: the absolute values of its coefficients sum below one."""
    return sum(abs(float(c)) for c in coeffs) < 1.0


@dataclass(frozen=True)
class PeriodTwoCycle:
    """A prime two-cycle (phi, psi); residual is the worst defect of the two
    defining equations value*(sign*p + other**nu) = q.  approx_form holds the
    closed candidates (q/p, q/(p+(q/p)**nu)) and their branch variants; they
    are an approximation (good for large nu), reported for comparison, never
    asserted."""

    phi: float
    psi: float
    residual: float
    approx_form: Tuple[float, float]


def _sign_of(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _second_iterate_sign(eq: EquationSpec, x: Fraction) -> Optional[int]:
    """Exact sign of f(f(x)) - x, or None when the evaluation crosses a pole."""
    den1 = eq.denominator(x)
    if den1 == 0:
        return None
    x1 = eq.q / den1
    den2 = eq.denominator(x1)
    if den2 == 0:
        return None
    return _sign_of(eq.q / den2 - x)


def _cycle_newton(eq: EquationSpec, phi: float, psi: float, rounds: int = 8) -> Tuple[float, float]:
    """Polish the pair on the full 2x2 cycle system for machine-level residuals."""
    p, q, nu, s = float(eq.p), float(eq.q), eq.nu, eq.sign
    for _ in range(rounds):
        f1 = phi * (s * p + psi ** nu) - q
        f2 = psi * (s * p + phi ** nu) - q
        a11 = s * p + psi ** nu
        a12 = phi * nu * psi ** (nu - 1)
        a21 = psi * nu * phi ** (nu - 1)
        a22 = s * p + phi ** nu
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            break
        phi -= (f1 * a22 - f2 * a12) / det
        psi -= (f2 * a11 - f1 * a21) / det
    return phi, psi


def _cycle_residual(eq: EquationSpec, phi: float, psi: float) -> float:
    p, q, s = float(eq.p), float(eq.q), eq.sign
    return max(
        abs(phi * (s * p + psi ** eq.nu) - q),
        abs(psi * (s * p + phi ** eq.nu) - q),
    )


def _cycle_search(
    eq: EquationSpec,
    sign: Callable[[Fraction], Optional[int]],
    grid: Sequence[Fraction],
    tol: float,
) -> Optional[PeriodTwoCycle]:
    """Two-cycle through a root of an exact sign predicate.

    Scans the ascending grid for the first zero of `sign` or the first
    consecutive (+, -) pair, skipping points where `sign` is None (outside
    the region), bisects that bracket exactly to width min(tol, 1e-12) and
    finishes the root as phi.  No bracket on the grid means no cycle.
    """
    lo: Optional[Fraction] = None  # last grid point with sign +1
    for point in grid:
        s = sign(point)
        if s is None:
            continue
        if s == 0:
            return _finish_cycle(eq, point)
        if s < 0 and lo is not None:
            hi = point
            break
        lo = point if s > 0 else None
    else:
        return None

    width = Fraction(min(tol, 1e-12))
    for _ in range(80):
        mid = (lo + hi) / 2
        s = sign(mid)
        if s is None or s == 0:
            return _finish_cycle(eq, mid)
        if s > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return _finish_cycle(eq, (lo + hi) / 2)


def _finish_cycle(eq: EquationSpec, root: Fraction) -> Optional[PeriodTwoCycle]:
    phi = float(root)
    den = eq.sign * float(eq.p) + phi ** eq.nu
    if den == 0.0:
        return None
    psi = float(eq.q) / den
    phi, psi = _cycle_newton(eq, phi, psi)
    if abs(phi - psi) <= CYCLE_SEPARATION:
        return None
    residual = _cycle_residual(eq, phi, psi)
    return PeriodTwoCycle(
        phi=phi, psi=psi, residual=residual, approx_form=_approx_form(eq)
    )


def _approx_form(eq: EquationSpec) -> Tuple[float, float]:
    p, q, nu = float(eq.p), float(eq.q), eq.nu
    ratio_pow = (q / p) ** nu
    if eq.branch is Branch.PLUS:
        return (q / p, q / (p + ratio_pow))
    if nu % 2 == 1:
        return (-q / p, -q / (p + ratio_pow))
    den = -p + ratio_pow
    return (-q / p, q / den if den != 0.0 else float("inf"))


def _positive_cycle(eq: EquationSpec, tol: float) -> Optional[PeriodTwoCycle]:
    """Two-cycle of the plus branch inside (equilibrium, q/p].

    On positive values the map is strictly decreasing, so its second iterate
    is increasing and any cycle straddles the equilibrium; a cycle exists iff
    g > 0 somewhere above it.  The grid ends at q/p, where g < 0 strictly
    (f(q/p) > 0 implies f(f(q/p)) < q/p), so a positive grid point always
    has a bracket.  Signs are exact, so a degenerate tangency (second
    iterate touching the diagonal at the equilibrium alone) can never
    produce a false positive.
    """
    xbar = Fraction(equilibria(eq)[0].value)
    hi = eq.q / eq.p
    if xbar >= hi:
        return None
    offsets = {Fraction(1, 10 ** k) for k in range(1, 10)}
    offsets |= {Fraction(j, 64) for j in range(1, 65)}
    grid = [xbar + (hi - xbar) * tau for tau in sorted(offsets)]
    return _cycle_search(eq, lambda x: _second_iterate_sign(eq, x), grid, tol)


def _mixed_cycle(eq: EquationSpec, tol: float) -> Optional[PeriodTwoCycle]:
    """Mixed-sign two-cycle of the minus branch for even nu.

    The negative point alpha satisfies alpha**nu > p (its image is positive)
    and is a root of psi_fn(alpha) = alpha*(B**nu - p) - q with
    B = q/(alpha**nu - p).  No equilibrium can enter this region
    (alpha**nu > p forces the equilibrium polynomial negative), so any sign
    change is a genuine prime cycle.  Its image B has 0 < B**nu < p, so
    |alpha| = q/(p - B**nu) > q/p: a float overflow of (q/p)**nu, which every
    found cycle needs, is raised here before the exact scan.
    """
    _approx_form(eq)  # raises that OverflowError, if any
    p, q, nu = eq.p, eq.q, eq.nu

    def psi_sign(alpha: Fraction) -> Optional[int]:
        den = alpha ** nu - p
        if den <= 0:
            return None  # outside the mixed-cycle region
        b = q / den
        return _sign_of(alpha * (b ** nu - p) - q)

    edge = float(p) ** (1.0 / nu)
    far = max(float(q / p) + 2.0, edge + 2.0, 4.0)
    for _ in range(40):
        left = Fraction(-far).limit_denominator(10 ** 9)
        if psi_sign(left) == 1:
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
    return _cycle_search(eq, psi_sign, sorted(set(grid)), tol)


def solve_period_two(eq: EquationSpec, tol: float = 1e-10) -> Optional[PeriodTwoCycle]:
    """Prime two-cycle of the map, or None when no cycle exists in the
    searched region (positive values on the plus branch, their mirror for
    odd nu on minus, the mixed-sign region for even nu on minus).

    At a flip tangency, where the multiplier is exactly -1 and the second
    iterate touches the diagonal only at the equilibrium (for example
    (p,q,nu) = (1,2,2), where f(f(x)) - x has numerator
    -(x-1)^3 (x^2+x+2)), there is no prime two-cycle and the result is None."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if eq.branch is Branch.PLUS:
        return _positive_cycle(eq, tol)
    if eq.nu % 2 == 1:
        conj = _positive_cycle(EquationSpec.plus(eq.p, eq.q, eq.nu), tol)
        if conj is None:
            return None
        phi, psi = -conj.phi, -conj.psi
        return PeriodTwoCycle(
            phi=phi,
            psi=psi,
            residual=_cycle_residual(eq, phi, psi),
            approx_form=_approx_form(eq),
        )
    return _mixed_cycle(eq, tol)


def smallest_even_cycle_exponent(p, q, cap: int = 64) -> Optional[int]:
    """Smallest even nu <= cap for which the minus branch has a prime
    two-cycle; the existence statement being searched is non-constructive,
    so the cap is an explicit implementation bound."""
    for nu in range(2, cap + 1, 2):
        if solve_period_two(EquationSpec.minus(p, q, nu)) is not None:
            return nu
    return None
