"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

There are two regions: the plus branch, and the mixed-sign region of even nu
on minus.  For odd nu, (-x)**nu = -x**nu makes the minus map the plus map in
y = -x, so its equilibrium and two-cycle are computed as the plus branch's,
negated (exactly, in floats): analyze and period2 share one equilibrium and
print exact mirrors.  Equilibria are roots of x**(nu+1) + sign*p*x - q
(sign +1 on the plus branch, -1 on minus), bracketed by dyadic rationals and
bisected on certified signs until the bracket holds one float: the float
nearest the root.  How many equilibria there are, the stability class of
each, and whether a prime two-cycle exists are decided exactly, by one
integer comparison, _stable; only the multiplier beside the class is a float
evaluation.  The one search, _cycle_search, then only locates the cycle, or
refuses with ValueError where floats cannot: a scan of rational grids for a
sign change of a sign predicate, bisection, then Newton polish on the cycle
system.  A region supplies only its predicate and grids: g(x) = f(f(x)) - x
above the equilibrium on the plus branch, and a one-variable reduction of the
cycle equations in the mixed-sign region.
Each sign is evaluated first on an outward-rounded float enclosure
(ratdyn.interval); where that cannot prove the sign it abstains and the same
predicate runs on Fractions, so every sign the search sees is exact.
Floats propose, certified signs decide, and the certified scan and bisection
run otherwise (_round_and_certify).  Plain floats bisect a bracket or scan a
grid; only the cell or pair they propose is certified.  That is sound because
each predicate changes sign once where it is searched: the equilibrium
polynomial on each root's bracket; g from + to - above the equilibrium (the
only fixed points of f(f(x)) are psi < equilibrium < phi, by the negative
Schwarzian derivative); and in the mixed region h(alpha) =
alpha*(B**nu - p) - q from + to -, strictly decreasing where B**nu < p and
negative elsewhere.  So a certified proposal is the cell or pair the
certified search would reach, and the result is the same, bit for bit.
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


def _sign_of(value) -> int:
    return (value > 0) - (value < 0)


def _equilibrium_sign(eq: EquationSpec, x) -> int:
    """Sign of the equilibrium polynomial at x, in the arithmetic of x."""
    return _sign_of(x * eq.denominator(x) - eq.q)


def _rounded_root(eq: EquationSpec, start: Fraction, factor: Fraction) -> float:
    """The float nearest the first root of the equilibrium polynomial met
    from start (not a root) by steps x -> x*factor (2 or 1/2).  The
    steps stop at a certified sign change; bisection on Fractions then
    narrows the bracket until every point inside it rounds to one float,
    which is the root's, since float(Fraction) rounds correctly.
    The polynomial changes sign once on the bracket, so floats propose its
    cell at _float_level first and certified signs decide from there, or
    from the whole bracket where the certificate fails."""
    inside = start  # the bracket end with the start's sign
    side = _certified_sign(_equilibrium_sign, eq, inside)
    outside = inside * factor
    while (s := _certified_sign(_equilibrium_sign, eq, outside)) == side:
        inside, outside = outside, outside * factor
    if s != 0:
        inside, outside = _round_and_certify(eq, _equilibrium_sign, inside, outside, side,
                                             _float_level(inside))
    while s != 0 and (rounded := _one_float(inside, outside)) is None:
        mid = (inside + outside) / 2
        s = _certified_sign(_equilibrium_sign, eq, mid)
        if s == side:
            inside = mid
        else:
            outside = mid
    return float(outside) if s == 0 else rounded


def _one_float(a: Fraction, b: Fraction) -> Optional[float]:
    """The float that every point strictly between a and b rounds to, or
    None where they round to two: both ends round to it, or the rounding
    boundaries beside it, halfway to its float neighbours, lie outside."""
    x = float(a)
    if x == float(b):
        return x
    x = float((a + b) / 2)
    below, above = ((Fraction(x) + Fraction(math.nextafter(x, end))) / 2
                    for end in (-math.inf, math.inf))
    return x if below <= min(a, b) and max(a, b) <= above else None


def _float_level(x: Fraction) -> int:
    """Halvings of a bracket from x to 2x or x/2 whose cell ends are all
    floats: 53 - k - (m > 1) for x = m*2**e with m odd of k bits (52 from a
    power of two), none where x is not dyadic."""
    m, d = abs(x.numerator), x.denominator
    if d & (d - 1):
        return 0
    m >>= (m & -m).bit_length() - 1
    return max(0, 53 - m.bit_length() - (m > 1))


class _FloatSpec(NamedTuple):
    """An equation's q, sign*p and nu in floats: what a sign predicate reads."""

    q: float
    signed_p: float
    nu: int

    def denominator(self, x: float) -> float:
        return x ** self.nu + self.signed_p


def _float_spec(eq: EquationSpec) -> Optional[_FloatSpec]:
    """eq in floats, or None where p or q overflows a float."""
    try:
        return _FloatSpec(float(eq.q), float(eq.sign * eq.p), eq.nu)
    except OverflowError:
        return None


def _float_sign(predicate: SignPredicate, spec: _FloatSpec, x) -> Optional[int]:
    """The predicate's sign in floats, a proposal only: 0 where it is NaN,
    None outside the region or where a float overflows."""
    try:
        return predicate(spec, float(x))
    except ArithmeticError:
        return None


def _round_and_certify(eq: EquationSpec, predicate: SignPredicate, a: Fraction, b: Fraction,
                       side: int, levels: int) -> Tuple[Fraction, Fraction]:
    """Floats propose, certified signs decide (Ziv's round-and-certify, ACM
    TOMS 17(3), 1991).  The certified sign is side at a and -side at b and
    changes once between them.  Plain floats bisect the dyadic cells
    a + (b - a)*[j, j+1]/2**levels, stopping early where a probe no longer
    falls strictly inside its cell; a probe whose float sign is 0 or None (an
    overflow) is decided by its certified sign instead.  The cell reached is
    returned, a's side first, only once _certified_sign confirms side at one
    end and -side at the other (a certified 0 returns (x, x)); else (a, b)
    is returned.  A confirmed cell holds the one sign change, so it is the
    cell that the certified bisection of (a, b) passes through at that level."""
    spec = _float_spec(eq)
    try:
        x_a, span = float(a), float(b - a)
    except OverflowError:
        return a, b
    step, top = (b - a) / 2 ** levels, 2 ** levels
    lo, hi, x_lo, x_hi = 0, top, x_a, x_a + span  # cells by index: side at lo, -side at hi
    certified = {lo: side, hi: -side}
    while spec is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        x = x_a + span * math.ldexp(mid, -levels)
        if not min(x_lo, x_hi) < x < max(x_lo, x_hi):
            break
        s = _float_sign(predicate, spec, x)
        if not s:
            s = certified[mid] = _certified_sign(predicate, eq, a + step * mid)
            if not s:  # a certified 0 (the sign change), or None outside the region
                return (a + step * mid,) * 2 if s == 0 else (a, b)
        lo, hi, x_lo, x_hi = (mid, hi, x, x_hi) if s == side else (lo, mid, x_lo, x)
    if hi - lo == top:
        return a, b
    cell = []
    for index, want in ((lo, side), (hi, -side)):
        x = a + step * index
        s = certified[index] if index in certified else _certified_sign(predicate, eq, x)
        if s == 0:
            return x, x
        if s != want:
            return a, b
        cell.append(x)
    return cell[0], cell[1]


def _stable(eq: EquationSpec) -> int:
    """Sign of nu^nu p^(nu+1) - q^nu k^(nu+1), k = nu+1 for even nu on minus
    and nu-1 elsewhere: the one exact criterion behind every stability class,
    equilibrium count and cycle existence.  It is the sign of q/nu - c**(nu+1)
    at c = k*q/(nu*p), and x**nu = q/x - sign*p turns |multiplier| < 1 at an
    equilibrium x into |x| > c on the plus branch, |x| < c for even nu on
    minus.  On the plus branch (odd nu on minus mirrored) the polynomial is
    increasing and c**(nu+1) - q/nu at c: +1 is a stable equilibrium, 0 the
    flip tangency, -1 an unstable one beside a prime two-cycle.  For even nu
    on minus it is h(c) for the concave h(t) = -t**(nu+1) + p*t - q, t = -x:
    +1 is two roots on either side of -c, the inner one stable, 0 a double
    root at -c, -1 no root."""
    nu = eq.nu
    k = nu + 1 if eq.branch is Branch.MINUS and nu % 2 == 0 else nu - 1
    (pn, pd), (qn, qd) = eq.p.as_integer_ratio(), eq.q.as_integer_ratio()
    return _sign_of(nu ** nu * pn ** (nu + 1) * qd ** nu
                    - qn ** nu * k ** (nu + 1) * pd ** (nu + 1))


def _split_point(eq: EquationSpec) -> Fraction:
    """-c of _stable for even nu on minus."""
    return -eq.q * (eq.nu + 1) / (eq.p * eq.nu)


def _dyadic_start(eq: EquationSpec) -> Fraction:
    """A short dyadic rational strictly between the two even-nu roots on
    minus: -c of _split_point rounded to 1, 2, 4, ..., 32 significant bits,
    the first at which the certified polynomial sign is still +1; -c itself
    where none is."""
    c = _split_point(eq)
    for bits in (1, 2, 4, 8, 16, 32):
        scale = Fraction(2) ** (bits - c.numerator.bit_length() + c.denominator.bit_length())
        start = round(c * scale) / scale
        if _certified_sign(_equilibrium_sign, eq, start) == 1:
            return start
    return c


def _bracket(x: float) -> Bracket:
    """|x| <, = or > 1: Bracket lists these for x > 0, then for x < 0."""
    return list(Bracket)[3 * (x < 0) + (abs(x) >= 1) + (abs(x) > 1)]


def equilibria(eq: EquationSpec) -> List[EquilibriumReport]:
    """All equilibria in the studied range, with location brackets; each
    value is the float nearest the exact root.

    Plus branch: the single positive root (the polynomial is strictly
    increasing on (0, inf)); it sits below, at, or above 1 according to
    q <=> p+1.  Minus branch, odd nu: (-x)**nu = -x**nu, so the map is the
    plus map in y = -x, and its single negative root is the plus root
    negated.  Minus branch, even nu: the negative roots, as many as _stable
    counts; at q = p-1 the root -1 alone, though the other exists unless
    p = nu+1.  Two roots that round to one float raise ValueError.  The
    positive root of the minus branch (x**nu > p) is out of scope.
    """
    p, q, nu = eq.p, eq.q, eq.nu
    one, half, double = Fraction(1), Fraction(1, 2), Fraction(2)

    if eq.branch is Branch.MINUS and nu % 2 == 1:
        roots = [-plus.value for plus in equilibria(EquationSpec.plus(p, q, nu))]
    elif eq.branch is Branch.PLUS:
        roots = [1.0 if q == p + 1 else _rounded_root(eq, one, half if q < p + 1 else double)]
    elif q == p - 1:
        roots = [-1.0]
    elif (count := _stable(eq)) <= 0:
        roots = [float(_split_point(eq))] if count == 0 else []
    else:
        # from -1 or a short dyadic between the roots, the bisection stays dyadic
        start = -one if q < p - 1 else _dyadic_start(eq)
        roots = [_rounded_root(eq, start, half), _rounded_root(eq, start, double)]
        if roots[0] == roots[1]:
            raise ValueError(f"two equilibria round to the one float {roots[0]!r}")
    return [EquilibriumReport(x, _bracket(x)) for x in roots]


def classify_stability(eq: EquationSpec, report: EquilibriumReport) -> EquilibriumReport:
    """Fill in the linearization multiplier and the stability classification.

    The value must be an equilibrium's float: the exact sign of the
    polynomial changes between its float neighbours, or it is the float of
    the even-nu double root; else ValueError.  The class is exact: _stable,
    or for even nu on minus the polynomial's slope across the value, falling
    at the stable inner root.  The multiplier is a float evaluation of the
    map derivative, -q*nu*x**(nu-1) / (sign*p + x**nu)**2.
    """
    x = report.value
    if not math.isfinite(x):
        raise ValueError(f"{x} does not satisfy the equilibrium polynomial")
    below, above = (_certified_sign(_equilibrium_sign, eq, Fraction(math.nextafter(x, end)))
                    for end in (-math.inf, math.inf))
    mixed = eq.branch is Branch.MINUS and eq.nu % 2 == 0
    if not (below * above <= 0 or mixed and x == float(_split_point(eq)) and _stable(eq) == 0):
        raise ValueError(f"{x} does not satisfy the equilibrium polynomial")
    num, den = -float(eq.q) * eq.nu * x ** (eq.nu - 1), eq.denominator(float(x))
    try:
        multiplier = num / den ** 2
    except OverflowError:  # den**2 overflows where num/den/den may be finite
        multiplier = num / den / den
    sign = _sign_of(below - above) if mixed else _stable(eq)  # +1 stable, 0, -1 unstable
    return report._replace(multiplier=multiplier, classification=list(Stability)[1 - sign])


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


def _cycle_search(eq: EquationSpec, predicate: SignPredicate,
                  grids: Sequence[Sequence[Fraction]], tol: float, one_change: bool) -> Fraction:
    """Cycle point phi: the first zero of the certified sign on an ascending
    grid, or its first consecutive (+, -) pair (skipping None) bisected to
    width min(tol, 1e-12).  A grid is scanned only when the grids before it
    hold no bracket.  The criterion has already proved that a cycle exists,
    so when no grid holds a bracket the search refuses with ValueError.

    Floats propose, certified signs decide.  Where one_change holds (on
    every grid the sign changes once, from + to -, and None comes only after
    it: g above the equilibrium, by negative Schwarzian derivative, and h in
    the mixed region, strictly decreasing where it is positive; see
    _positive_root and _mixed_root), floats propose the grid's first
    adjacent (+, -) pair: a certified (+, -) there is the pair the scan
    would find, since every earlier point is +, and a certified 0 at either
    point is the scan's zero.  Elsewhere, and where a certificate disagrees
    or floats propose no pair, the certified scan decides."""
    for grid in grids:
        pair = _float_pair(eq, predicate, grid) if one_change else None
        if pair is not None:
            signs = [_certified_sign(predicate, eq, point) for point in pair]
            if 0 in signs:
                return pair[signs.index(0)]
            if signs == [1, -1]:
                return _bisect_sign(eq, predicate, *pair, tol)
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


def _float_pair(eq: EquationSpec, predicate: SignPredicate,
                grid: Sequence[Fraction]) -> Optional[Tuple[Fraction, Fraction]]:
    """The first adjacent grid points whose float signs are + and then - or 0
    (a float 0 may be an underflow), or None."""
    spec = _float_spec(eq)
    if spec is None:
        return None
    last, last_sign = None, None
    for point in grid:
        s = _float_sign(predicate, spec, point)
        if last_sign == 1 and s is not None and s <= 0:
            return last, point
        last, last_sign = point, s
    return None


def _bisect_sign(eq: EquationSpec, predicate: SignPredicate, lo: Fraction, hi: Fraction,
                 tol: float) -> Fraction:
    """A zero of the certified sign in (lo, hi), where it is +1 at lo and -1
    at hi, and changes once between them: the midpoint of the dyadic cell of
    width below min(tol, 1e-12) (at most 80 halvings) that holds the change,
    or a point where the sign is 0 or None.  Floats propose that cell
    (_round_and_certify) and the certified bisection goes on from the bracket
    that comes back: the cell, or (lo, hi) where the certificate fails."""
    width = Fraction(min(tol, 1e-12))
    levels = min(80, max(1, ((hi - lo) // width).bit_length()))
    cell = (hi - lo) / 2 ** levels
    lo, hi = _round_and_certify(eq, predicate, lo, hi, 1, levels)
    while hi - lo > cell:
        mid = (lo + hi) / 2
        s = _certified_sign(predicate, eq, mid)
        if s is None or s == 0:
            return mid
        if s > 0:
            lo = mid
        else:
            hi = mid
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
    (f(q/p) > 0 implies f(f(q/p)) < q/p), so a positive point has a bracket.
    g changes sign once above the equilibrium: with negative Schwarzian
    derivative the only fixed points of f(f(x)) are psi < equilibrium < phi,
    so g > 0 on (equilibrium, phi) and g < 0 beyond phi.  A certified
    positive equilibrium polynomial at the first grid point puts the whole
    grid above the equilibrium, and lets floats propose the pair."""
    xbar = Fraction(equilibria(eq)[0].value)
    hi = eq.q / eq.p
    offsets = {Fraction(1, 10 ** k) for k in range(1, 10)}
    offsets |= {Fraction(j, 64) for j in range(1, 65)}
    grid = [xbar + (hi - xbar) * tau for tau in sorted(offsets)]
    above = _certified_sign(_equilibrium_sign, eq, grid[0]) > 0  # and every later grid point
    return _cycle_search(eq, _second_iterate_sign, [grid], tol, one_change=above)


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
    seeks a root closer to the edge than the first grid's nearest point.
    The sign changes once in the region, so floats may propose the pair: as
    alpha rises to the edge B = q/(alpha**nu - p) grows, so h(alpha) =
    alpha*(B**nu - p) - q = |alpha|*(p - B**nu) - q is strictly decreasing
    where B**nu < p, and negative where B**nu >= p; the region is
    alpha < -p**(1/nu), so None follows every sign on an ascending grid."""
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
    return _cycle_search(eq, _psi_sign, [sorted(set(grid + near)), sorted(near + nearer)], tol,
                         one_change=True)


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
    if not mixed and _stable(eq) >= 0:
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
