"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

There are two regions: the plus branch, and the mixed-sign region of even nu
on minus.  For odd nu, (-x)**nu = -x**nu makes the minus map the plus map in
y = -x, so its equilibrium and two-cycle are computed as the plus branch's,
negated (exactly, in floats): analyze and period2 share one equilibrium and
print exact mirrors.  Equilibria are roots of x**(nu+1) + sign*p*x - q
(sign +1 on the plus branch, -1 on minus), bracketed by steps x -> 2x, 8x,
128x, ... or x/2, x/8, ..., then rounded to the nearest float.  How many
equilibria there are, the stability class of each, and whether a prime
two-cycle exists are decided exactly, by one integer comparison, _stable;
only the multiplier beside the class is a float evaluation.  The one
search, _cycle_search, then only locates the cycle, or refuses with
ValueError where floats cannot: the sign change of a sign predicate along
rational grids, bisection, then Newton polish on the cycle system.  A
region supplies only its predicate and grids: g(x) = f(f(x)) - x above the
equilibrium on the plus branch, and a one-variable reduction of the cycle
equations in the mixed-sign region.
Each sign is evaluated on outward-rounded dyadic enclosures
(ratdyn.interval) of 64, 256, 1024 and 4096 bits in turn, none wider than
x**nu; where none of them proves the sign the same predicate runs on
Fractions, so every sign the search sees is exact.
Every root is the one sign change of a certified predicate along a sequence
of points (the floats inside an equilibrium's bracket, _nearest_float; a
grid, then a bracket's dyadic cells, for a cycle point), found by one
helper, _sign_change: plain floats bisect the sequence, certified signs
confirm the pair they reach, a refuted pair gallops outward to a certified
bracket, and a certified bisection narrows it.  That is sound because each
predicate changes sign once where it is searched: the equilibrium
polynomial on each root's bracket; g from + to - above the equilibrium (the
only fixed points of f(f(x)) are psi < equilibrium < phi, by the negative
Schwarzian derivative); and in the mixed region h(alpha) =
alpha*(B**nu - p) - q from + to -, strictly decreasing where B**nu < p and
negative elsewhere.  So the result is the certified bisection's alone.
"""

from __future__ import annotations

import math
import struct
import sys
from enum import Enum
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .equation import Branch, EquationSpec
# bench/trace_run.py wraps this module's `binet_roots`.
from .horadam import binet_roots  # noqa: F401
from .interval import Interval, Undecided

CYCLE_SEPARATION = 1e-8
# The enclosure precisions, in bits, _certified_sign tries before exact arithmetic
_LADDER = (64, 256, 1024, 4096)
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


def _rounded_root(eq: EquationSpec, inside: Fraction, factor: Fraction) -> float:
    """The float nearest the first root of the equilibrium polynomial met
    from inside (not a root) by steps x -> x*factor, the factor squared
    after each step (2, 4, 16, ... or 1/2, 1/4, ...), so a root 2**k away
    takes ~log2(k) steps: a certified 0 is the root itself, else
    _nearest_float rounds the one root of the last step's bracket, whose
    end inside keeps the start's sign."""
    side = _certified_sign(_equilibrium_sign, eq, inside)
    outside = inside * factor
    while (s := _certified_sign(_equilibrium_sign, eq, outside)) == side:
        factor *= factor
        inside, outside = outside, outside * factor
    if s == 0:
        return float(outside)
    return _nearest_float(eq, _equilibrium_sign, inside, outside, side)


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


def _sign_change(eq: EquationSpec, predicate: SignPredicate, point: Callable[[int], Fraction],
                 probe: Callable[[int], float], lo: int, hi: int, side: int
                 ) -> Tuple[int, Optional[int]]:
    """The first index in (lo, hi] whose certified sign is not side, and that
    sign (None at hi itself, which is only known not to be side).  Along
    the points point(lo + 1), ..., point(hi - 1) the certified sign is side
    and then changes once; lo and hi may be virtual ends, never evaluated.

    Floats propose, certified signs decide (Ziv's round-and-certify, ACM
    TOMS 17(3), 1991).  Plain floats bisect the indices at probe(j), a
    monotone float stand-in for point(j), stopping early where a probe no
    longer falls strictly between the probes of its pair or a probe
    overflows; a probe whose float sign is 0 or None (an overflow) is
    decided by its certified sign instead.  The certified signs of the pair
    the floats reach then confirm it: side at its lower index, not side at
    its upper one.  A refuted pair gallops outward from the refuted end, by
    1, 2, 4, ... indices within (lo, hi), to a certified bracket (~2*log2(d)
    signs for a pair d indices off), which the certified bisection narrows:
    the result is the certified bisection's alone, bit for bit.  A certified
    0 is the change itself, since only signs equal to side precede a 0."""
    signs = {lo: side, hi: None}  # certified signs by index

    def certified(j: int) -> Optional[int]:
        if j not in signs:
            signs[j] = _certified_sign(predicate, eq, point(j))
        return signs[j]

    start, spec = (lo, hi), _float_spec(eq)
    try:
        x_lo, x_hi = probe(lo), probe(hi)
        while spec is not None and hi - lo > 1:
            mid = (lo + hi) // 2
            x = probe(mid)
            if not min(x_lo, x_hi) < x < max(x_lo, x_hi):
                break
            s = _float_sign(predicate, spec, x) or certified(mid)  # a float 0 or None: certified
            if s == 0:
                return mid, 0
            if s == side:
                lo, x_lo = mid, x
            else:
                hi, x_hi = mid, x
    except OverflowError:  # a probe beyond the floats ends the proposals
        pass
    step = 1
    while certified(lo) != side:  # the change is at lo or below it
        lo, hi, step = max(lo - step, start[0]), lo, 2 * step
    while certified(hi) == side:  # the change is above hi
        lo, hi, step = hi, min(hi + step, start[1]), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = certified(mid)
        if s == 0:
            return mid, 0
        lo, hi = (mid, hi) if s == side else (lo, mid)
    return hi, signs[hi]


def _dyadic_cell(eq: EquationSpec, predicate: SignPredicate, a: Fraction, b: Fraction,
                 side: int, levels: int) -> Tuple[Fraction, Fraction]:
    """The cell a + (b - a)*[j-1, j]/2**levels, a's side first, that holds
    the one change of the certified sign from side at a to not side at b,
    or (x, x) at a certified 0 x (_sign_change, probes in floats)."""
    width = b - a
    step = width / 2 ** levels
    j, s = _sign_change(eq, predicate, lambda j: a + step * j,
                        lambda j: float(a) + float(width) * math.ldexp(j, -levels),
                        0, 2 ** levels, side)
    return (a + step * j,) * 2 if s == 0 else (a + step * (j - 1), a + step * j)


def _nearest_float(eq: EquationSpec, predicate: SignPredicate, lo: Fraction, hi: Fraction,
                   side: int) -> float:
    """float(r) for the one root r of the predicate between lo, where its
    certified sign is side, and hi, where it is not (in either order).
    _sign_change runs over the floats strictly between them, indexed by bit
    pattern (negatives mirrored), with the floats on or past lo and hi as
    virtual ends; r lies between the float it finds and the one before, and
    the certified sign halfway between them (past lo or hi, that end's sign)
    picks the nearer.  A certified 0 at a float is r, at the midpoint a tie
    that float() breaks to even.  The virtual float past the largest one is
    2**1024 (mirrored), so r past max + ulp/2 raises OverflowError, as float(r)
    does."""
    way = 1 if lo < hi else -1  # index i is the float at position way*i

    def probe(i: int) -> float:
        return math.copysign(struct.unpack("<d", struct.pack("<q", abs(i)))[0], way * i)

    def point(i: int) -> Fraction:
        x = probe(i)
        return Fraction(x) if math.isfinite(x) else Fraction(2 ** 1024 if x > 0 else -2 ** 1024)

    def index(end: Fraction, outward: int) -> int:
        """The index of the float on end, else of the first one past it outward."""
        x = float(min(max(end, -sys.float_info.max), sys.float_info.max))
        i = way * (-1 if x < 0 else 1) * struct.unpack("<q", struct.pack("<d", abs(x)))[0]
        return i + outward * (outward * way * (Fraction(x) - end) < 0)  # x inward of end

    j, s = _sign_change(eq, predicate, point, probe, index(lo, -1), index(hi, 1), side)
    if s == 0:
        return probe(j)
    near, far = point(j - 1), point(j)
    mid = (near + far) / 2
    s = (_certified_sign(predicate, eq, mid) if min(lo, hi) < mid < max(lo, hi)
         else side if way * (mid - lo) <= 0 else -side)  # past lo, or past hi
    x = float(mid if s == 0 else far if s == side else near)
    return x or math.copysign(0.0, near + far)  # a zero takes the sign of r


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
        start = -one if q < p - 1 else _split_point(eq)  # between the two roots
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
    at x: decided on the enclosure of x at the first level of _LADDER that
    proves it, else by running the predicate on x itself.  No level wider
    than x**nu is tried: exact arithmetic on so short an operand is cheaper,
    as at a grid end q/p at nu = 48, where g ~ -2**-4500 and no level decides."""
    size = eq.nu * (x.numerator.bit_length() + x.denominator.bit_length())
    for bits in (bits for bits in _LADDER if bits <= size):
        try:
            return predicate(eq, Interval.enclose(x, bits))
        except Undecided:
            pass
    return predicate(eq, x)


def _cycle_search(eq: EquationSpec, predicate: SignPredicate,
                  grids: Sequence[Sequence[Fraction]], tol: float) -> Fraction:
    """Cycle point phi, from the first ascending grid on which the certified
    sign falls from +1: the first point where it is not +1, if it is 0
    there; else, where it is -1 after a +1 point, the midpoint of the dyadic
    cell of that pair, of width below min(tol, 1e-12) (at most 80
    halvings), that holds the change, or a point inside where the sign is 0.
    Each region's predicate changes sign once along each grid, from + to -,
    with None only after it (see _positive_root and _mixed_root), so
    _sign_change finds that point on the grid's indices, with virtual ends,
    and then the cell.  The criterion has already proved that a cycle
    exists, so when no grid holds a bracket the search refuses with
    ValueError."""
    for grid in grids:
        n = len(grid)
        j, s = _sign_change(eq, predicate, grid.__getitem__,
                            lambda j, grid=grid, n=n: (-math.inf if j < 0 else math.inf if j == n
                                                       else float(grid[j])),
                            -1, n, 1)
        if s == 0:
            return grid[j]
        if s == -1 and j > 0:
            lo, hi = grid[j - 1], grid[j]
            levels = min(80, max(1, ((hi - lo) // Fraction(min(tol, 1e-12))).bit_length()))
            lo, hi = _dyadic_cell(eq, predicate, lo, hi, 1, levels)
            return (lo + hi) / 2
    raise ValueError(_UNLOCATED)


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
    so g > 0 on (equilibrium, phi) and g < 0 beyond phi.  The whole grid
    lies above the exact equilibrium x, so g changes sign once along it:
    x is unstable, x**nu*(nu-1) > p, so q/p - x = x**(nu+1)/p > x/(nu-1),
    and the float xbar of x is within x*2**-53 of it; the first grid point
    xbar + (q/p - xbar)*10**-9 then exceeds x for every nu < 9*10**6."""
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
    seeks a root closer to the edge than the first grid's nearest point.
    The sign changes once in the region, as _cycle_search needs: as alpha
    rises to the edge B = q/(alpha**nu - p) grows, so h(alpha) =
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
