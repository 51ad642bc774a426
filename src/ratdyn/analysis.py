"""Equilibria, linearized stability and period-two cycles for any nu >= 1.

There are two regions: the plus branch, and the mixed-sign region of even nu
on minus.  For odd nu, (-x)**nu = -x**nu makes the minus map the plus map in
y = -x, so its equilibrium and two-cycle are computed as the plus branch's,
negated (exactly, in floats): analyze and period2 share one equilibrium and
print exact mirrors.  Equilibria are roots of x**(nu+1) + sign*p*x - q
(sign +1 on the plus branch, -1 on minus), each rounded to the nearest
float between ends the equation gives: 0 and 2**1024 on the plus branch,
and for even nu on minus 0 and -c, or -c and -2**1024, on either side of
the critical point -c of _stable.  How many equilibria there are, the
stability class of each, and whether a prime two-cycle exists are decided
exactly, by one certified sign, _stable, of a predicate at one critical
point; only the multiplier beside the class is a float evaluation.  Each
cycle point is then rounded the same way, as the root of one sign
predicate, _cycle_sign, over a bracket the equation gives: on the plus
branch above and below the printed equilibrium, in the mixed-sign region
between 0 and -2**1024 or 2**1024.
Each sign is evaluated on outward-rounded dyadic enclosures
(ratdyn.interval) of 64, 256, 1024 and 4096 bits in turn, none wider than
x**nu; where none of them proves the sign the same predicate runs on
Fractions, so every sign a search sees is exact.
Every root is the float nearest the one sign change of a certified
predicate between two ends, _nearest_float, which searches the floats in
between with one helper, _sign_change: plain floats bisect the sequence,
certified signs confirm the pair they reach, a refuted pair gallops outward
to a certified bracket, and a certified bisection narrows it.  That is
sound because each predicate changes sign once in its bracket: the
equilibrium polynomial on each root's bracket; f(f(x)) - x once on each
side of the equilibrium (the only fixed points of f(f(x)) are psi <
equilibrium < phi, by the negative Schwarzian derivative); and in the mixed
region once on each side of 0 (see _mixed_cycle).  So the result is the
certified bisection's alone.
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

# The enclosure precisions, in bits, _certified_sign tries before exact arithmetic
_LADDER = (64, 256, 1024, 4096)
# Past the largest float: the virtual end of a root search with no finite end
_PAST_MAX = Fraction(2 ** 1024)

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


class _FloatSpec(NamedTuple):
    """An equation's q, sign*p and nu in floats: what a sign predicate reads,
    with an x**nu past the float range read as its infinite limit."""

    q: float
    signed_p: float
    nu: int

    def denominator(self, x: float) -> float:
        try:
            power = x ** self.nu
        except OverflowError:
            power = math.copysign(math.inf, x) ** self.nu
        return power + self.signed_p


def _float_spec(eq: EquationSpec) -> Optional[_FloatSpec]:
    """eq in floats, or None where p or q overflows a float."""
    try:
        return _FloatSpec(float(eq.q), float(eq.sign * eq.p), eq.nu)
    except OverflowError:
        return None


def _float_sign(predicate: SignPredicate, spec: _FloatSpec, x) -> Optional[int]:
    """The predicate's sign in floats, a proposal only: None outside the
    region, 0 where it is NaN or a float division by 0.0 raises."""
    try:
        return predicate(spec, float(x))
    except ArithmeticError:
        return 0


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
    overflows; a probe whose float sign is 0 (a float root, NaN or a
    division by 0.0) is decided by its certified sign instead, and one
    outside the region (None) reads as not side, as a certified None does.
    The certified signs of the pair the floats reach then confirm it: side
    at its lower index, not side at its upper one.  A refuted pair gallops
    outward from the refuted end, by 1, 2, 4, ... indices within (lo, hi),
    to a certified bracket (~2*log2(d) signs for a pair d indices off),
    which the certified bisection narrows: the result is the certified
    bisection's alone, bit for bit.  A certified 0 is the change itself,
    since only signs equal to side precede a 0."""
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
            s = _float_sign(predicate, spec, x)
            if s == 0:  # a root, NaN or a division by 0.0 in floats: certified
                s = certified(mid)
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
        return Fraction(x) if math.isfinite(x) else (_PAST_MAX if x > 0 else -_PAST_MAX)

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


def _critical_point(eq: EquationSpec) -> Fraction:
    """c = k*q/(nu*p), k = nu+1 for even nu on minus and nu-1 elsewhere: an
    equilibrium x at |x| = c has multiplier -1 (+1 for even nu on minus),
    since x**nu = q/x - sign*p there."""
    k = eq.nu + 1 if eq.branch is Branch.MINUS and eq.nu % 2 == 0 else eq.nu - 1
    return k * eq.q / (eq.nu * eq.p)


def _criterion_sign(eq: EquationSpec, c) -> int:
    """Sign of q/nu - c**(nu+1), in the arithmetic of c."""
    return -_sign_of(c ** (eq.nu + 1) - eq.q / eq.nu)


def _stable(eq: EquationSpec) -> int:
    """Sign of q/nu - c**(nu+1) at c = _critical_point(eq), certified as
    every sign is: the one exact criterion behind every stability class,
    equilibrium count and cycle existence.  On the plus branch (odd nu on
    minus mirrored) the polynomial is increasing, -(q/nu - c**(nu+1)) at c,
    and |multiplier| < 1 at the equilibrium iff it lies above c: +1 is a
    stable equilibrium, 0 the flip tangency, -1 an unstable one beside a
    prime two-cycle.  For even nu on minus the sign is h(c) for the concave
    h(t) = -t**(nu+1) + p*t - q, t = -x, and |multiplier| < 1 iff |x| < c:
    +1 is two roots on either side of -c, the inner one stable, 0 a double
    root at -c, -1 no root."""
    return _certified_sign(_criterion_sign, eq, _critical_point(eq))


def _bracket(x: float) -> Bracket:
    """|x| <, = or > 1: Bracket lists these for x > 0, then for x < 0."""
    return list(Bracket)[3 * (x < 0) + (abs(x) >= 1) + (abs(x) > 1)]


def equilibria(eq: EquationSpec) -> List[EquilibriumReport]:
    """All equilibria in the studied range, with location brackets; each
    value is the float nearest the exact root.

    Plus branch: the single positive root, between 0 and 2**1024 (the
    polynomial is -q at 0 and strictly increasing on (0, inf)); it sits
    below, at, or above 1 according to q <=> p+1.  Minus branch, odd nu:
    (-x)**nu = -x**nu, so the map is the plus map in y = -x, and its single
    negative root is the plus root negated.  Minus branch, even nu: the
    negative roots, as many as _stable counts; where there are two, the
    polynomial is positive at -c between them and negative at 0 and towards
    -inf, so the inner root lies between 0 and -c and the outer one between
    -c and -2**1024.  At q = p-1 the root -1 alone, though the other exists
    unless p = nu+1.  Two roots that round to one float raise ValueError.
    A root past the largest float raises OverflowError.  The positive root
    of the minus branch (x**nu > p) is out of scope.
    """
    p, q, nu = eq.p, eq.q, eq.nu
    if eq.branch is Branch.MINUS and nu % 2 == 1:
        roots = [-plus.value for plus in equilibria(EquationSpec.plus(p, q, nu))]
    elif eq.branch is Branch.PLUS:
        roots = [_nearest_float(eq, _equilibrium_sign, Fraction(0), _PAST_MAX, -1)]
    elif q == p - 1:
        roots = [-1.0]
    elif (count := _stable(eq)) <= 0:
        roots = [float(-_critical_point(eq))] if count == 0 else []
    else:
        c = _critical_point(eq)  # the polynomial is positive at -c, between the two roots
        roots = [_nearest_float(eq, _equilibrium_sign, -c, end, 1)
                 for end in (Fraction(0), -_PAST_MAX)]
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
    map derivative, -q*nu*x**(nu-1) / (sign*p + x**nu)**2, or where its
    numerator overflows or its squared denominator underflows -nu * (q/den)
    * (x**(nu-1)/den); where q itself underflows to 0.0 no float form is
    left, and the division by 0.0 raises ZeroDivisionError.
    """
    x = report.value
    if not math.isfinite(x):
        raise ValueError(f"{x} does not satisfy the equilibrium polynomial")
    below, above = (_certified_sign(_equilibrium_sign, eq, Fraction(math.nextafter(x, end)))
                    for end in (-math.inf, math.inf))
    mixed = eq.branch is Branch.MINUS and eq.nu % 2 == 0
    if not (below * above <= 0 or mixed and x == float(-_critical_point(eq)) and _stable(eq) == 0):
        raise ValueError(f"{x} does not satisfy the equilibrium polynomial")
    q, nu = float(eq.q), eq.nu
    num, den = -q * nu * x ** (nu - 1), eq.denominator(float(x))
    try:
        # factored where num overflows or den**2 underflows (unless q did too)
        multiplier = (num / den ** 2 if math.isfinite(num) and (den ** 2 or not q)
                      else -nu * (q / den) * (x ** (nu - 1) / den))
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


def _certified_sign(predicate: SignPredicate, eq: EquationSpec, x: Fraction) -> Optional[int]:
    """The exact value of a region's sign predicate (None outside the region)
    at x: decided on the enclosure of x at the first level of _LADDER that
    proves it, else by running the predicate on x itself.  No level wider
    than x**nu is tried: exact arithmetic on so short an operand, such as an
    equilibrium's bracket step 2 or 1/2, is cheaper."""
    size = eq.nu * (x.numerator.bit_length() + x.denominator.bit_length())
    for bits in (bits for bits in _LADDER if bits <= size):
        try:
            return predicate(eq, Interval.enclose(x, bits))
        except Undecided:
            pass
    return predicate(eq, x)


def _approx_form(eq: EquationSpec) -> Tuple[float, float]:
    """(x, q/(sign*p + x**nu)) at x = sign*q/p, in floats: the plus branch's
    pair, or the mixed region's."""
    p, q = float(eq.p), float(eq.q)
    den = eq.sign * p + (q / p) ** eq.nu
    return (eq.sign * q / p, q / den if den != 0.0 else float("inf"))


def _cycle_sign(eq: EquationSpec, x, region: int = 1) -> Optional[int]:
    """Sign of x*(B**nu + sign*p) - q with B = q/(x**nu + sign*p), or None
    outside the region, where the sign of x**nu + sign*p is not region.
    On the plus branch it is minus the sign of f(f(x)) - x."""
    den = eq.denominator(x)
    if _sign_of(den) != region:
        return None
    return _sign_of(x * eq.denominator(eq.q / den) - eq.q)


def _plus_cycle(eq: EquationSpec) -> Tuple[float, float]:
    """(phi, psi) of the plus branch, each the float nearest its point.  The
    map is decreasing with negative Schwarzian derivative, so the only fixed
    points of f(f(x)) are psi < equilibrium < phi, and g(x) = f(f(x)) - x is
    > 0 on (0, psi) and (equilibrium, phi), < 0 on (psi, equilibrium) and
    (phi, q/p]: _cycle_sign is -g's sign, so phi is its root over
    (xbar, q/p] and psi over (0, xbar), all three ends virtual.  xbar is the
    float nearest the equilibrium, so every float above it lies above the
    equilibrium and every float below it below.  Where phi or psi rounds to
    xbar (within half a float of it) the pair is refused with ValueError."""
    xbar = equilibria(eq)[0].value
    phi = _nearest_float(eq, _cycle_sign, Fraction(xbar), eq.q / eq.p, -1)
    psi = _nearest_float(eq, _cycle_sign, Fraction(0), Fraction(xbar), -1)
    if xbar in (phi, psi):
        raise ValueError(f"a prime two-cycle rounds to the equilibrium's float {xbar!r}")
    return phi, psi


def _mixed_cycle(eq: EquationSpec) -> Tuple[float, float]:
    """(alpha, beta) of the mixed-sign two-cycle, minus branch, even nu,
    alpha**nu > p > beta**nu (its image is positive): each the float nearest
    its point.  No equilibrium can enter the region alpha**nu > p (it forces
    the equilibrium polynomial negative), so any root is a prime cycle.
    alpha is the root of _cycle_sign over (-2**1024, 0): with
    B = q/(alpha**nu - p), h(alpha) = |alpha|*(p - B**nu) - q tends to +inf
    as alpha -> -inf; as alpha rises to the edge -p**(1/nu) B grows, so h is
    strictly decreasing where B**nu < p and negative where B**nu >= p; past
    the edge it is None.  beta is the root of the same expression in the
    region x**nu < p over (0, 2**1024): with |alpha| = q/(p - beta**nu),
    k(beta) = beta*(|alpha|**nu - p) - q is negative where |alpha|**nu <= p
    and strictly increasing elsewhere, so it changes sign once, from - to +,
    and is None past the edge p**(1/nu)."""
    alpha = _nearest_float(eq, _cycle_sign, -_PAST_MAX, Fraction(0), 1)
    beta = _nearest_float(eq, lambda eq, x: _cycle_sign(eq, x, -1), Fraction(0), _PAST_MAX, -1)
    return alpha, beta


def solve_period_two(eq: EquationSpec, tol: float = 1e-10) -> Optional[PeriodTwoCycle]:
    """Prime two-cycle of the map, or None when none exists in the studied
    region (positive values on the plus branch, their mirror for odd nu on
    minus, the mixed-sign region for even nu on minus).

    Existence is decided first, exactly, and is the only source of None.  On
    the plus branch, mirrored for odd nu on minus, the map is decreasing with
    negative Schwarzian derivative, so a cycle exists iff the equilibrium is
    unstable: iff c**(nu+1) > q/nu at c = (nu-1)*q/(nu*p) (Singer, SIAM J.
    Appl. Math. 1978).  Equality is the flip tangency, for example (1,2,2),
    where f(f(x)) - x has numerator -(x-1)^3 (x^2+x+2): no prime cycle.  For even
    nu on minus the mixed-sign cycle always exists (intermediate value
    theorem).  phi and psi are then each the float nearest the exact cycle
    point, and the residual is a float evaluation of the cycle equations
    at them.  A cycle with a point that rounds to the equilibrium's float
    (so near the flip tangency as (1, 2 + 10**-40, 2)) raises ValueError.
    tol is validated (it must be positive) but has no effect.  Every cycle
    reports approx_form, so its float overflow is raised first."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    mixed, sign = eq.branch is Branch.MINUS and eq.nu % 2 == 0, 1
    if not mixed:
        if _stable(eq) >= 0:
            return None
        eq, sign = EquationSpec.plus(eq.p, eq.q, eq.nu), eq.sign  # odd nu on minus: negated
    approx_form = _approx_form(eq)
    phi, psi = _mixed_cycle(eq) if mixed else _plus_cycle(eq)
    q = float(eq.q)
    residual = max(abs(a * eq.denominator(b) - q) for a, b in ((phi, psi), (psi, phi)))
    # negation is exact, so odd nu on minus has the plus residual's bits
    return PeriodTwoCycle(sign * phi, sign * psi, residual, tuple(sign * x for x in approx_form))


def smallest_even_cycle_exponent(p, q, cap: int = 64) -> Optional[int]:
    """Smallest even nu <= cap for which the minus branch has a prime
    two-cycle.  For every even nu the mixed-sign cycle exists (intermediate
    value theorem on the one-variable cycle map of _mixed_cycle), so this is
    2 when cap >= 2 and None otherwise."""
    EquationSpec.minus(p, q, 2)  # validates p and q
    return 2 if cap >= 2 else None
