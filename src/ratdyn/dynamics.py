"""Forward iteration of either equation in exact or floating arithmetic.

The exact plane carries each iterate as a reduced pair (N, D) of integers
with D > 0.  Write p = pn/pd, q = qn/qd and s = +1 (plus) or -1 (minus).  One
step (`_exact_step`) forms

    E = s*pn*qd*D**nu + pd*qd*N**nu,    num = qn*pd*D**nu,

so the next iterate is num/E, and E = 0 exactly where the map's denominator
vanishes.  Since gcd(N, D) = 1, gcd(E, D**nu) divides pd*qd, so the common
factor g of num and E divides M = qn*pd**2*qd.  Hence g = gcd(g0, num mod g0)
with g0 = gcd(E mod M, M): two gcds against small numbers, never one of two
big operands, which is what `Fraction` arithmetic would pay per step.  The
step is generic in its integer type: `_exact_pairs` runs it on ints, which
`iterate` makes into Fractions through `_fraction` with no further gcd, or on
integral `decimal.Decimal`s, which the CLI prints in time linear in their
digits (it supplies the exact context they need).  For nu >= 2 the size of
exact iterates grows geometrically (each step raises the previous
denominator to the nu-th power), so exact runs are practical only for short
orbits; nu = 1 stays linear-sized for thousands of steps.

`iterate` converts nu, sign*p, q and the float guard to the plane's number
kind once per orbit, so a float step is one power, one add, the guard test
and one divide.

On the positive half-line both maps are decreasing, so their second iterate
is increasing and a bounded orbit settles on an equilibrium or a two-cycle
(the odd-nu minus branch mirrors this on the negative one).  Once an iterate
equals the one two steps before it, x(k) == x(k-2), the orbit is exactly
periodic from there: x(k+1) = f(x(k)) = f(x(k-2)) = x(k-1), and so on.
`_record`, the loop of `iterate` and of the CLI's exact orbits, tests for
that every 1024 steps (_CYCLE_CHECK_STEPS), stops stepping once it holds,
and fills the remaining steps by repeating the last two values, the same
objects.  Float orbits usually reach such a k within a few thousand steps;
near the flip tangency they converge too slowly to.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import cycle, islice
from math import gcd
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .equation import Branch, EquationSpec, _fraction, as_fraction
from .errors import NearSingularity, ZeroDenominator

NEAR_SINGULAR_FACTOR = 1e-12
_CYCLE_CHECK_STEPS = 1024  # steps between `iterate`'s tests for an exact cycle

Value = Union[Fraction, float]


class Plane(Enum):
    EXACT = "exact"
    FLOAT = "float"


class StatusKind(Enum):
    COMPLETED = "completed"
    HIT_SINGULARITY = "hit_singularity"
    NEAR_SINGULAR = "near_singular"


class OrbitStatus(NamedTuple):
    kind: StatusKind
    step: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.kind is StatusKind.COMPLETED


_Rule = tuple  # (nu, s*pn*qd, pd*qd, qn*pd, M = qn*pd**2*qd), M an int


def _exact_step(rule: _Rule, n, d):
    """The map on a reduced pair n/d of ints or integral Decimals: (N, D, g)
    with N/D its image in lowest terms, D > 0, and g the int factor divided
    out of (num, |E|); None where E = 0.  The remainders go through `int`
    for `gcd`; a Decimal's takes the sign of E, which gcd ignores."""
    nu, sp, a, c, m = rule
    if nu != 1:
        n, d = n ** nu, d ** nu
    # A factor 1 is skipped, since a Decimal product by 1 still copies the digits.
    e = sp * d + (n if a == 1 else a * n)
    if not e:
        return None
    if m == 1:  # then c = 1, and no factor divides out
        return (d, e, 1) if e > 0 else (-d, -e, 1)
    num = c * d
    g = gcd(int(e % m), m)
    if g != 1:
        g = gcd(int(num % g), g)
        if g != 1:
            num //= g
            e //= g
    return (num, e, g) if e > 0 else (-num, -e, g)


def _exact_pairs(eq: EquationSpec, x: Fraction, num=int) -> Iterator[tuple]:
    """The exact orbit after x as `_exact_step` triples (N, D, g), one per step,
    with N and D of the integer type `num` (int, or Decimal run under an exact
    decimal context); it ends before the first step whose denominator vanishes."""
    pn, pd, qn, qd = eq.p.numerator, eq.p.denominator, eq.q.numerator, eq.q.denominator
    rule: _Rule = eq.nu, num(eq.sign * pn * qd), num(pd * qd), num(qn * pd), qn * pd * pd * qd
    n, d = num(x.numerator), num(x.denominator)
    while True:
        image = _exact_step(rule, n, d)
        if image is None:
            return
        yield image
        n, d, _ = image


class Orbit(NamedTuple):
    """A recorded trajectory, its termination status and the plane it ran in."""

    eq: EquationSpec
    x0: Value
    values: Sequence[Value]
    status: OrbitStatus
    plane: Plane

    @property
    def steps_completed(self) -> int:
        return len(self.values) - 1


def _exact_orbit(eq: EquationSpec, x: Fraction, steps: int, num,
                 make) -> Tuple[list, OrbitStatus]:
    """`iterate`'s exact plane from x on integers of the type `num` (see
    `_exact_pairs`): (values, status), each value make(n, d) of a reduced pair."""
    after = (make(n, d) for n, d, _ in _exact_pairs(eq, x, num))
    first = make(num(x.numerator), num(x.denominator))
    return _record(first, after, steps, StatusKind.HIT_SINGULARITY)


def _float_values(eq: EquationSpec, x: float) -> Iterator[float]:
    """The float plane of `iterate`: the iterates after x, ending before the
    first denominator inside the guard band -guard < den < guard."""
    fp, q, nu = eq.p.numerator / eq.p.denominator, eq.q.numerator / eq.q.denominator, eq.nu
    shift, guard = eq.sign * fp, NEAR_SINGULAR_FACTOR * max(fp, 1.0)
    low = -guard
    while True:
        den = x ** nu + shift
        if low < den < guard:
            return
        x = q / den
        yield x


def step(eq: EquationSpec, x: Value) -> Value:
    """One map step: `iterate`'s first value, exact for Fraction/int input, guarded for float."""
    if isinstance(x, (Fraction, int)):
        image = next(_exact_pairs(eq, x), None)
        if image is None:
            raise ZeroDenominator("zero denominator")
        n, d, _ = image
        return _fraction(n, d)
    image = next(_float_values(eq, float(x)), None)
    if image is None:
        raise NearSingularity("denominator within guard band of zero")
    return image


def iterate(eq: EquationSpec, x0, steps: int, plane: Plane = Plane.EXACT) -> Orbit:
    """Iterate up to `steps` times from x0, recording values until done or singular.

    Failures are recorded in the orbit status rather than raised; on
    HIT_SINGULARITY(k) / NEAR_SINGULAR(k) the value at index k is undefined
    and the recorded values end at index k-1.  The exact plane converts x0
    with `as_fraction`, so a float seed raises TypeError there.

    Every 1024 steps (_CYCLE_CHECK_STEPS), and at the last, it tests
    x(k) == x(k-2).  If that holds, the orbit is periodic, and the values
    after index k repeat x(k-1), x(k) (the same two objects) without further
    steps; the status stays COMPLETED.  Equal floats of one sign have the same bits, and +0.0
    and -0.0 give the same denominator sign*p, so the values are those that
    stepping would give.  Testing between runs of steps, not after each one,
    keeps the loop of an orbit that never repeats as fast as without the test.
    """
    if plane is Plane.EXACT:
        values, status = _exact_orbit(eq, as_fraction(x0), steps, int, _fraction)
    else:
        x = float(x0)
        values, status = _record(x, _float_values(eq, x), steps, StatusKind.NEAR_SINGULAR)
    return Orbit(eq=eq, x0=x0, values=tuple(values), status=status, plane=plane)


def _record(x, after: Iterator, steps: int, stop: StatusKind) -> Tuple[list, OrbitStatus]:
    """x and up to `steps` values of `after`, with the orbit's status: `stop`
    at step k if `after` ends after k - 1 values.  Values are compared with
    ==, so `after` may give any kind whose equal values are the same iterate
    (Fractions, floats, or the CLI's num/den texts).  See `iterate` for the
    exact-cycle stop."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    values = [x]
    status = OrbitStatus(StatusKind.COMPLETED)
    k = 0
    while k < steps:
        k = min(k + _CYCLE_CHECK_STEPS, steps)
        values += islice(after, k + 1 - len(values))
        if len(values) <= k:  # singular at step len(values)
            status = OrbitStatus(stop, len(values))
            break
        if k > 1 and values[-1] == values[-3]:
            values += islice(cycle(values[-2:]), steps - k)
            break
    return values, status


class BoundsEnvelope(NamedTuple):
    """Positive-orbit envelope lo = q/(p + (q/p)**nu), hi = q/p for the plus branch."""

    lo: Fraction
    hi: Fraction

    def contains(self, x, slack=0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


def bounds_envelope(eq: EquationSpec) -> BoundsEnvelope:
    """Envelope that traps every positive plus-branch orbit from step 1 on."""
    if eq.branch is not Branch.PLUS:
        raise ValueError("envelope is stated for the plus branch; see reflected_bounds")
    hi = eq.q / eq.p
    return BoundsEnvelope(lo=eq.q / eq.denominator(hi), hi=hi)


def reflected_bounds(eq: EquationSpec) -> Tuple[Fraction, Fraction]:
    """Mirror envelope [-q/p, -q/(p + (q/p)**nu)] trapping negative minus-branch
    orbits (odd nu)."""
    if eq.branch is not Branch.MINUS:
        raise ValueError("reflected envelope applies to the minus branch")
    lo, hi = bounds_envelope(eq._replace(branch=Branch.PLUS))
    return (-hi, -lo)


class Side(Enum):
    ABOVE = "above"
    BELOW = "below"
    AT = "at"


class OscillationProfile(NamedTuple):
    """Per-step side of a reference value plus run-length encoded semicycles."""

    center: float
    sides: Sequence[Side]
    semicycles: Sequence[Tuple[Side, int]]

    def alternates_from(self, index: int) -> bool:
        """True when sides[index:] strictly alternate between ABOVE and BELOW."""
        tail = list(self.sides[index:])
        if any(s is Side.AT for s in tail):
            return False
        return all(tail[i] is not tail[i + 1] for i in range(len(tail) - 1))


def oscillation_profile(orbit: Orbit, center, at_tol=0) -> OscillationProfile:
    """Classify each recorded value against `center` and compress into semicycles."""
    if orbit.steps_completed < 3:
        raise ValueError("need at least 3 completed steps to profile oscillation")
    sides: List[Side] = []
    for v in orbit.values:
        diff = v - center
        if abs(diff) <= at_tol:
            sides.append(Side.AT)
        elif diff > 0:
            sides.append(Side.ABOVE)
        else:
            sides.append(Side.BELOW)
    semicycles: List[Tuple[Side, int]] = []
    for s in sides:
        if semicycles and semicycles[-1][0] is s:
            semicycles[-1] = (s, semicycles[-1][1] + 1)
        else:
            semicycles.append((s, 1))
    return OscillationProfile(center=float(center), sides=tuple(sides), semicycles=tuple(semicycles))


class PeriodDetection(NamedTuple):
    period: int
    phase: int


def detect_period(
    orbit: Orbit, max_period: int, tol: float = 1e-9, burn_in: int = 100
) -> Optional[PeriodDetection]:
    """Smallest period <= max_period holding to `tol` everywhere past burn_in.

    The phase is the first index from which the periodicity already holds.
    Returns None when no period qualifies; extending the orbit can only
    confirm, never change, a detected period.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    values = orbit.values
    if len(values) < 3 * max_period + burn_in:
        raise ValueError(f"need at least {3 * max_period + burn_in} values, have {len(values)}")
    for period in range(1, max_period + 1):
        if all(abs(values[i + period] - values[i]) < tol for i in range(burn_in, len(values) - period)):
            phase = burn_in
            while phase > 0 and abs(values[phase - 1 + period] - values[phase - 1]) < tol:
                phase -= 1
            return PeriodDetection(period, phase)
    return None
