"""Forward iteration of either equation in exact or floating arithmetic.

The exact plane keeps every iterate a Fraction.  Note that for nu >= 2 the
size of exact iterates grows geometrically (each step raises the previous
denominator to the nu-th power), so exact runs are practical only for short
orbits; nu = 1 stays linear-sized for hundreds of steps.

`iterate` converts nu, sign*p, q and the float guard to the plane's number
kind once per orbit, so a float step is one power, one add, the guard test
and one divide: about 0.25 µs, against ~3 µs through `step`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .equation import Branch, EquationSpec, as_fraction
from .errors import DigitLimit, NearSingularity, OrbitTooShort, Singularity, WrongBranch

NEAR_SINGULAR_FACTOR = 1e-12

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


def step(eq: EquationSpec, x: Value) -> Value:
    """One application of the map; exact for Fraction/int input, guarded for float."""
    if isinstance(x, (Fraction, int)):
        den = x ** eq.nu + eq.sign * eq.p
        if den == 0:
            raise Singularity("zero denominator")
        return eq.q / den
    den = float(x) ** eq.nu + eq.sign * float(eq.p)
    if abs(den) < NEAR_SINGULAR_FACTOR * max(float(eq.p), 1.0):
        raise NearSingularity("denominator within guard band of zero")
    return float(eq.q) / den


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


def iterate(eq: EquationSpec, x0, steps: int, plane: Plane = Plane.EXACT,
            max_digits: int = 0) -> Orbit:
    """Iterate up to `steps` times from x0, recording values until done or singular.

    Failures are recorded in the orbit status rather than raised; on
    HIT_SINGULARITY(k) / NEAR_SINGULAR(k) the value at index k is undefined
    and the recorded values end at index k-1.  The exact plane converts x0
    with `as_fraction`, so a float seed raises TypeError there.  With
    `max_digits` > 0 the exact plane raises DigitLimit at the first iterate
    whose numerator or denominator certainly has more than `max_digits`
    digits, instead of computing the steps after it.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    nu = eq.nu
    if plane is Plane.EXACT:
        x: Value = as_fraction(x0)
        shift, q, guard, stop = eq.sign * eq.p, eq.q, 0, StatusKind.HIT_SINGULARITY
        # an integer of more bits than this is >= 2**budget > 10**max_digits,
        # since 3.3219280949 > log2(10)
        budget = -(-max_digits * 33219280949 // 10 ** 10)
    else:
        x = float(x0)
        shift, q, stop = eq.sign * float(eq.p), float(eq.q), StatusKind.NEAR_SINGULAR
        guard, budget = NEAR_SINGULAR_FACTOR * max(float(eq.p), 1.0), 0
    values: List[Value] = [x]
    append = values.append
    status = OrbitStatus(StatusKind.COMPLETED)
    for k in range(1, steps + 1):
        den = x ** nu + shift
        # the same tests as `step`: exact stops at den == 0 (guard 0), float
        # inside the guard band, which contains 0
        if not den or abs(den) < guard:
            status = OrbitStatus(stop, k)
            break
        x = q / den
        append(x)
        if budget and max(x.numerator.bit_length(), x.denominator.bit_length()) > budget:
            raise DigitLimit(max_digits)
    return Orbit(eq=eq, x0=x0, values=tuple(values), status=status, plane=plane)


class BoundsEnvelope(NamedTuple):
    """Positive-orbit envelope lo = q/(p + (q/p)**nu), hi = q/p for the plus branch."""

    lo: Fraction
    hi: Fraction

    def contains(self, x, slack=0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


def bounds_envelope(eq: EquationSpec) -> BoundsEnvelope:
    """Envelope that traps every positive plus-branch orbit from step 1 on."""
    if eq.branch is not Branch.PLUS:
        raise WrongBranch("envelope is stated for the plus branch; see reflected_bounds")
    hi = eq.q / eq.p
    return BoundsEnvelope(lo=eq.q / eq.denominator(hi), hi=hi)


def reflected_bounds(eq: EquationSpec) -> Tuple[Fraction, Fraction]:
    """Mirror envelope [-q/p, -q/(p + (q/p)**nu)] trapping negative minus-branch
    orbits (odd nu)."""
    if eq.branch is not Branch.MINUS:
        raise WrongBranch("reflected envelope applies to the minus branch")
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
        raise OrbitTooShort("need at least 3 completed steps to profile oscillation")
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
        raise OrbitTooShort(
            f"need at least {3 * max_period + burn_in} values, have {len(values)}"
        )
    for period in range(1, max_period + 1):
        if all(abs(values[i + period] - values[i]) < tol for i in range(burn_in, len(values) - period)):
            phase = burn_in
            while phase > 0 and abs(values[phase - 1 + period] - values[phase - 1]) < tol:
                phase -= 1
            return PeriodDetection(period, phase)
    return None
