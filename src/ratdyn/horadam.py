"""Exact engine for second-order linear recurrences W(n+1) = p*W(n) + q*W(n-1).

W is stepped in one place, the integer sweep `_sweep`, and every value read
off it is an exact ``fractions.Fraction``.  An identity check scales the terms
it reads by the lcm d of their denominators and evaluates its residual as an
integer numerator over a known denominator, so "exactly zero" means a zero
integer.  Floating point enters only through the characteristic roots of
x**2 = p*x + q (``binet_roots``), which are irrational for generic parameters.

Negative indices are defined by running the recurrence backwards,
W(n-1) = (W(n+1) - p*W(n)) / q, which needs q != 0.  For canonical seeds
(0, 1) and q = 1 this reproduces the reflection law W(-n) = (-1)**(n+1) * W(n).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from .equation import Rational, _fraction, as_fraction
from .errors import ZeroDenominator

_BLOCK = 64  # steps of `_sweep` between two reductions
_RANGE_BLOCK = 8  # the same for `horadam_range`, which also reduces each term it returns
_ZERO = Fraction(0)


class _HoradamFields(NamedTuple):
    a: Fraction
    b: Fraction
    p: Fraction
    q: Fraction


class HoradamSpec(_HoradamFields):
    """Recurrence data (a, b; p, q): seeds W0 = a, W1 = b and coefficients p, q."""

    __slots__ = ()

    def __new__(cls, a: Rational, b: Rational, p: Rational, q: Rational) -> "HoradamSpec":
        a, b, p, q = as_fraction(a), as_fraction(b), as_fraction(p), as_fraction(q)
        if p * p + 4 * q == 0:
            raise ValueError("p^2 + 4q must be nonzero (characteristic roots coincide)")
        return super().__new__(cls, a, b, p, q)

    @classmethod
    def _make(cls, iterable) -> "HoradamSpec":
        """Checked like the constructor, so `_replace` coerces and validates too."""
        return cls(*iterable)

    @classmethod
    def canonical(cls, p: Rational, q: Rational) -> "HoradamSpec":
        """The (0, 1; p, q) spec that ratio and identity statements assume."""
        return cls(0, 1, p, q)

    @property
    def is_canonical(self) -> bool:
        return self.a == 0 and self.b == 1


def _sweep(a: Fraction, b: Fraction, p: Fraction, q: Fraction,
           backward: bool = False, every: int = _BLOCK) -> Iterator[Tuple[int, int]]:
    """(U(n), S(n)) with W(n) = U(n)/S(n), n = 0, 1, ..., for W(0) = a, W(1) = b and
    W(n+1) = p*W(n) + q*W(n-1); backward, n = 0, -1, ..., the same recurrence with
    coefficients (-p/q, 1/q) from (W(0), W(-1)).  With p = pn/pd, q = qn/qd and
    L = pd*qd: U(n+1) = pn*qd*U(n) + qn*pd**2*qd*U(n-1), S(n+1) = L*S(n), and every
    `every` steps U(n), U(n+1), S(n) lose their gcd with L**every (small gcds only)."""
    if backward:
        if q == 0:
            raise ZeroDenominator("negative indices require q != 0")
        b, p, q = (b - p * a) / q, -p / q, 1 / q
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    cp, cq, lift = pn * qd, qn * pd * pd * qd, pd * qd
    block, s = lift ** every, math.lcm(a.denominator, b.denominator)
    u0, u1 = a.numerator * (s // a.denominator), b.numerator * (s // b.denominator) * lift
    while True:
        base = s
        for _ in range(every):
            yield u0, s
            u0, u1, s = u1, cp * u1 + cq * u0, s * lift
        g = math.gcd(block, u0 % block, u1 % block)  # it divides s = base * block
        if g != 1:
            u0, u1, s = u0 // g, u1 // g, base * (block // g)


def horadam_at(spec: HoradamSpec, n: int) -> Fraction:
    """Return W(n) exactly; n may be negative (backward recurrence, divides by q)."""
    return Fraction(*next(islice(_sweep(*spec, n < 0), abs(n), None)))


def _lowest_terms(pairs: Iterator[Tuple[int, int]], k: int) -> Iterator[Fraction]:
    """u/s for each pair of `pairs`, with s > 0 and every prime of s dividing k.

    A prime common to u and s divides h = gcd(u, k), so g = gcd(s, h) holds
    it as often as u, s or k does, whichever is least.  Dividing u and s by g
    leaves a prime in both only where g holds it as often as k, which gcds
    of g against k // g tell.  So u/s is reduced with gcds against k and its
    divisors alone, never one of two big operands, and usually in one round.
    """
    for u, s in pairs:
        if not u:
            yield _ZERO
            continue
        h = math.gcd(u % k, k)
        while h != 1:
            g = math.gcd(s % h, h)
            if g == 1:
                break
            u, s = u // g, s // g
            h, rest = g, k // g  # keep the primes that g holds as often as k
            c = math.gcd(h, rest)
            while c != 1:
                h //= c
                c = math.gcd(h, rest)
            if h != 1:
                h = math.gcd(u % k, k)
        yield _fraction(u, s)


def horadam_range(spec: HoradamSpec, start: int, stop: int) -> list:
    """W(start), ..., W(stop) inclusive, from one sweep out of index 0 to each end.

    An S(n) of `_sweep`, forward or backward, has no prime outside pd*qd,
    |qn| (backward) and the seed denominators, so each W(n) is reduced
    against a power of their product (`_lowest_terms`).  The sweep reduces
    every _RANGE_BLOCK steps, so what U(n) and S(n) share stays small, and
    so do the operands that reduce it."""
    if stop < start:
        raise ValueError("stop must be >= start")
    a, b, p, q = spec
    k = (a.denominator * b.denominator * p.denominator * q.denominator
         * (abs(q.numerator) or 1)) ** _RANGE_BLOCK
    below = (islice(_sweep(*spec, True, _RANGE_BLOCK), max(-stop, 1), 1 - start)
             if start < 0 else ())
    above = islice(_sweep(*spec, False, _RANGE_BLOCK), max(start, 0), max(stop + 1, 0))
    return list(_lowest_terms(below, k))[::-1] + list(_lowest_terms(above, k))


def canonical_table(p: Rational, q: Rational, upto: int) -> list:
    """W(0..upto) for the canonical (0, 1; p, q) sequence."""
    return horadam_range(HoradamSpec.canonical(p, q), 0, upto)


class QuadraticElement(NamedTuple):
    """Element u + v*phi of the ring where phi**2 = p*phi + q, coordinates exact.

    Multiplication follows from the defining relation:
    (u1 + v1*phi)(u2 + v2*phi) = (u1*u2 + q*v1*v2) + (u1*v2 + u2*v1 + p*v1*v2)*phi.
    """

    u: Fraction
    v: Fraction
    p: Fraction
    q: Fraction

    def _check_compatible(self, other: "QuadraticElement") -> None:
        if self.p != other.p or self.q != other.q:
            raise ValueError("elements live in different quadratic rings")

    def __add__(self, other: "QuadraticElement") -> "QuadraticElement":
        self._check_compatible(other)
        return QuadraticElement(self.u + other.u, self.v + other.v, self.p, self.q)

    def __sub__(self, other: "QuadraticElement") -> "QuadraticElement":
        self._check_compatible(other)
        return QuadraticElement(self.u - other.u, self.v - other.v, self.p, self.q)

    def __mul__(self, other: "QuadraticElement") -> "QuadraticElement":
        self._check_compatible(other)
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        return QuadraticElement(
            u1 * u2 + self.q * v1 * v2,
            u1 * v2 + u2 * v1 + self.p * v1 * v2,
            self.p,
            self.q,
        )

    def _refuse_tuple_arithmetic(self, other):
        """`n * element` and `tuple + element`, which tuple's repeat and
        concatenation would otherwise answer with a longer tuple."""
        raise TypeError(f"unsupported operand {type(other).__name__!r} for QuadraticElement")

    __rmul__ = __radd__ = _refuse_tuple_arithmetic

    def evaluate(self, root: float) -> float:
        """Numeric value u + v*root at a floating characteristic root."""
        return float(self.u) + float(self.v) * root

    @classmethod
    def one(cls, p: Rational, q: Rational) -> "QuadraticElement":
        return cls(Fraction(1), Fraction(0), as_fraction(p), as_fraction(q))

    @classmethod
    def phi(cls, p: Rational, q: Rational) -> "QuadraticElement":
        return cls(Fraction(0), Fraction(1), as_fraction(p), as_fraction(q))


def phi_power(p: Rational, q: Rational, n: int) -> QuadraticElement:
    """phi**n by exact square-and-multiply in the quadratic ring.

    For the canonical sequence the coordinates come out as
    phi**n = q*W(n-1) + W(n)*phi.  The ring product never reads W, so the
    phi-power identity checks the recurrence against independent arithmetic.
    """
    if n < 0:
        raise ValueError("phi_power requires n >= 0")
    acc = QuadraticElement.one(p, q)
    base = QuadraticElement.phi(p, q)
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


class QuadraticRoots(NamedTuple):
    """Floating characteristic data for x**2 = p*x + q."""

    phi_plus: float
    phi_minus: float
    discriminant: float
    A: float
    B: float

    def binet_value(self, n: int) -> float:
        """(A*phi_plus**n - B*phi_minus**n) / (phi_plus - phi_minus)."""
        return (self.A * self.phi_plus ** n - self.B * self.phi_minus ** n) / (
            self.phi_plus - self.phi_minus
        )


def binet_roots(p, q, a=0, b=1) -> QuadraticRoots:
    """Both roots (p +- sqrt(p^2+4q))/2 plus the coefficients A = b - a*phi_minus,
    B = b - a*phi_plus used in the closed form for W(n).

    Raises ValueError when p^2 + 4q <= 0 (cannot happen for p, q > 0).
    """
    p, q, a, b = float(p), float(q), float(a), float(b)
    disc = p * p + 4.0 * q
    if disc <= 0.0:
        raise ValueError(f"p^2 + 4q = {disc} is not positive")
    root = math.sqrt(disc)
    phi_plus = (p + root) / 2.0
    phi_minus = (p - root) / 2.0
    return QuadraticRoots(
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        discriminant=disc,
        A=b - a * phi_minus,
        B=b - a * phi_plus,
    )


class IdentityKind(Enum):
    CONVOLUTION = "convolution"
    CASSINI = "cassini"
    DOCAGNE = "docagne"
    JOHNSON = "johnson"
    PHI_POWER = "phi_power"


def _reads(kind: IdentityKind, indices: Tuple[int, ...]) -> Tuple[int, ...]:
    """The indices i whose W(i) one check of `kind` reads, once its index
    precondition holds."""
    if kind is IdentityKind.CONVOLUTION:
        n, k = indices
        if k < 0 or n <= k + 1:
            raise ValueError("convolution requires n > k+1 and k >= 0")
        return n, k + 1, n - k, k, n - k - 1
    if kind is IdentityKind.CASSINI:
        (n,) = indices
        if n <= 0:
            raise ValueError("cassini requires n > 0")
        return n - 1, n, n + 1
    if kind is IdentityKind.DOCAGNE:
        n, r = indices
        if n < 1 or r < 1:
            raise ValueError("docagne requires n, r >= 1")
        return n + r, n + 1, n + r + 1, n, r
    if kind is IdentityKind.JOHNSON:
        k, l, m, n, r = indices
        if k + l != m + n:
            raise ValueError("johnson requires k + l = m + n")
        return k, l, m, n, k - r, l - r, m - r, n - r
    if kind is IdentityKind.PHI_POWER:
        (n,) = indices
        if n < 1:
            raise ValueError("phi_power check requires n >= 1")
        return n - 1, n
    raise ValueError(f"unknown identity kind: {kind!r}")


def _scaled_terms(spec: HoradamSpec, lo: int, hi: int) -> Tuple[dict, int]:
    """({i: d*W(i)}, d) for lo <= i <= hi of a canonical spec, where d is the
    lcm of those terms' denominators, so every entry is an int.  The terms
    come from one `horadam_range` sweep per direction."""
    if not spec.is_canonical:
        raise ValueError("identity checks are stated for seeds (0, 1)")
    terms = horadam_range(spec, lo, hi)
    d = math.lcm(*(w.denominator for w in terms))
    return {i: w.numerator * (d // w.denominator) for i, w in enumerate(terms, lo)}, d


def _exact(num: int, den: int) -> Fraction:
    """num/den, with the gcd normalisation skipped for the zero a holding identity gives."""
    return Fraction(num, den) if num else _ZERO


def check_identity(
    kind: IdentityKind, spec: HoradamSpec, indices: Tuple[int, ...]
) -> Union[Fraction, Tuple[Fraction, Fraction]]:
    """Exact residual LHS - RHS of one classical identity; zero means it holds.

    Index tuples per kind:
      CONVOLUTION (n, k): n > k+1, k >= 0,
          W(n) = W(k+1)*W(n-k) + q*W(k)*W(n-k-1)
      CASSINI (n,): n > 0,
          W(n-1)*W(n+1) - W(n)**2 = -(-q)**(n-1)
      DOCAGNE (n, r): n, r >= 1,
          W(n+r)*W(n+1) - W(n+r+1)*W(n) = (-1)**n * q**n * W(r)
      JOHNSON (k, l, m, n, r): k + l = m + n,
          W(k)*W(l) - W(m)*W(n) = (-q)**r * (W(k-r)*W(l-r) - W(m-r)*W(n-r))
      PHI_POWER (n,): n >= 1, residual pair of ring coordinates of
          phi**n - (q*W(n-1) + W(n)*phi)

    The phi-power law carries the factor q on W(n-1); dropping it is only
    valid when q = 1.
    """
    reads = _reads(kind, indices)
    return _residual(kind, spec, indices, *_scaled_terms(spec, min(reads), max(reads)))


def _residual(kind: IdentityKind, spec: HoradamSpec, indices: Tuple[int, ...], s: dict, d: int,
              power: Optional[QuadraticElement] = None):
    """check_identity's residual for indices that meet their kind's precondition
    (see `_reads`), with W(i) = s[i]/d.  A PHI_POWER check of (n,) reads
    phi**n from `power` when given, else from `phi_power`.

    Writing q = qn/qd, each residual is computed as an integer numerator over
    a known denominator: the identity multiplied through by d*d and the power
    of qd it carries.  So a residual is exactly zero when its integer
    numerator is, and only a nonzero one is reduced to a Fraction.
    """
    qn, qd = spec.q.numerator, spec.q.denominator

    if kind is IdentityKind.CONVOLUTION:
        n, k = indices
        num = qd * (d * s[n] - s[k + 1] * s[n - k]) - qn * s[k] * s[n - k - 1]
        return _exact(num, d * d * qd)

    if kind is IdentityKind.CASSINI:
        (n,) = indices
        num = qd ** (n - 1) * (s[n - 1] * s[n + 1] - s[n] ** 2) + d * d * (-qn) ** (n - 1)
        return _exact(num, d * d * qd ** (n - 1))

    if kind is IdentityKind.DOCAGNE:
        n, r = indices
        num = qd ** n * (s[n + r] * s[n + 1] - s[n + r + 1] * s[n]) - (-qn) ** n * d * s[r]
        return _exact(num, d * d * qd ** n)

    if kind is IdentityKind.JOHNSON:
        k, l, m, n, r = indices
        # (-q)**r = a/b, for r < 0 too
        a, b = ((-qn) ** r, qd ** r) if r >= 0 else ((-qd) ** -r, qn ** -r)
        if not b:
            raise ZeroDivisionError("(-q)**r with q = 0 and r < 0")
        num = b * (s[k] * s[l] - s[m] * s[n]) - a * (s[k - r] * s[l - r] - s[m - r] * s[n - r])
        return _exact(num, d * d * b)

    (n,) = indices  # PHI_POWER, checked on the ring, which never reads W
    u, v, _, _ = phi_power(spec.p, spec.q, n) if power is None else power
    return (_exact(u.numerator * qd * d - qn * s[n - 1] * u.denominator, u.denominator * qd * d),
            _exact(v.numerator * d - s[n] * v.denominator, v.denominator * d))


def identity_battery(spec: HoradamSpec, nmax: int) -> list:
    """(kind, checks, largest |residual|) per kind over a deterministic battery
    of index tuples bounded by nmax.  Every residual is an exact integer over
    one common denominator of the terms the battery reads (see `_residual`),
    so a reported zero is exactly zero; the largest one is a Fraction.  The
    phi-power checks take phi**n from a running product, one ring product
    per n.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    batches = {
        IdentityKind.CONVOLUTION: [(n, k) for n in range(2, nmax + 1) for k in range(n - 1)],
        IdentityKind.CASSINI: [(n,) for n in range(1, nmax + 1)],
        IdentityKind.DOCAGNE: [(n, r) for n in range(1, nmax + 1) for r in range(1, nmax + 1 - n)],
        IdentityKind.JOHNSON: [(k, l, m, k + l - m, r) for r in range(1, 4)
                               for k in range(8) for l in range(8) for m in range(8)],
        IdentityKind.PHI_POWER: [(n,) for n in range(1, nmax + 1)],
    }
    # Johnson reads from W(-10) (k = l = 0, m = 7, r = 3) to W(14) (k = l = 7, m = 0),
    # the other kinds from W(0) to W(nmax + 1).
    s, d = _scaled_terms(spec, -10, max(nmax + 1, 14))
    phi, power = QuadraticElement.phi(spec.p, spec.q), QuadraticElement.one(spec.p, spec.q)
    rows = []
    for kind, tuples in batches.items():
        worst = _ZERO
        for indices in tuples:
            if kind is IdentityKind.PHI_POWER:
                power *= phi  # phi**n for the tuples (1,), (2,), ... in turn
            residual = _residual(kind, spec, indices, s, d, power)
            for part in residual if isinstance(residual, tuple) else (residual,):
                if part:
                    worst = max(worst, abs(part))
        rows.append((kind, len(tuples), worst))
    return rows


def ratio_estimate(spec: HoradamSpec, r: int, n: int) -> float:
    """W(n+r)/W(n) as a float; for large n this approaches phi_plus**r."""
    (un, sn), (ur, sr) = (next(islice(_sweep(*spec, i < 0), abs(i), None)) for i in (n, n + r))
    if un == 0:
        raise ZeroDenominator(f"W({n}) = 0")
    return float(Fraction(ur * sn, sr * un))
