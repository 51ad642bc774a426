"""Closed-form solutions, forbidden sets and product limits for nu = 1.

For nu = 1 both maps are Moebius transformations and every orbit is a
rational expression in the canonical recurrence values W(n) = W(n; 0,1,p,q):

    plus branch:   x(n) = q*(W(n) + x0*W(n-1)) / (W(n+1) + x0*W(n))
    minus branch:  y(n) = -q*(W(n) - y0*W(n-1)) / (W(n+1) - y0*W(n))

The minus form is the plus form conjugated through y = -x; equivalently it
is the negative-index solution formula with the signs of the odd-index
terms folded in.  Everything here runs on exact rationals except the
limit values, which involve the irrational roots phi_plus/phi_minus.

Orbits, forbidden points and partial products come from the exact plane of
`dynamics.iterate`, reduced integer pairs that take gcds against small
numbers only.  The product identities read W from `horadam`'s integer sweep:
W(n+1) + x0*W(n) solves the W recurrence from the seeds (1, p + x0), also
past a step where it vanishes, and x(1)*...*x(n) = q**n over it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import List, NamedTuple, Optional, Tuple

from . import dynamics
from .equation import Branch, EquationSpec, Rational, as_fraction
from .errors import ForbiddenInitialCondition, SingularInput, ZeroDenominator
# bench/trace_run.py wraps this module's `canonical_table`.
from .horadam import HoradamSpec, _sweep, binet_roots, canonical_table  # noqa: F401

EXCLUDED_POINT_TOL = 1e-12


def _require_nu_one(eq: EquationSpec) -> None:
    if eq.nu != 1:
        raise ValueError("closed-form operations require nu = 1")


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def rational_phi_plus(p: Fraction, q: Fraction) -> Optional[Fraction]:
    """phi_plus as an exact rational when p^2 + 4q is a perfect square, else None."""
    root = rational_sqrt(p * p + 4 * q)
    if root is None:
        return None
    return (p + root) / 2


class ForbiddenPoint(NamedTuple):
    """Initial condition that reaches a zero denominator after exactly m steps."""

    m: int
    value: Fraction


def forbidden_points(eq: EquationSpec, depth: int) -> List[ForbiddenPoint]:
    """The first `depth` forbidden initial conditions, ordered by depth.

    On the plus branch these are -W(m+1)/W(m); on the minus branch
    +W(m+1)/W(m).  Iterating forward from the depth-m point produces a zero
    denominator at step m exactly, never earlier.
    """
    values = _forbidden_values(eq, depth, int, dynamics._fraction)
    return [ForbiddenPoint(m, value) for m, value in enumerate(values, 1)]


def _forbidden_values(eq: EquationSpec, depth: int, num, make) -> list:
    """The values of `forbidden_points`, each make(n, d) of a reduced pair of
    the integer type `num` (see `dynamics._exact_pairs`).

    The ratios r(m) = W(m+1)/W(m) follow r(1) = p, r(m) = p + q/r(m-1), so
    r(m) = q/u(m) for the plus orbit u from 0; p, q > 0 keep every W(m) and
    u(m), m >= 1, positive.  For u(m) = n/d in lowest terms, q/u(m) =
    qn*d / (qd*n) reduces by gcd(qn, n)*gcd(qd, d).
    """
    _require_nu_one(eq)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    qn, qd, sign = eq.q.numerator, eq.q.denominator, -eq.sign
    orbit = dynamics._exact_pairs(EquationSpec.plus(eq.p, eq.q), Fraction(0), num)
    values = []
    for n, d, _ in islice(orbit, depth):
        # factors 1 are skipped: a Decimal product or quotient by 1 still copies the digits
        hn = gcd(int(n % qn), qn) if qn != 1 else 1
        hd = gcd(int(d % qd), qd) if qd != 1 else 1
        if hn != 1:
            n //= hn
        if hd != 1:
            d //= hd
        top = d if qn == hn else qn // hn * d
        bottom = n if qd == hd else qd // hd * n
        values.append(make(top if sign > 0 else -top, bottom))
    return values


def forbidden_depth(eq: EquationSpec, x0: Rational, depth: int = 64) -> Optional[int]:
    """Depth m <= depth at which x0 is forbidden, or None if clear to `depth`.

    The forbidden set is countably infinite, so None certifies only
    "clear to this depth", never global membership.  It steps the exact
    orbit's integer pairs and stops at the first vanishing denominator.
    """
    _require_nu_one(eq)
    steps = sum(1 for _ in islice(dynamics._exact_pairs(eq, as_fraction(x0)), max(depth, 0)))
    return steps + 1 if steps < depth else None


def closed_form_series(eq: EquationSpec, x0: Rational, n: int) -> List[Fraction]:
    """Orbit values x(0), ..., x(n) of the closed form x(m) = sign*q *
    den(m-1) / den(m), den(m) = W(m+1) + sign*x0*W(m), as the integer sweep
    of `dynamics.iterate` computes them.

    Equals exact forward iteration whenever the orbit exists; raises
    ForbiddenInitialCondition(m) for the first m <= n whose denominator
    vanishes.
    """
    return _series(eq, as_fraction(x0), n, int, dynamics._fraction)


def _series(eq: EquationSpec, x0: Fraction, n: int, num, make) -> list:
    """The values of `closed_form_series`, each make(n, d) of a reduced pair of
    the integer type `num` (see `dynamics._exact_pairs`)."""
    _require_nu_one(eq)
    if n < 0:
        raise ValueError("n must be nonnegative")
    values, status = dynamics._exact_orbit(eq, x0, n, num, make)
    if not status.ok:
        raise ForbiddenInitialCondition(status.step)
    return values


def solve_closed_form(eq: EquationSpec, x0: Rational, n: int) -> Fraction:
    """Value of the orbit at index n straight from the closed form; the last
    entry of `closed_form_series`, with the same ForbiddenInitialCondition."""
    return closed_form_series(eq, x0, n)[n]


class RootChoice(Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


def fixed_solution(eq: EquationSpec, which: RootChoice) -> Tuple[float, float]:
    """(initial, constant_value) of a genuinely constant orbit.

    Plus branch: the constant solutions are q/phi_plus and q/phi_minus (the
    two fixed points of the map, also expressible as phi_minus - p reflected);
    the orbit is constant exactly when started there.  Minus branch: the
    fixed points are phi_plus and phi_minus themselves.

    Note q/phi coincides with 1/phi only when q = 1; the initial condition
    returned here is the fixed point itself so that iteration reproduces
    `constant_value` at every step.
    """
    _require_nu_one(eq)
    roots = binet_roots(float(eq.p), float(eq.q))
    root = roots.phi_plus if which is RootChoice.PHI_PLUS else roots.phi_minus
    value = float(eq.q) / root if eq.branch is Branch.PLUS else root
    return (value, value)


def asymptotic_limit(eq: EquationSpec) -> float:
    """Limit of generic orbits: -sign*phi_minus, so -phi_minus on the plus
    branch and phi_minus on minus."""
    _require_nu_one(eq)
    return -eq.sign * binet_roots(float(eq.p), float(eq.q)).phi_minus


def excluded_points(eq: EquationSpec) -> Tuple[float, float]:
    """The two fixed points of the map, the initial conditions excluded from
    the solution set: the initial values of `fixed_solution` for phi_plus and
    phi_minus, (q/phi_plus, q/phi_minus) on the plus branch and
    (phi_plus, phi_minus) on minus."""
    return tuple(fixed_solution(eq, which)[0] for which in RootChoice)


def near_excluded_point(eq: EquationSpec, x0, tol: float = EXCLUDED_POINT_TOL) -> bool:
    """Floating-plane flag: is x0 within tol of one of the excluded points?

    For generic integer parameters the excluded points are irrational, hence
    unreachable from rational x0; this proximity check is the honest
    substitute for exact membership.
    """
    x = float(x0)
    return any(abs(x - point) < tol for point in excluded_points(eq))


def conjugate_orbit_check(p: Rational, q: Rational, x0: Rational, n: int) -> Fraction:
    """x(n) + y(n) with y0 = -x0, both from their closed forms; exactly zero
    when the sign conjugacy between the two branches holds."""
    p, q, x0 = as_fraction(p), as_fraction(q), as_fraction(x0)
    xn = solve_closed_form(EquationSpec.plus(p, q), x0, n)
    yn = solve_closed_form(EquationSpec.minus(p, q), -x0, n)
    return xn + yn


def _shifted_w(p: Fraction, q: Fraction, x0: Fraction, n: int) -> Tuple[int, int]:
    """(U, S) with U/S = W(n+1) + x0*W(n), the plus-branch closed-form denominator
    at step n: the sweep of W from the seeds (1, p + x0), also where it vanishes."""
    return next(islice(_sweep(Fraction(1), p + x0, p, q), n, None))


def product_closed_form(p: Rational, q: Rational, x0: Rational, n: int) -> Fraction:
    """Running product x0*x1*...*xn of the plus-branch orbit as the single
    rational expression q**n * x0 / (W(n+1) + x0*W(n))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q, x0 = as_fraction(p), as_fraction(q), as_fraction(x0)
    u, s = _shifted_w(p, q, x0, n)
    if not u:
        raise ZeroDenominator(f"product denominator vanishes at n = {n}")
    return Fraction(q.numerator ** n * x0.numerator * s, q.denominator ** n * x0.denominator * u)


class Regime(Enum):
    P_GREATER_QM1 = "PGreaterQm1"
    P_EQUAL_QM1 = "PEqualQm1"
    P_LESS_QM1 = "PLessQm1"


class ProductAnalysis(NamedTuple):
    """Partial products of an orbit plus the regime-determined limit prediction.

    regime is fixed by sign(p - (q-1)) alone.  predicted_limit is exact:
    0 when p > q-1; x0*(q+1)/(q+x0) when p = q-1 on the plus branch (in this
    regime sqrt(p^2+4q) = q+1 and phi_plus = q are rational).  On the minus
    branch with p = q-1 the partial products split by parity: the even-index
    subsequence tends to predicted_limit = y0*(q+1)/(q-y0) and the odd-index
    subsequence to its negative (`alternating` is set).  Both are
    x0*(q+1)/(q + sign*x0).  When p < q-1 the products diverge and
    predicted_limit is None; divergence is decided from the regime alone,
    and only the acceptance test checks that the partials grow.
    """

    regime: Regime
    predicted_limit: Optional[Fraction]
    alternating: bool
    partials: Tuple[Fraction, ...]


def product_analysis(eq: EquationSpec, x0: Rational, steps: int) -> ProductAnalysis:
    """Exact partial products prod(i=0..n) x(i) for n = 0..steps with limit data."""
    x0 = as_fraction(x0)
    regime, limit, alternating = _product_limit(eq, x0, steps)
    partials = _partial_products(eq, x0, steps, int, dynamics._fraction)
    return ProductAnalysis(regime, limit, alternating, tuple(partials))


def _product_limit(eq: EquationSpec, x0: Fraction,
                   steps: int) -> Tuple[Regime, Optional[Fraction], bool]:
    """`product_analysis`'s regime, predicted limit and alternation, after
    its checks of the arguments."""
    _require_nu_one(eq)
    if steps < 1:
        raise ValueError("steps must be >= 1")

    # The repelling fixed point makes the product formula denominator vanish
    # in the limit; it is representable by a rational x0 only when the
    # discriminant is a perfect square.
    phi_plus = rational_phi_plus(eq.p, eq.q)
    if phi_plus is not None and x0 == -eq.sign * phi_plus:
        raise SingularInput(f"initial condition {x0} is the repelling fixed point")

    diff = eq.p - (eq.q - 1)
    if diff > 0:
        return Regime.P_GREATER_QM1, Fraction(0), False
    if diff < 0:
        return Regime.P_LESS_QM1, None, False
    return Regime.P_EQUAL_QM1, x0 * (eq.q + 1) / (eq.q + eq.sign * x0), eq.sign < 0


def _partial_products(eq: EquationSpec, x0: Fraction, steps: int, num, make) -> list:
    """P(0), ..., P(steps) with P(k) = x(0)*...*x(k), from the integer sweep,
    each make(n, d) of a reduced pair of the integer type `num` (see
    `dynamics._exact_pairs`).

    `dynamics._exact_step` gives x(k+1) = N/D with N*g = +-c*D(k), c = qn*pd,
    so the product telescopes: P(k) = sign * alpha / (beta*D(k)), where
    alpha/beta = |N(0)|*c**k / prod(g) in lowest terms.  That smooth part stays
    reduced with gcds against c and g alone.  A prime of alpha divides
    N(0)*c, so the primes alpha and D(k) share divide h = gcd(D(k), N(0)*c),
    and dividing both by gcd(alpha, h), then h by what is left, reduces
    P(k) with gcds against h alone; usually h = 1.  Raises
    ForbiddenInitialCondition(k) when the orbit is singular at a step
    k <= steps.
    """
    n0 = x0.numerator
    c = eq.q.numerator * eq.p.denominator
    sign, alpha, beta, smooth = (-1 if n0 < 0 else 1), num(abs(n0)), num(1), abs(n0) * c
    first = make(num(n0), num(x0.denominator))
    partials = [first]
    append = partials.append
    for n, d, g in islice(dynamics._exact_pairs(eq, x0, num), steps):
        if not n0:
            append(first)  # every product of an orbit from 0 is 0
            continue
        if n < 0:
            sign = -sign
        up = c
        if g != 1:
            h = gcd(int(alpha % g), g)
            alpha, g = alpha // h, g // h
            h = gcd(up, g)
            up, g = up // h, g // h
        # Factors 1 are skipped, since a Decimal product by 1 still copies the
        # digits.  beta is usually 1: g = 1 at nearly every step.
        if beta != 1:
            h = gcd(int(beta % up), up)
            if h != 1:
                beta, up = beta // h, up // h
        if up != 1:
            alpha = alpha * up
        if g != 1:
            beta = beta * g
        # every prime common to a and d divides h
        a, h = alpha, gcd(int(d % smooth), smooth)
        while h != 1:
            h = gcd(int(a % h), h)
            if h != 1:
                a, d = a // h, d // h
                h = gcd(int(d % h), h)
        append(make(a if sign > 0 else -a, d if beta == 1 else beta * d))
    if len(partials) <= steps:
        raise ForbiddenInitialCondition(len(partials))
    return partials


def reconstruct_horadam(p: Rational, q: Rational, k: int, n: int) -> Fraction:
    """Recover W(n) from the orbit started at x0 = q*W(k)/W(k+1).

    With m = n-k-1, the closed product expression makes q**m * W(k+1) /
    prod(i=1..m) x(i) equal W(k+1) * (W(m+1) + x0*W(m)), which is W(n) by the
    convolution identity (at k = 0 too, where x0 = 0).
    """
    p, q = as_fraction(p), as_fraction(q)
    if k < 0:
        raise ValueError("k must be >= 0")
    if n <= k + 1:
        raise ValueError("n must exceed k + 1")
    EquationSpec.plus(p, q)  # ValueError unless p, q > 0; then every W(m), m >= 1, is positive
    (u0, s0), (u1, s1) = islice(_sweep(*HoradamSpec.canonical(p, q)), k, k + 2)  # W(k), W(k+1)
    u, s = _shifted_w(p, q, Fraction(q.numerator * u0 * s1, q.denominator * s0 * u1), n - k - 1)
    return Fraction(u1 * u, s1 * s)


def docagne_product(p: Rational, q: Rational, n: int, r: int) -> Fraction:
    """(-1)**n * prod(i=1..n) x(i) from x0 = -W(n+r+1)/W(n+r), read off the
    closed product expression as (-q)**n / (W(n+1) + x0*W(n)).

    The starting point is forbidden at depth n+r, so the n iterates used
    here always exist.  The value equals W(n+r)/W(r).
    """
    p, q = as_fraction(p), as_fraction(q)
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    EquationSpec.plus(p, q)  # ValueError unless p, q > 0
    (u0, s0), (u1, s1) = islice(_sweep(*HoradamSpec.canonical(p, q)), n + r, n + r + 2)
    u, s = _shifted_w(p, q, Fraction(-u1 * s0, s1 * u0), n)
    return Fraction((-q.numerator) ** n * s, q.denominator ** n * u)


def johnson_product(p: Rational, q: Rational, r: int, n: int) -> Fraction:
    """(-1)**(r+1) * q**(r-n) * prod(i=1..n) x(i) from x0 = -W(r+1)/W(r), n > r.

    The prescribed x0 is itself forbidden at depth r, so for n > r the literal
    orbit stops before step n; the product is evaluated through its closed
    rational expression q**n / (W(n+1) + x0*W(n)), which continues the running
    product past the singular step.  The value equals W(r)/W(n-r).
    """
    p, q = as_fraction(p), as_fraction(q)
    if r < 1:
        raise ValueError("r must be >= 1")
    if n <= r:
        raise ValueError("n must exceed r")
    spec = HoradamSpec.canonical(p, q)  # ValueError when p^2 + 4q = 0 (coincident roots)
    (u0, s0), (u1, s1) = islice(_sweep(*spec), r, r + 2)
    u, s = _shifted_w(p, q, Fraction(-u1 * s0, s1 * u0), n)  # x0 = -W(r+1)/W(r)
    if not u:
        raise ZeroDenominator("product expression undefined at this index pair")
    return Fraction((-1) ** (r + 1) * q.numerator ** r * s, q.denominator ** r * u)
