"""Closed-form solutions, forbidden sets and product limits for nu = 1.

For nu = 1 both maps are Moebius transformations and every orbit is a
rational expression in the canonical recurrence values W(n) = W(n; 0,1,p,q):

    plus branch:   x(n) = q*(W(n) + x0*W(n-1)) / (W(n+1) + x0*W(n))
    minus branch:  y(n) = -q*(W(n) - y0*W(n-1)) / (W(n+1) - y0*W(n))

The minus form is the plus form conjugated through y = -x; equivalently it
is the negative-index solution formula with the signs of the odd-index
terms folded in.  Everything here runs on exact rationals except the
limit values, which involve the irrational roots phi_plus/phi_minus.

The exact values are not read off a table of W(n) but from one integer sweep,
the exact plane of `dynamics.iterate`: each iterate is a reduced pair (N, D),
and one step maps it to num = qn*pd*D over E = s*pn*qd*D + pd*qd*N (p = pn/pd,
q = qn/qd, s = +1 plus, -1 minus), reduced by a common factor g that divides
M = qn*pd**2*qd.  So no term pays a gcd of two big operands.  Stepped without
reduction, the pair's denominator is b*(pd*qd)**n*(W(n+1) + s*x0*W(n)), b the
denominator of x0, which continues past a step where it vanishes.  From x0 = 0
it is W(n+1): the product identities read W and x(1)*...*x(n) = q**n/den off it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from . import dynamics
from .equation import Branch, EquationSpec, Rational, as_fraction
from .errors import ForbiddenInitialCondition, SingularInput, ZeroDenominator
# bench/trace_run.py wraps this module's `canonical_table`.
from .horadam import HoradamSpec, binet_roots, canonical_table  # noqa: F401

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
    denominator at step m exactly, never earlier.  The ratios r(m) =
    W(m+1)/W(m) follow r(1) = p, r(m) = p + q/r(m-1), so r(m) = q/u(m) for
    the plus orbit u from 0; p, q > 0 keep every W(m) and u(m), m >= 1,
    positive.  For u(m) = n/d in lowest terms, q/u(m) = qn*d / (qd*n) reduces
    by gcd(qn, n)*gcd(qd, d).
    """
    _require_nu_one(eq)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    qn, qd, sign = eq.q.numerator, eq.q.denominator, -eq.sign
    orbit = dynamics._exact_pairs(EquationSpec.plus(eq.p, eq.q), Fraction(0))
    points = []
    for m, (n, d, _) in enumerate(islice(orbit, depth), 1):
        hn, hd = gcd(n % qn, qn), gcd(d % qd, qd)
        if hn != 1:
            n //= hn
        if hd != 1:
            d //= hd
        points.append(ForbiddenPoint(m, dynamics._fraction(sign * qn // hn * d, qd // hd * n)))
    return points


def _closed_denominator(p: Fraction, q: Fraction, x0: Union[int, Fraction], n: int) -> Fraction:
    """W(n+1) + x0*W(n), the plus-branch closed-form denominator at step n.

    It steps the integer pair (N, D) = (x0.numerator, x0.denominator) n
    times by the rule of `dynamics._exact_step`, without reducing it:
    N' = qn*pd*D, D' = pd*qd*N + pn*qd*D.  Then D(n) = x0.denominator *
    (pd*qd)**n * (W(n+1) + x0*W(n)), also past a step where it vanishes.
    """
    _, sp, lift, c, _ = dynamics._exact_rule(1, p, q, 1)  # lift = pd*qd
    num, den = x0.numerator, x0.denominator
    for _ in range(n):
        num, den = c * den, lift * num + sp * den
    return Fraction(den, x0.denominator * lift ** n)


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
    _require_nu_one(eq)
    if n < 0:
        raise ValueError("n must be nonnegative")
    orbit = dynamics.iterate(eq, x0, n)
    if not orbit.status.ok:
        raise ForbiddenInitialCondition(orbit.status.step)
    return list(orbit.values)


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
    if eq.branch is Branch.PLUS:
        value = float(eq.q) / root
        return (value, value)
    return (root, root)


def asymptotic_limit(eq: EquationSpec) -> float:
    """Limit of generic orbits: -phi_minus on the plus branch, phi_minus on minus."""
    _require_nu_one(eq)
    roots = binet_roots(float(eq.p), float(eq.q))
    if eq.branch is Branch.PLUS:
        return -roots.phi_minus
    return roots.phi_minus


def excluded_points(eq: EquationSpec) -> Tuple[float, float]:
    """The two irrational initial conditions excluded from the solution set:
    (1/phi_plus, 1/phi_minus) on the plus branch, (phi_plus, phi_minus) on minus."""
    _require_nu_one(eq)
    roots = binet_roots(float(eq.p), float(eq.q))
    if eq.branch is Branch.PLUS:
        return (1.0 / roots.phi_plus, 1.0 / roots.phi_minus)
    return (roots.phi_plus, roots.phi_minus)


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


def product_closed_form(p: Rational, q: Rational, x0: Rational, n: int) -> Fraction:
    """Running product x0*x1*...*xn of the plus-branch orbit as the single
    rational expression q**n * x0 / (W(n+1) + x0*W(n))."""
    p, q, x0 = as_fraction(p), as_fraction(q), as_fraction(x0)
    den = _closed_denominator(p, q, x0, n)
    if den == 0:
        raise ZeroDenominator(f"product denominator vanishes at n = {n}")
    return q ** n * x0 / den


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
    subsequence to its negative (`alternating` is set).  When p < q-1 the
    products diverge and predicted_limit is None; divergence is certified by
    growth of the running maximum, not asserted symbolically.
    """

    regime: Regime
    predicted_limit: Optional[Fraction]
    alternating: bool
    partials: Tuple[Fraction, ...]


def product_analysis(eq: EquationSpec, x0: Rational, steps: int) -> ProductAnalysis:
    """Exact partial products prod(i=0..n) x(i) for n = 0..steps with limit data."""
    _require_nu_one(eq)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = as_fraction(x0)

    # The repelling fixed point makes the product formula denominator vanish
    # in the limit; it is representable by a rational x0 only when the
    # discriminant is a perfect square.
    phi_plus = rational_phi_plus(eq.p, eq.q)
    if phi_plus is not None:
        blocked = -phi_plus if eq.branch is Branch.PLUS else phi_plus
        if x0 == blocked:
            raise SingularInput(f"initial condition {x0} is the repelling fixed point")

    partials = _partial_products(eq, x0, steps)
    diff = eq.p - (eq.q - 1)
    if diff > 0:
        regime = Regime.P_GREATER_QM1
        predicted: Optional[Fraction] = Fraction(0)
        alternating = False
    elif diff == 0:
        regime = Regime.P_EQUAL_QM1
        if eq.branch is Branch.PLUS:
            predicted = x0 * (eq.q + 1) / (eq.q + x0)
            alternating = False
        else:
            predicted = x0 * (eq.q + 1) / (eq.q - x0)
            alternating = True
    else:
        regime = Regime.P_LESS_QM1
        predicted = None
        alternating = False
    return ProductAnalysis(
        regime=regime,
        predicted_limit=predicted,
        alternating=alternating,
        partials=partials,
    )


def _partial_products(eq: EquationSpec, x0: Fraction, steps: int) -> Tuple[Fraction, ...]:
    """P(0), ..., P(steps) with P(k) = x(0)*...*x(k), from the integer sweep.

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
    sign, alpha, beta, smooth = (-1 if n0 < 0 else 1), abs(n0), 1, abs(n0) * c
    partials = [x0]
    append, fraction = partials.append, dynamics._fraction
    for n, d, g in islice(dynamics._exact_pairs(eq, x0), steps):
        if not n0:
            append(x0)  # every product of an orbit from 0 is 0
            continue
        if n < 0:
            sign = -sign
        up = c
        if g != 1:
            h = gcd(alpha % g, g)
            alpha, g = alpha // h, g // h
            h = gcd(up, g)
            up, g = up // h, g // h
        h = gcd(beta % up, up)
        if h != 1:
            beta, up = beta // h, up // h
        alpha, beta = alpha * up, beta * g
        # every prime common to a and d divides h
        a, h = alpha, gcd(d % smooth, smooth)
        while h != 1:
            h = gcd(a % h, h)
            if h != 1:
                a, d = a // h, d // h
                h = gcd(d % h, h)
        append(fraction(sign * a, beta * d))
    if len(partials) <= steps:
        raise ForbiddenInitialCondition(len(partials))
    return tuple(partials)


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
    w_next = _closed_denominator(p, q, 0, k)  # W(k+1)
    x0 = q * _closed_denominator(p, q, 0, k - 1) / w_next if k else 0
    return w_next * _closed_denominator(p, q, x0, n - k - 1)


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
    x0 = -_closed_denominator(p, q, 0, n + r) / _closed_denominator(p, q, 0, n + r - 1)
    return (-q) ** n / _closed_denominator(p, q, x0, n)


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
    HoradamSpec.canonical(p, q)  # ValueError when p^2 + 4q = 0 (coincident roots)
    x0 = -_closed_denominator(p, q, 0, r) / _closed_denominator(p, q, 0, r - 1)
    den = _closed_denominator(p, q, x0, n)
    if den == 0:
        raise ZeroDenominator("product expression undefined at this index pair")
    return (-1) ** (r + 1) * q ** r / den  # q**(r-n) times the product q**n / den
