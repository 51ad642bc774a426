"""The exact plane's integer-pair sweep against the Fraction arithmetic it
replaced, its conjugacy relations, and its gcd-free Fraction constructor."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from ratdyn import closed_form, dynamics, equation
from ratdyn.closed_form import (
    closed_form_series,
    forbidden_depth,
    forbidden_points,
    product_analysis,
    product_closed_form,
)
from ratdyn.dynamics import Plane, StatusKind, iterate, step
from ratdyn.equation import Branch, EquationSpec
from ratdyn.errors import ForbiddenInitialCondition, NearSingularity, ZeroDenominator
from ratdyn.horadam import HoradamSpec

PARAMS = (Fraction(5, 3), Fraction(9, 4), Fraction(1, 2), 1, 3, Fraction(10 ** 6),
          Fraction(1, 10 ** 6), Fraction(7, 10))
STEPS = {1: 120, 2: 7, 3: 5}  # exact iterates grow like nu**k for nu >= 2


def _pair(x: Fraction):
    return x.numerator, x.denominator


def _fraction_orbit(eq, x0, steps):
    """The exact orbit in Fraction arithmetic, stepped to the end with no cycle
    stop: (values, singular step or None)."""
    x, shift = Fraction(x0), eq.sign * eq.p
    values = [x]
    for k in range(1, steps + 1):
        den = x ** eq.nu + shift
        if den == 0:
            return values, k
        x = eq.q / den
        values.append(x)
    return values, None


def _ratios(p, q, depth):
    """W(m+1)/W(m) for m = 1..depth by the ratio recurrence r(m) = p + q/r(m-1)."""
    return list(accumulate(range(1, depth), lambda r, _: p + q / r, initial=Fraction(p)))


def _seeds(eq, rng):
    """x0 = 0, a negative and a positive seed, the rational fixed points of the
    map when there are any, and (nu = 1) forbidden seeds at depths 1..30."""
    seeds = [Fraction(0), Fraction(-rng.randint(1, 40), rng.randint(1, 9)),
             Fraction(rng.randint(1, 40), rng.randint(1, 9))]
    if eq.nu == 1:
        # x**2 + s*p*x - q = 0
        disc = eq.p * eq.p + 4 * eq.q
        root = closed_form.rational_sqrt(disc)
        if root is not None:
            seeds += [(-eq.sign * eq.p + root) / 2, (-eq.sign * eq.p - root) / 2]
        ratios = _ratios(eq.p, eq.q, 30)
        seeds += [-eq.sign * r for r in ratios]
    return seeds


def _grid():
    rng = random.Random(16)
    cells = [(branch, p, q, nu) for branch in (EquationSpec.plus, EquationSpec.minus)
             for nu in (1, 2, 3) for p in PARAMS for q in PARAMS
             if nu == 1 or rng.random() < 0.25]
    for branch, p, q, nu in cells:
        eq = branch(p, q, nu)
        yield eq, _seeds(eq, rng)
    # rational fixed points that trigger the exact-cycle stop
    yield EquationSpec.plus(1, 2), [Fraction(1), Fraction(-2)]
    yield EquationSpec.minus(1, 6), [Fraction(3), Fraction(-2)]
    yield EquationSpec.plus(2, 8), [Fraction(2)]
    yield EquationSpec.minus(2, 3, 3), [Fraction(-1)]


def test_exact_sweep_equals_the_fraction_arithmetic_it_replaces():
    kinds, cycles = set(), 0
    for eq, seeds in _grid():
        steps = STEPS[eq.nu]
        for x0 in seeds:
            values, singular = _fraction_orbit(eq, x0, steps)
            orbit = iterate(eq, x0, steps)
            assert list(map(_pair, orbit.values)) == list(map(_pair, values)), (eq, x0)
            assert orbit.status.step == singular, (eq, x0)
            kinds.add(orbit.status.kind)
            cycles += singular is None and len(set(values[-3:])) < 3
            if eq.nu != 1:
                continue
            assert forbidden_depth(eq, x0, steps) == singular
            if singular is None:
                assert list(map(_pair, closed_form_series(eq, x0, steps))) == \
                    list(map(_pair, values))
                if x0 not in _repelling(eq):
                    partials = product_analysis(eq, x0, steps).partials
                    assert list(map(_pair, partials)) == \
                        list(map(_pair, accumulate(values, mul)))
            else:
                with pytest.raises(ForbiddenInitialCondition) as raised:
                    closed_form_series(eq, x0, steps)
                assert raised.value.depth == singular
        if eq.nu == 1:
            ratios = _ratios(eq.p, eq.q, 60)
            assert [(pt.m, _pair(pt.value)) for pt in forbidden_points(eq, 60)] == \
                [(m, _pair(-eq.sign * r)) for m, r in enumerate(ratios, 1)]
    assert kinds == {StatusKind.COMPLETED, StatusKind.HIT_SINGULARITY}
    assert cycles > 0


def _repelling(eq):
    """The repelling fixed point `product_analysis` refuses, when rational."""
    phi = closed_form.rational_phi_plus(eq.p, eq.q)
    return () if phi is None else (-eq.sign * phi,)


def test_product_closed_form_equals_the_w_table_past_a_singular_step():
    for p, q in ((Fraction(5, 3), Fraction(9, 4)), (Fraction(1), Fraction(1)),
                 (Fraction(1, 2), Fraction(3))):
        w = [Fraction(0), Fraction(1)]
        while len(w) < 42:
            w.append(p * w[-1] + q * w[-2])
        for x0 in (Fraction(3, 7), Fraction(-2, 5), Fraction(0), -w[4] / w[3]):
            for n in range(40):
                den = w[n + 1] + x0 * w[n]
                if den == 0:  # only the forbidden seed, at n = 3
                    assert n == 3 and x0 == -w[4] / w[3]
                    with pytest.raises(ZeroDenominator):
                        product_closed_form(p, q, x0, n)
                else:
                    assert _pair(product_closed_form(p, q, x0, n)) == _pair(q ** n * x0 / den)


# --- the product identities against a W table and a live orbit -----------------


def _w_table(p, q, upto, check=True):
    """W(0..upto) of W(n; 0, 1, p, q) by the Fraction recurrence; with
    `check`, refused where the roots coincide, as `canonical_table` is."""
    if check:
        HoradamSpec.canonical(p, q)
    w = [Fraction(0), Fraction(1)]
    while len(w) <= upto:
        w.append(p * w[-1] + q * w[-2])
    return w[:upto + 1]


def _table_reconstruct(p, q, k, n):
    if k < 0:
        raise ValueError("k must be >= 0")
    if n <= k + 1:
        raise ValueError("n must exceed k + 1")
    ws = _w_table(p, q, k + 1)
    orbit = iterate(EquationSpec.plus(p, q), q * ws[k] / ws[k + 1], n - k - 1)
    return q ** (n - k - 1) * ws[k + 1] / math.prod(orbit.values[1:])


def _table_docagne(p, q, n, r):
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    ws = _w_table(p, q, n + r + 1)
    orbit = iterate(EquationSpec.plus(p, q), -ws[n + r + 1] / ws[n + r], n)
    return (-1) ** n * math.prod(orbit.values[1:])


def _table_johnson(p, q, r, n):
    if r < 1:
        raise ValueError("r must be >= 1")
    if n <= r:
        raise ValueError("n must exceed r")
    ws = _w_table(p, q, n + 1)
    x0 = -ws[r + 1] / ws[r]
    den = ws[n + 1] + x0 * ws[n]
    if den == 0:
        raise ZeroDenominator("product expression undefined at this index pair")
    return (-1) ** (r + 1) * q ** r / den


def _outcome(function, *args):
    """The value as (type, numerator, denominator), or the exception type."""
    try:
        value = function(*args)
    except (ValueError, ZeroDivisionError, ZeroDenominator) as exc:
        return type(exc)
    return type(value), value.numerator, value.denominator


IDENTITY_PARAMS = (0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3), Fraction(9, 4), Fraction(7, 10),
                   Fraction(1, 10 ** 6), Fraction(10 ** 6), -1, Fraction(-3, 2), -2,
                   Fraction(-1, 4))
# past several 64-step reduction blocks of the W sweep; p = 0, q = 0 and
# p**2 + 4q = 0 (p = 1, q = -1/4) among them
LONG_PARAMS = (0, 1, Fraction(5, 3), Fraction(9, 4), Fraction(-3, 2), Fraction(1, 10 ** 6),
               Fraction(-1, 4))


def test_product_identities_equal_the_w_table_and_orbit_products():
    # p, q <= 0 and p**2 + 4q = 0 (p = +-1, q = -1/4; p = q = 0) are in the
    # grid: each function must raise what the table and orbit path raises
    rng, outcomes = random.Random(17), Counter()
    draws = [(p, q, rng.randint(0, 25), rng.randint(0, 25), rng.randint(0, 8))
             for p in IDENTITY_PARAMS for q in IDENTITY_PARAMS for _ in range(6)]
    draws += [(p, q, rng.randint(150, 260), rng.randint(1, 130), rng.randint(0, 130))
              for p in LONG_PARAMS for q in LONG_PARAMS]
    for p, q, n, r, k in draws:
        p, q = Fraction(p), Fraction(q)
        for function, reference, args in (
                (closed_form.docagne_product, _table_docagne, (p, q, n, r)),
                (closed_form.johnson_product, _table_johnson, (p, q, r, n)),
                (closed_form.johnson_product, _table_johnson, (p, q, r, r + 1 + n)),
                (closed_form.reconstruct_horadam, _table_reconstruct, (p, q, k, n))):
            expected = _outcome(reference, *args)
            assert _outcome(function, *args) == expected, (function.__name__, args)
            kind = expected if isinstance(expected, type) else Fraction
            outcomes[function.__name__, kind] += 1
            outcomes[function.__name__, kind, "long"] += n >= 150
        if n >= 150:  # p, q unchecked: a value also where the roots coincide
            w, x0 = _w_table(p, q, n + 1, check=False), Fraction(-r, k + 1)
            den = w[n + 1] + x0 * w[n]
            if den == 0:
                with pytest.raises(ZeroDenominator):
                    product_closed_form(p, q, x0, n)
            else:
                assert _pair(product_closed_form(p, q, x0, n)) == _pair(q ** n * x0 / den)
            outcomes["product_closed_form", den == 0, p * p + 4 * q == 0] += 1
    for name in ("docagne_product", "johnson_product", "reconstruct_horadam"):
        assert outcomes[name, Fraction] > 0 and outcomes[name, ValueError] > 0
        assert outcomes[name, Fraction, "long"] > 0
    assert outcomes["johnson_product", ZeroDivisionError] > 0
    assert outcomes["johnson_product", ZeroDenominator] > 0
    assert outcomes["product_closed_form", False, True] > 0
    for p, q in ((1, Fraction(-1, 4)), (-1, Fraction(-1, 4)), (0, 0)):
        with pytest.raises(ValueError, match="coincide"):
            closed_form.johnson_product(p, q, 1, 2)


def _float_orbit_checks(eq, x0):
    orbit = iterate(eq, x0, 400, Plane.FLOAT)
    for a, b in zip(orbit.values, orbit.values[1:]):
        assert step(eq, a).hex() == b.hex(), (eq, x0)
    if not orbit.status.ok:
        with pytest.raises(NearSingularity):
            step(eq, orbit.values[-1])
    return orbit.status.kind


def test_step_equals_iterate_step_by_step_in_both_planes():
    kinds = set()
    for branch in (EquationSpec.plus, EquationSpec.minus):
        for nu in (1, 2, 3, 4):
            for p, q in ((Fraction(5, 3), Fraction(9, 4)), (1, 1), (Fraction(1, 2), 2),
                         (Fraction(10 ** 6), Fraction(1, 10 ** 6))):
                eq = branch(p, q, nu)
                shift = float(eq.sign * eq.p)
                for x0 in (Fraction(1, 2), Fraction(-3, 2), Fraction(1), Fraction(2)):
                    orbit = iterate(eq, x0, STEPS.get(nu, 4))
                    for a, b in zip(orbit.values, orbit.values[1:]):
                        assert _pair(step(eq, a)) == _pair(b), (eq, x0)
                    if not orbit.status.ok:
                        with pytest.raises(ZeroDenominator):
                            step(eq, orbit.values[-1])
                    kinds.add(orbit.status.kind)
                    kinds.add(_float_orbit_checks(eq, float(x0)))
                for x0 in (-0.0, math.nan):
                    kinds.add(_float_orbit_checks(eq, x0))
                if nu % 2 or shift < 0:
                    root = abs(shift) ** (1 / nu)
                    kinds.add(_float_orbit_checks(eq, root if shift < 0 else -root))
    assert kinds == set(StatusKind)


# --- conjugacies ------------------------------------------------------------------


def _conjugate(eq, lam):
    """The map of y = x/lam: (p, q, nu) -> (p/lam**nu, q/lam**(nu+1), nu), on
    the other branch when lam**nu < 0."""
    scale = Fraction(lam) ** eq.nu
    branch = eq.branch if scale > 0 else (
        Branch.MINUS if eq.branch is Branch.PLUS else Branch.PLUS)
    return EquationSpec(branch, eq.p / abs(scale), eq.q / (scale * lam), eq.nu)


LAMBDAS = (Fraction(2), Fraction(-2), Fraction(3, 5), Fraction(-7, 2))


def test_exact_results_scale_under_the_conjugacy_x_equals_lambda_y():
    singular = 0
    for lam in LAMBDAS:
        for nu in ((1, 2, 3) if lam > 0 else (1, 3)):
            for branch in (EquationSpec.plus, EquationSpec.minus):
                for p, q in ((Fraction(5, 3), Fraction(9, 4)), (1, 2), (Fraction(1, 2), 3)):
                    eq = branch(p, q, nu)
                    conj = _conjugate(eq, lam)
                    seeds = [Fraction(3, 7), Fraction(-5, 2), Fraction(0)]
                    if nu == 1:
                        seeds.append(forbidden_points(eq, 9)[-1].value)
                    for x0 in seeds:
                        orbit = iterate(eq, x0, STEPS[nu])
                        image = iterate(conj, x0 / lam, STEPS[nu])
                        assert orbit.values == tuple(lam * y for y in image.values)
                        assert orbit.status == image.status
                        singular += not orbit.status.ok
                        if nu != 1:
                            continue
                        assert forbidden_depth(eq, x0, 30) == forbidden_depth(conj, x0 / lam, 30)
                        if orbit.status.ok:
                            series = closed_form_series(conj, x0 / lam, 60)
                            assert closed_form_series(eq, x0, 60) == [lam * y for y in series]
                            partials = product_analysis(conj, x0 / lam, 60).partials
                            assert product_analysis(eq, x0, 60).partials == tuple(
                                lam ** (n + 1) * y for n, y in enumerate(partials))
                    if nu == 1:
                        assert [pt.value for pt in forbidden_points(eq, 30)] == \
                            [lam * pt.value for pt in forbidden_points(conj, 30)]
    assert singular > 0


# --- the gcd-free constructor -----------------------------------------------------


COPRIME = [(0, 1), (1, 1), (-1, 1), (-7, 3), (5, 12), (2 ** 4000 + 1, 3 ** 2500),
           (-(3 ** 2501), 2 ** 4001), (10 ** 300 + 7, 1)]


@pytest.mark.parametrize("n, d", COPRIME)
def test_the_gcd_free_constructor_equals_the_public_one(n, d):
    fast, public = dynamics._fraction(n, d), Fraction(n, d)
    assert type(fast) is Fraction
    assert (fast.numerator, fast.denominator, hash(fast)) == \
        (public.numerator, public.denominator, hash(public))
    assert fast == public and str(fast) == str(public)


def test_the_constructor_falls_back_to_the_public_one():
    class Public:
        def __init__(self, n, d):
            self.pair = (n, d)

    assert equation._coprime_constructor(Public) is Public
    assert equation._coprime_constructor(Fraction) is not Fraction  # 3.10 to 3.13


def _sweep_outputs():
    eq, minus = EquationSpec.plus(Fraction(5, 3), Fraction(9, 4)), EquationSpec.minus(2, 3)
    outputs = [iterate(eq, Fraction(3, 7), 300).values,
               iterate(EquationSpec.plus(1, 2, 2), Fraction(3), 8).values,
               step(minus, Fraction(-1, 2)),
               closed_form_series(minus, Fraction(-1, 2), 200),
               forbidden_points(minus, 100),
               product_analysis(eq, Fraction(-3, 7), 200).partials,
               product_closed_form(1, 2, Fraction(-3, 2), 9)]
    return [[_pair(v) if isinstance(v, Fraction) else (v.m, _pair(v.value))
             for v in (out if isinstance(out, (list, tuple)) else [out])] for out in outputs]


def test_the_sweep_is_unchanged_on_the_public_constructor(monkeypatch):
    fast = _sweep_outputs()
    monkeypatch.setattr(dynamics, "_fraction", Fraction)
    assert _sweep_outputs() == fast
