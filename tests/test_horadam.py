"""Recurrence engine: values, roots, ring powers, exact identities."""

from __future__ import annotations

import functools
import math
import random
import types
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratdyn import closed_form, dynamics, horadam
from ratdyn.equation import EquationSpec

from ratdyn.errors import ZeroDenominator
from ratdyn.horadam import (
    HoradamSpec,
    IdentityKind,
    QuadraticElement,
    binet_roots,
    canonical_table,
    check_identity,
    horadam_at,
    horadam_range,
    identity_battery,
    phi_power,
    ratio_estimate,
)

# Reference tables, unrolled by hand from W(n+1) = p*W(n) + q*W(n-1), W0=0, W1=1.
FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]   # p=1 q=1
PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378]                        # p=2 q=1
JACOB = [0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341]                           # p=1 q=2

FIB_SPEC = HoradamSpec.canonical(1, 1)
PELL_SPEC = HoradamSpec.canonical(2, 1)
JACOB_SPEC = HoradamSpec.canonical(1, 2)


def test_reference_tables():
    assert [horadam_at(FIB_SPEC, n) for n in range(len(FIB))] == FIB
    assert [horadam_at(PELL_SPEC, n) for n in range(len(PELL))] == PELL
    assert [horadam_at(JACOB_SPEC, n) for n in range(len(JACOB))] == JACOB


def test_spec_examples():
    assert horadam_at(FIB_SPEC, 15) == 610
    assert horadam_at(PELL_SPEC, 5) == 29
    assert horadam_at(HoradamSpec(7, -3, 2, 5), 0) == 7
    assert horadam_at(FIB_SPEC, -3) == 2


def test_negative_index_reflection_for_unit_q():
    for spec in (FIB_SPEC, PELL_SPEC, HoradamSpec.canonical(3, 1)):
        for n in range(1, 31):
            assert horadam_at(spec, -n) == (-1) ** (n + 1) * horadam_at(spec, n)


def test_negative_indices_satisfy_forward_recurrence():
    # The backward extension is defined by inverting the forward step, so the
    # forward relation must keep holding across zero for any rational q.
    for p, q in [(1, 2), (3, 2), (2, Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 3))]:
        spec = HoradamSpec.canonical(p, q)
        for n in range(-12, 12):
            lhs = horadam_at(spec, n + 1)
            assert lhs == spec.p * horadam_at(spec, n) + spec.q * horadam_at(spec, n - 1)


def test_negative_index_needs_nonzero_q():
    spec = HoradamSpec(0, 1, 2, 0)  # discriminant 4, valid; backward walk is not
    assert horadam_at(spec, 5) == 16
    with pytest.raises(ZeroDenominator):
        horadam_at(spec, -1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.integers(-5, 5),
    b=st.integers(-5, 5),
    p=st.integers(1, 5),
    q=st.integers(1, 5),
    n=st.integers(-30, 60),
)
def test_recurrence_consistency(a, b, p, q, n):
    spec = HoradamSpec(a, b, p, q)
    assert horadam_at(spec, n + 1) == spec.p * horadam_at(spec, n) + spec.q * horadam_at(spec, n - 1)


def test_horadam_range_matches_pointwise():
    spec = HoradamSpec.canonical(2, 3)
    assert horadam_range(spec, -4, 6) == [horadam_at(spec, n) for n in range(-4, 7)]


def naive_walk(spec, start, stop):
    """W(start), ..., W(stop) by a Fraction walk from the seeds each way: the
    reference, which reduces every term."""
    w = {0: spec.a, 1: spec.b}
    for n in range(2, stop + 1):
        w[n] = spec.p * w[n - 1] + spec.q * w[n - 2]
    for n in range(-1, start - 1, -1):
        w[n] = (w[n + 2] - spec.p * w[n + 1]) / spec.q
    return [w[n] for n in range(start, stop + 1)]


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


F = Fraction


# past several 64-step reduction blocks of the sweep, to indices -300 and 300
@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=RATIONALS, b=RATIONALS, p=RATIONALS, q=RATIONALS,
       start=st.integers(-25, 25), length=st.integers(0, 30))
@example(a=F(0), b=F(1), p=F(5, 3), q=F(9, 4), start=0, length=300)
@example(a=F(1, 3), b=F(-2), p=F(5, 3), q=F(9, 4), start=-300, length=600)
@example(a=F(7, 3), b=F(1), p=F(-3, 2), q=F(1, 10 ** 6), start=-300, length=600)
@example(a=F(1), b=F(0), p=F(1, 10 ** 6), q=F(-3, 2), start=-300, length=600)
@example(a=F(-2), b=F(1, 3), p=F(0), q=F(9, 4), start=-300, length=600)
@example(a=F(1), b=F(0), p=F(0), q=F(9, 4), start=-300, length=600)  # W(odd) = 0
@example(a=F(0), b=F(1), p=F(9, 4), q=F(5, 3), start=-100, length=57)
def test_sweep_matches_naive_walk(a, b, p, q, start, length):
    assume(q != 0 and p * p + 4 * q != 0)
    spec, stop = HoradamSpec(a, b, p, q), start + length
    expected = naive_walk(spec, start, stop)
    assert horadam_range(spec, start, stop) == expected
    assert horadam_at(spec, start) == expected[0]
    assert horadam_at(spec, stop) == expected[-1]
    if start == 0:
        assert canonical_table(p, q, stop) == naive_walk(HoradamSpec.canonical(p, q), 0, stop)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=RATIONALS, b=RATIONALS, p=RATIONALS.filter(bool),
       start=st.integers(-25, 25), length=st.integers(0, 30))
@example(a=F(1, 3), b=F(7, 3), p=F(5, 3), start=0, length=300)
@example(a=F(0), b=F(1), p=F(-3, 2), start=37, length=263)
@example(a=F(-2), b=F(1), p=F(1, 10 ** 6), start=-100, length=200)
def test_sweep_with_zero_q(a, b, p, start, length):
    spec, stop = HoradamSpec(a, b, p, 0), start + length
    if start < 0:
        with pytest.raises(ZeroDenominator):
            horadam_range(spec, start, stop)
        with pytest.raises(ZeroDenominator):
            horadam_at(spec, start)
    else:
        expected = naive_walk(spec, start, stop)
        assert horadam_range(spec, start, stop) == expected


def _seeded_specs(count):
    """Seeded rational specs whose denominators share primes with each other
    and with the numerators, some large, so reductions have work to do."""
    rng = random.Random(13)
    parts = [1, 2, 3, 4, 6, 8, 9, 12, 27, 64, 10 ** 6, 2 ** 40 * 3, 7 * 11 * 13]

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.choice(parts), rng.choice(parts))

    specs = []
    while len(specs) < count:
        a, b, p, q = (rational() for _ in range(4))
        if p * p + 4 * q != 0:
            specs.append(HoradamSpec(a, b, p, q))
    return specs


@pytest.mark.parametrize("spec", [
    *_seeded_specs(16),
    # terms where dividing by gcd(s, gcd(u, k)) leaves a common prime: a second round
    HoradamSpec(Fraction(-10 ** 6, 1001), Fraction(2, 3), Fraction(8, 3), Fraction(-3, 2)),
    HoradamSpec(-1, -3 * 2 ** 40, Fraction(2, 3), 2),
])
def test_range_terms_equal_the_fraction_of_each_swept_pair(spec):
    # forward and backward, across many of the range's 8-step reduction blocks
    for backward in (False, True):
        pairs = islice(horadam._sweep(*spec, backward), 300)
        terms = horadam_range(spec, -299, 0)[::-1] if backward else horadam_range(spec, 0, 299)
        for term, (u, s) in zip(terms, pairs):
            reference = Fraction(u, s)
            assert (term.numerator, term.denominator) == (reference.numerator,
                                                          reference.denominator)
    # both ends at once, as the identity checks read them
    assert horadam_range(spec, -40, 40) == [horadam_at(spec, n) for n in range(-40, 41)]


def test_range_takes_no_gcd_of_two_big_operands(monkeypatch):
    # Bit lengths, not time: each term is reduced against a power of the
    # small denominators, while `Fraction(U, S)` is a gcd of two ~10k-bit ints.
    seen = []
    real_gcd = math.gcd

    def recording(*args):
        seen.append(sorted(x.bit_length() for x in args)[-2] if len(args) > 1 else 0)
        return real_gcd(*args)

    spec = HoradamSpec(Fraction(2, 7), Fraction(3, 5), Fraction(5, 3), Fraction(9, 4))
    expected = [Fraction(u, s) for u, s in islice(horadam._sweep(*spec), 2001)]
    monkeypatch.setattr(math, "gcd", recording)
    terms = horadam_range(spec, 0, 2000)
    monkeypatch.undo()
    assert terms == expected and expected[-1].denominator.bit_length() > 5000
    assert seen and max(seen) <= 1024


# ROADMAP item 13's invariant: each nu = 1 entry point at a rational cell.
# `_BIG_BY_DESIGN` build one big Fraction per call (a product or ratio of two
# sweep values), so a constant number of big gcds per call, not one per index.
_P, _Q, _X0, _N = Fraction(5, 3), Fraction(9, 4), Fraction(3, 7), 2000
_SPEC, _CANONICAL = HoradamSpec(Fraction(1, 3), 5, _P, _Q), HoradamSpec.canonical(_P, _Q)
_PLUS, _MINUS = EquationSpec.plus(_P, _Q), EquationSpec.minus(_P, _Q)
_NO_BIG_GCD = {
    "closed_form_series plus": lambda: closed_form.closed_form_series(_PLUS, _X0, _N),
    "closed_form_series minus": lambda: closed_form.closed_form_series(_MINUS, _X0, _N),
    "solve_closed_form": lambda: closed_form.solve_closed_form(_PLUS, _X0, _N),
    "forbidden_points": lambda: closed_form.forbidden_points(_PLUS, _N),
    "forbidden_depth": lambda: closed_form.forbidden_depth(_PLUS, _X0, _N),
    "product_analysis": lambda: closed_form.product_analysis(_PLUS, _X0, _N),
    "iterate": lambda: dynamics.iterate(_PLUS, _X0, _N),
    "horadam_range": lambda: horadam_range(_SPEC, -_N, _N),
    "identity_battery": lambda: identity_battery(_CANONICAL, 60),
    "check_identity": lambda: check_identity(IdentityKind.CASSINI, _CANONICAL, (_N,)),
}
_BIG_BY_DESIGN = {
    "conjugate_orbit_check": lambda: closed_form.conjugate_orbit_check(_P, _Q, _X0, _N),
    "product_closed_form": lambda: closed_form.product_closed_form(_P, _Q, _X0, _N),
    "reconstruct_horadam": lambda: closed_form.reconstruct_horadam(_P, _Q, 3, _N),
    "docagne_product": lambda: closed_form.docagne_product(_P, _Q, _N, 3),
    "johnson_product": lambda: closed_form.johnson_product(_P, _Q, 3, _N),
    "horadam_at": lambda: horadam_at(_SPEC, _N),
    "ratio_estimate": lambda: ratio_estimate(_SPEC, 3, _N),
}


def test_no_entry_point_takes_a_gcd_of_two_big_operands(monkeypatch):
    # Counts, not time: gcd calls, from `fractions` or the library's own
    # imported `gcd`, that see two operands above 4,096 bits.
    big, real_gcd = [], math.gcd

    def recording(*args):
        big.append(sum(abs(x).bit_length() > 4096 for x in args) >= 2)
        return real_gcd(*args)

    counts = {}
    with monkeypatch.context() as patch:
        for module in (math, closed_form, dynamics):
            patch.setattr(module, "gcd", recording)
        for name, call in {**_NO_BIG_GCD, **_BIG_BY_DESIGN}.items():
            big.clear()
            call()
            counts[name] = sum(big)
    assert all(counts[name] == 0 for name in _NO_BIG_GCD), counts
    assert all(counts[name] <= 2 for name in _BIG_BY_DESIGN), counts


def _count_steps(monkeypatch, core, work, n):
    # a step function counts its calls, the W sweep (a generator) the terms it yields
    calls, step = [], getattr(*core)

    def counting(*args):
        result = step(*args)
        if isinstance(result, types.GeneratorType):
            return (calls.append(args) or term for term in result)
        calls.append(args)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(*core, counting)
        work(n)
    return len(calls)


@pytest.mark.parametrize("core, work", [
    ((horadam, "_sweep"),
     lambda n: horadam_range(HoradamSpec(Fraction(1, 3), 2, 3, Fraction(1, 2)), -n, n)),
    # the closed form runs on the integer orbit sweep of `dynamics`
    ((dynamics, "_exact_step"),
     lambda n: closed_form.closed_form_series(EquationSpec.minus(2, 3), Fraction(-1, 2), n)),
    ((horadam, "_sweep"), lambda n: identity_battery(HoradamSpec.canonical(2, 3), n)),
], ids=["horadam_range", "closed_form_series", "identity_battery"])
def test_recurrence_steps_grow_linearly(monkeypatch, core, work):
    # Counts of the core step, not time: a per-index walk would grow 16-fold.
    small, large = (_count_steps(monkeypatch, core, work, n) for n in (20, 80))
    assert 0 < small and large <= 4 * small


def test_identity_battery_rows_and_validation():
    spec = HoradamSpec.canonical(2, 3)
    rows = identity_battery(spec, 6)
    assert [(kind, checks) for kind, checks, _ in rows] == [
        (IdentityKind.CONVOLUTION, 15), (IdentityKind.CASSINI, 6), (IdentityKind.DOCAGNE, 15),
        (IdentityKind.JOHNSON, 1536), (IdentityKind.PHI_POWER, 6)]
    assert all(worst == 0 for _, _, worst in rows)
    # Johnson tuples read W down to index -10, through the backward walk.
    assert check_identity(IdentityKind.JOHNSON, spec, (0, 0, 7, -7, 3)) == 0
    with pytest.raises(ValueError):
        identity_battery(spec, 0)
    with pytest.raises(ValueError, match="stated for seeds"):
        identity_battery(HoradamSpec(1, 1, 1, 1), 5)


def test_spec_invariant_rejects_double_root():
    with pytest.raises(ValueError):
        HoradamSpec(0, 1, 2, -1)  # p^2 + 4q = 0


def test_spec_rejects_floats():
    with pytest.raises(TypeError):
        HoradamSpec(0, 1, 0.5, 1)


# --- roots and Binet form ---------------------------------------------------


def test_binet_roots_examples():
    silver = binet_roots(2, 1)
    assert silver.phi_plus == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    jac = binet_roots(1, 2)
    assert jac.phi_plus == pytest.approx(2.0, abs=1e-12)
    assert jac.phi_minus == pytest.approx(-1.0, abs=1e-12)
    golden = binet_roots(1, 1)
    assert golden.phi_plus == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert golden.phi_minus == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-12)


def test_binet_root_relations():
    for p, q in [(1, 1), (2, 1), (1, 2), (3, 5), (Fraction(1, 2), Fraction(7, 3))]:
        roots = binet_roots(float(p), float(q))
        assert roots.phi_plus + roots.phi_minus == pytest.approx(float(p), rel=1e-12)
        assert roots.phi_plus * roots.phi_minus == pytest.approx(-float(q), rel=1e-12)
        diff = math.sqrt(float(p) ** 2 + 4 * float(q))
        assert roots.phi_plus - roots.phi_minus == pytest.approx(diff, rel=1e-12)


def test_binet_roots_guard():
    with pytest.raises(ValueError, match="is not positive"):
        binet_roots(1, -1)
    with pytest.raises(ValueError, match="is not positive"):
        binet_roots(2, -1)  # discriminant exactly zero


def test_binet_value_agrees_with_recurrence():
    for p, q, a, b in [(1, 1, 0, 1), (2, 1, 0, 1), (1, 2, 0, 1), (3, 2, 2, -1)]:
        spec = HoradamSpec(a, b, p, q)
        roots = binet_roots(p, q, a, b)
        for n in range(0, 41):
            wn = horadam_at(spec, n)
            err = abs(float(wn) - roots.binet_value(n)) / max(1.0, abs(float(wn)))
            assert err < 1e-9


# --- quadratic ring ----------------------------------------------------------


def test_quadratic_element_closure_against_roots():
    rng = random.Random(7)
    for _ in range(50):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        roots = binet_roots(p, q)
        e1 = QuadraticElement(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(p), Fraction(q))
        e2 = QuadraticElement(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(p), Fraction(q))
        prod = e1 * e2
        for root in (roots.phi_plus, roots.phi_minus):
            assert prod.evaluate(root) == pytest.approx(e1.evaluate(root) * e2.evaluate(root), rel=1e-9, abs=1e-9)


def test_phi_power_examples():
    # (p=1,q=1,n=2): phi^2 = 1 + phi
    el = phi_power(1, 1, 2)
    assert (el.u, el.v) == (1, 1)
    # (p=2,q=1,n=3): multiply (0,1) three times by hand:
    # (0,1) -> (1,2) -> (q*2, 1+2*2) = (2,5)
    el = phi_power(2, 1, 3)
    assert (el.u, el.v) == (2, 5)
    # (p=1,q=2,n=4): (0,1) -> (2,1) -> (2,3) -> (6,5); check against both roots.
    el = phi_power(1, 2, 4)
    assert (el.u, el.v) == (6, 5)
    roots = binet_roots(1, 2)
    for root in (roots.phi_plus, roots.phi_minus):
        assert el.evaluate(root) == pytest.approx(root ** 4, rel=1e-12)


def test_phi_power_coefficient_law():
    # phi^n = q*W(n-1) + W(n)*phi for canonical specs; the factor q on the
    # constant coordinate is essential whenever q != 1.
    for p, q in [(1, 1), (2, 1), (1, 2), (3, 5), (2, 3)]:
        spec = HoradamSpec.canonical(p, q)
        for n in range(1, 51):
            el = phi_power(p, q, n)
            assert el.u == spec.q * horadam_at(spec, n - 1)
            assert el.v == horadam_at(spec, n)


def test_phi_power_identity_float_crosscheck():
    roots = binet_roots(3, 5)
    for n in range(1, 20):
        el = phi_power(3, 5, n)
        assert el.evaluate(roots.phi_plus) == pytest.approx(roots.phi_plus ** n, rel=1e-9)
        if n <= 8:  # at the minus root the coordinates cancel, so large n loses digits
            assert el.evaluate(roots.phi_minus) == pytest.approx(roots.phi_minus ** n, rel=1e-7)


def test_phi_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="^phi_power requires n >= 0$"):
        phi_power(1, 1, -1)


# --- identities --------------------------------------------------------------


def test_cassini_example():
    # F3*F5 - F4^2 + (-1)^3 = 2*5 - 9 - 1 = 0
    assert check_identity(IdentityKind.CASSINI, FIB_SPEC, (4,)) == 0


def test_docagne_example_pell():
    # W5*W4 - W6*W3 = 29*12 - 70*5 = -2 = (-1)^3 * 1^3 * W2
    assert check_identity(IdentityKind.DOCAGNE, PELL_SPEC, (3, 2)) == 0


def test_johnson_example_jacobsthal():
    # J5*J1 - J4*J2 = 11 - 5 = 6 and (-2)^1 (J4*J0 - J3*J1) = -2*(0-3) = 6
    assert check_identity(IdentityKind.JOHNSON, JACOB_SPEC, (5, 1, 4, 2, 1)) == 0


def test_phi_power_identity_returns_zero_pair():
    assert check_identity(IdentityKind.PHI_POWER, JACOB_SPEC, (7,)) == (0, 0)


def test_identities_randomized_all_kinds():
    rng = random.Random(20240810)
    for _ in range(60):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        spec = HoradamSpec.canonical(p, q)
        k = rng.randint(0, 10)
        n = rng.randint(k + 2, k + 14)
        assert check_identity(IdentityKind.CONVOLUTION, spec, (n, k)) == 0
        assert check_identity(IdentityKind.CASSINI, spec, (rng.randint(1, 25),)) == 0
        assert check_identity(IdentityKind.DOCAGNE, spec, (rng.randint(1, 12), rng.randint(1, 12))) == 0
        kk, ll, mm = rng.randint(-4, 10), rng.randint(-4, 10), rng.randint(-4, 10)
        nn = kk + ll - mm
        assert check_identity(IdentityKind.JOHNSON, spec, (kk, ll, mm, nn, rng.randint(1, 6))) == 0
        assert check_identity(IdentityKind.PHI_POWER, spec, (rng.randint(1, 30),)) == (0, 0)


def test_identity_requires_canonical_spec():
    with pytest.raises(ValueError, match="stated for seeds"):
        check_identity(IdentityKind.CASSINI, HoradamSpec(1, 1, 1, 1), (3,))


def test_identity_index_constraints():
    with pytest.raises(ValueError, match="^cassini requires"):
        check_identity(IdentityKind.CASSINI, FIB_SPEC, (0,))
    with pytest.raises(ValueError, match="^convolution requires"):
        check_identity(IdentityKind.CONVOLUTION, FIB_SPEC, (3, 2))  # n = k+1
    with pytest.raises(ValueError, match="^docagne requires"):
        check_identity(IdentityKind.DOCAGNE, FIB_SPEC, (0, 1))
    with pytest.raises(ValueError, match="^johnson requires"):
        check_identity(IdentityKind.JOHNSON, FIB_SPEC, (1, 2, 3, 4, 1))
    with pytest.raises(ValueError, match="^phi_power check requires"):
        check_identity(IdentityKind.PHI_POWER, FIB_SPEC, (0,))


# --- integer residuals against the Fraction formulas ---------------------------


def reference_terms(spec):
    """i -> W(i) through horadam_at, each i computed once."""
    return functools.lru_cache(maxsize=None)(lambda i: horadam_at(spec, i))


def reference_residual(kind, spec, indices, w=None):
    """LHS - RHS of one identity in Fraction arithmetic, W(i) read as w(i)."""
    w, q = w or reference_terms(spec), spec.q
    if kind is IdentityKind.CONVOLUTION:
        n, k = indices
        return w(n) - (w(k + 1) * w(n - k) + q * w(k) * w(n - k - 1))
    if kind is IdentityKind.CASSINI:
        (n,) = indices
        return w(n - 1) * w(n + 1) - w(n) ** 2 + (-q) ** (n - 1)
    if kind is IdentityKind.DOCAGNE:
        n, r = indices
        return w(n + r) * w(n + 1) - w(n + r + 1) * w(n) - (-1) ** n * q ** n * w(r)
    if kind is IdentityKind.JOHNSON:
        k, l, m, n, r = indices
        return w(k) * w(l) - w(m) * w(n) - (-q) ** r * (w(k - r) * w(l - r) - w(m - r) * w(n - r))
    (n,) = indices
    element = phi_power(spec.p, q, n)
    return (element.u - q * w(n - 1), element.v - w(n))


def battery_tuples(nmax):
    """The index tuples of `identity_battery(spec, nmax)`, per kind."""
    return {
        IdentityKind.CONVOLUTION: [(n, k) for n in range(2, nmax + 1) for k in range(n - 1)],
        IdentityKind.CASSINI: [(n,) for n in range(1, nmax + 1)],
        IdentityKind.DOCAGNE: [(n, r) for n in range(1, nmax + 1) for r in range(1, nmax + 1 - n)],
        IdentityKind.JOHNSON: [(k, l, m, k + l - m, r) for r in range(1, 4)
                               for k in range(8) for l in range(8) for m in range(8)],
        IdentityKind.PHI_POWER: [(n,) for n in range(1, nmax + 1)],
    }


def reference_battery(spec, nmax):
    rows, w = [], reference_terms(spec)
    for kind, tuples in battery_tuples(nmax).items():
        parts = []
        for indices in tuples:
            residual = reference_residual(kind, spec, indices, w)
            parts += residual if isinstance(residual, tuple) else (residual,)
        rows.append((kind, len(tuples), max((abs(part) for part in parts), default=Fraction(0))))
    return rows


def assert_same_rows(rows, expected):
    assert [(kind, checks) for kind, checks, _ in rows] == [row[:2] for row in expected]
    for (_, _, worst), (_, _, expected_worst) in zip(rows, expected):
        assert type(worst) is Fraction and worst == expected_worst


GRID_P = (0, 1, 3, Fraction(1, 2), Fraction(5, 3))
GRID_Q = (1, 2, Fraction(3, 4), Fraction(-7, 2), Fraction(9, 4))


def test_battery_matches_the_fraction_reference():
    # Every (p, q) cell once, at an nmax drawn from a fixed list; each nmax is used.
    rng = random.Random(20261018)
    nmaxes = [1, 2, 6, 13, 40] * 5
    rng.shuffle(nmaxes)
    cells = [(p, q) for p in GRID_P for q in GRID_Q if p * p + 4 * q != 0]
    for (p, q), nmax in zip(cells, nmaxes):
        spec = HoradamSpec.canonical(p, q)
        assert_same_rows(identity_battery(spec, nmax), reference_battery(spec, nmax))


def test_check_identity_matches_the_fraction_reference():
    rng = random.Random(20261019)
    for p in GRID_P:
        for q in GRID_Q:
            spec = HoradamSpec.canonical(p, q)
            k = rng.randint(0, 10)
            kk, ll, mm = (rng.randint(-10, 12) for _ in range(3))
            checks = [
                (IdentityKind.CONVOLUTION, (rng.randint(k + 2, k + 14), k)),
                (IdentityKind.CASSINI, (rng.randint(1, 25),)),
                (IdentityKind.DOCAGNE, (rng.randint(1, 12), rng.randint(1, 12))),
                (IdentityKind.JOHNSON, (kk, ll, mm, kk + ll - mm, rng.randint(-3, 6))),
                (IdentityKind.PHI_POWER, (rng.randint(1, 30),)),
            ]
            for kind, indices in checks:
                residual = check_identity(kind, spec, indices)
                assert residual == reference_residual(kind, spec, indices)
                for part in residual if isinstance(residual, tuple) else (residual,):
                    assert type(part) is Fraction
    # (-q)**r has no value at q = 0 and r < 0, even where both brackets vanish
    with pytest.raises(ZeroDivisionError):
        check_identity(IdentityKind.JOHNSON, HoradamSpec.canonical(1, 0), (3, 1, 2, 2, -1))


def test_residuals_of_a_perturbed_walk_match_the_reference(monkeypatch):
    # One term off by 1/7 on each side of 0 (W(5) and W(-4)), so no identity
    # holds and every residual takes the nonzero path.  The sweep stays a
    # function of its arguments, so the table and horadam_at see the same terms.
    spec = HoradamSpec.canonical(Fraction(5, 3), Fraction(9, 4))
    before = {(horadam_at(spec, 3), horadam_at(spec, 4)), (horadam_at(spec, -2), horadam_at(spec, -3))}
    sweep = horadam._sweep

    def perturbed(*args):
        w0 = w1 = None
        for u, s in sweep(*args):
            if (w0, w1) in before:
                u, s = 7 * u + s, 7 * s  # u/s + 1/7
            w0, w1 = w1, Fraction(u, s)
            yield u, s

    monkeypatch.setattr(horadam, "_sweep", perturbed)
    w = reference_terms(spec)
    assert w(5) - (spec.p * w(4) + spec.q * w(3)) == Fraction(1, 7)
    assert w(-4) - (w(-2) - spec.p * w(-3)) / spec.q == Fraction(1, 7)
    rows, expected = identity_battery(spec, 8), reference_battery(spec, 8)
    assert_same_rows(rows, expected)
    assert all(worst != 0 for _, _, worst in expected)
    for kind, tuples in battery_tuples(8).items():
        for indices in tuples[::7]:
            assert check_identity(kind, spec, indices) == reference_residual(kind, spec, indices)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (Fraction(5, 3), Fraction(-7, 2))])
def test_battery_phi_powers_are_the_square_and_multiply_powers(monkeypatch, p, q):
    # the battery's running product hands `_residual` phi**n for n = 1 ... nmax
    seen = []
    residual = horadam._residual

    def recording(kind, spec, indices, s, d, power=None):
        if kind is IdentityKind.PHI_POWER:
            seen.append((indices, power))
        return residual(kind, spec, indices, s, d, power)

    monkeypatch.setattr(horadam, "_residual", recording)
    identity_battery(HoradamSpec.canonical(p, q), 60)
    assert seen == [((n,), phi_power(p, q, n)) for n in range(1, 61)]


# --- ratios ------------------------------------------------------------------


def test_ratio_estimate_examples():
    golden = (1 + math.sqrt(5)) / 2
    assert abs(ratio_estimate(FIB_SPEC, 1, 30) - golden) < 1e-9
    silver_sq = (1 + math.sqrt(2)) ** 2
    assert abs(ratio_estimate(PELL_SPEC, 2, 25) - silver_sq) < 1e-9
    assert ratio_estimate(JACOB_SPEC, 0, 9) == 1.0


def test_ratio_estimate_zero_denominator():
    with pytest.raises(ZeroDenominator):
        ratio_estimate(FIB_SPEC, 1, 0)
