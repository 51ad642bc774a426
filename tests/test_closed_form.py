"""Closed forms, forbidden sets, fixed/limit values, product theory (nu = 1)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn.closed_form import (
    RootChoice,
    closed_form_series,
    asymptotic_limit,
    conjugate_orbit_check,
    docagne_product,
    excluded_points,
    fixed_solution,
    forbidden_depth,
    forbidden_points,
    johnson_product,
    near_excluded_point,
    product_analysis,
    product_closed_form,
    rational_phi_plus,
    reconstruct_horadam,
    solve_closed_form,
    Regime,
)
from ratdyn.dynamics import Plane, StatusKind, iterate, step
from ratdyn.equation import Branch, EquationSpec
from ratdyn.errors import ForbiddenInitialCondition, SingularInput
from ratdyn.horadam import HoradamSpec, binet_roots, canonical_table, horadam_at

SILVER = 1 + math.sqrt(2)
RATIONALS = (Fraction(5, 3), Fraction(9, 4), Fraction(1, 2))


def iterate_inline(eq, x0, n):
    """Independent direct iteration used as the oracle for the closed form."""
    x = Fraction(x0)
    out = [x]
    for _ in range(n):
        den = x ** eq.nu + eq.sign * eq.p
        assert den != 0
        x = eq.q / den
        out.append(x)
    return out


# --- solve_closed_form --------------------------------------------------------


def test_plus_single_step_example():
    assert solve_closed_form(EquationSpec.plus(2, 1), 2, 1) == Fraction(1, 4)


def test_plus_pell_limit_example():
    x100 = solve_closed_form(EquationSpec.plus(2, 1), 2, 100)
    assert abs(float(x100) - (SILVER - 2)) < 1e-9


def test_minus_equals_negated_plus():
    eqp, eqm = EquationSpec.plus(2, 7), EquationSpec.minus(2, 7)
    for n in range(12):
        assert solve_closed_form(eqm, -3, n) == -solve_closed_form(eqp, 3, n)


def test_closed_form_equals_iteration_exactly():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        x0 = Fraction(rng.randint(-100, 100), rng.randint(1, 10))
        branch = rng.choice([Branch.PLUS, Branch.MINUS])
        eq = EquationSpec(branch, p, q, 1)
        if forbidden_depth(eq, x0, 40) is not None:
            continue
        oracle = iterate_inline(eq, x0, 40)
        for n in range(41):
            assert solve_closed_form(eq, x0, n) == oracle[n]
        checked += 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    branch=st.sampled_from(Branch),
    p=st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=4),
    q=st.fractions(min_value=Fraction(1, 4), max_value=7, max_denominator=4),
    x0=st.fractions(min_value=-20, max_value=20, max_denominator=9),
    depth=st.integers(1, 12),
    forbidden=st.booleans(),
    n=st.integers(0, 30),
)
def test_closed_form_series_matches_exact_iteration(branch, p, q, x0, depth, forbidden, n):
    eq = EquationSpec(branch, p, q, 1)
    if forbidden:
        x0 = forbidden_points(eq, depth)[-1].value
    orbit = iterate(eq, x0, n, Plane.EXACT)
    if orbit.status.ok:
        assert closed_form_series(eq, x0, n) == list(orbit.values)
        assert solve_closed_form(eq, x0, n) == orbit.values[n]
    else:
        assert orbit.status.kind is StatusKind.HIT_SINGULARITY
        with pytest.raises(ForbiddenInitialCondition) as err:
            closed_form_series(eq, x0, n)
        assert err.value.depth == orbit.status.step == forbidden_depth(eq, x0, n)
        assert closed_form_series(eq, x0, err.value.depth - 1) == list(orbit.values)


def test_closed_form_series_rejects_negative_n():
    with pytest.raises(ValueError):
        closed_form_series(EquationSpec.plus(1, 1), 1, -1)


def test_closed_form_requires_nu_one():
    with pytest.raises(ValueError):
        solve_closed_form(EquationSpec.plus(1, 1, 2), 1, 3)


def test_closed_form_raises_on_forbidden_point():
    eq = EquationSpec.plus(1, 1)
    with pytest.raises(ForbiddenInitialCondition) as err:
        solve_closed_form(eq, -2, 10)
    assert err.value.depth == 2


# --- forbidden sets -----------------------------------------------------------


def test_forbidden_examples():
    plus11 = forbidden_points(EquationSpec.plus(1, 1), 3)
    assert [pt.value for pt in plus11] == [-1, -2, Fraction(-3, 2)]
    minus11 = forbidden_points(EquationSpec.minus(1, 1), 1)
    assert [pt.value for pt in minus11] == [1]
    pell = forbidden_points(EquationSpec.plus(2, 1), 2)
    assert [pt.value for pt in pell] == [-2, Fraction(-5, 2)]


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_forbidden_points_certified_by_iteration(branch, p, q):
    eq = EquationSpec(branch, p, q, 1)
    for pt in forbidden_points(eq, 20):
        orbit = iterate(eq, pt.value, pt.m + 5, Plane.EXACT)
        assert orbit.status.kind is StatusKind.HIT_SINGULARITY
        assert orbit.status.step == pt.m


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), 1, Fraction(5, 3), 3, 7])
@pytest.mark.parametrize("q", [Fraction(1, 3), 1, Fraction(9, 4), 3])
def test_forbidden_points_equal_the_table_ratios(branch, p, q):
    # the ratio recurrence against -sign*W(m+1)/W(m) off the canonical table;
    # with rational p or q the W(m) are not integers
    eq = EquationSpec(branch, p, q, 1)
    ws = canonical_table(eq.p, eq.q, 301)
    expected = [-eq.sign * ws[m + 1] / ws[m] for m in range(1, 301)]
    points = forbidden_points(eq, 300)
    assert [pt.m for pt in points] == list(range(1, 301))
    assert ([(pt.value.numerator, pt.value.denominator) for pt in points]
            == [(value.numerator, value.denominator) for value in expected])


def test_forbidden_depth_reporting():
    eq = EquationSpec.plus(1, 1)
    assert forbidden_depth(eq, -2, 40) == 2
    assert forbidden_depth(eq, Fraction(-3, 2), 40) == 3
    assert forbidden_depth(eq, Fraction(1, 3), 40) is None


# --- fixed solutions and limits -------------------------------------------------


def test_fixed_solution_minus_silver():
    initial, constant = fixed_solution(EquationSpec.minus(2, 1), RootChoice.PHI_PLUS)
    assert initial == pytest.approx(SILVER, abs=1e-12)
    # phi_plus is the repelling fixed point of this branch: float round-off is
    # amplified ~|multiplier| per step, so only a short horizon stays at 1e-12
    x = initial
    for _ in range(5):
        x = step(EquationSpec.minus(2, 1), x)
        assert abs(x - constant) < 1e-12
    # the attracting root holds indefinitely
    initial, constant = fixed_solution(EquationSpec.minus(2, 1), RootChoice.PHI_MINUS)
    x = initial
    for _ in range(50):
        x = step(EquationSpec.minus(2, 1), x)
        assert abs(x - constant) < 1e-12


def test_fixed_solution_plus_unit_q():
    initial, constant = fixed_solution(EquationSpec.plus(2, 1), RootChoice.PHI_PLUS)
    assert initial == pytest.approx(1 / SILVER, abs=1e-12)  # q = 1: q/phi == 1/phi
    x = initial
    for _ in range(50):
        x = step(EquationSpec.plus(2, 1), x)
        assert abs(x - constant) < 1e-12


def test_fixed_solution_plus_general_q_is_the_fixed_point():
    # q/phi_plus = 1 here, and 2/(1+1) = 1 is genuinely fixed; an orbit from
    # 1/phi_plus = 1/2 is NOT constant (2/(1+1/2) = 4/3), so the initial
    # condition returned is the fixed point itself.
    initial, constant = fixed_solution(EquationSpec.plus(1, 2), RootChoice.PHI_PLUS)
    assert (initial, constant) == (1.0, 1.0)
    assert step(EquationSpec.plus(1, 2), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert step(EquationSpec.plus(1, 2), 0.5) != pytest.approx(1.0, abs=1e-3)


def test_fixed_solution_both_roots_are_fixed_points_of_the_map():
    for eq in (EquationSpec.plus(3, 5), EquationSpec.minus(3, 5)):
        for which in RootChoice:
            initial, constant = fixed_solution(eq, which)
            assert step(eq, initial) == pytest.approx(constant, rel=1e-12)


def test_asymptotic_limit_examples():
    assert asymptotic_limit(EquationSpec.plus(2, 1)) == pytest.approx(SILVER - 2, abs=1e-12)
    assert asymptotic_limit(EquationSpec.minus(2, 1)) == pytest.approx(2 - SILVER, abs=1e-12)
    assert asymptotic_limit(EquationSpec.plus(1, 2)) == pytest.approx(1.0, abs=1e-14)


def test_limit_convergence_random():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        branch = rng.choice([Branch.PLUS, Branch.MINUS])
        eq = EquationSpec(branch, p, q, 1)
        x0 = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
        phi_plus = rational_phi_plus(eq.p, eq.q)
        if phi_plus is not None and x0 in (-phi_plus, phi_plus):
            continue  # repelling fixed point: orbit stays there, limit differs
        try:
            value = solve_closed_form(eq, x0, 200)
        except ForbiddenInitialCondition:
            continue
        assert abs(float(value) - asymptotic_limit(eq)) < 1e-9
        checked += 1


def test_excluded_points_flagging():
    eq = EquationSpec.plus(2, 1)
    one_over_silver, other = excluded_points(eq)
    assert one_over_silver == pytest.approx(1 / SILVER, abs=1e-12)
    assert near_excluded_point(eq, 1 / SILVER)
    assert not near_excluded_point(eq, 0.7)
    eqm = EquationSpec.minus(2, 1)
    assert near_excluded_point(eqm, SILVER)
    assert not near_excluded_point(eqm, 2.0)


# --- sign conjugacy -------------------------------------------------------------


def test_conjugacy_examples():
    for n in range(11):
        assert conjugate_orbit_check(2, 7, 3, n) == 0
    for n in range(6):
        assert conjugate_orbit_check(1, 1, 1, n) == 0
    for n in range(6):
        assert conjugate_orbit_check(3, 2, 0, n) == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 5),
    q=st.integers(1, 5),
    num=st.integers(-30, 30),
    den=st.integers(1, 9),
    n=st.integers(0, 25),
)
def test_conjugacy_randomized(p, q, num, den, n):
    x0 = Fraction(num, den)
    eq = EquationSpec.plus(p, q)
    if forbidden_depth(eq, x0, n) is not None:
        return
    assert conjugate_orbit_check(p, q, x0, n) == 0


# --- products --------------------------------------------------------------------


def test_product_regime_is_sign_of_p_minus_qm1():
    assert product_analysis(EquationSpec.plus(2, 1), 2, 5).regime is Regime.P_GREATER_QM1
    assert product_analysis(EquationSpec.plus(1, 2), 9, 5).regime is Regime.P_EQUAL_QM1
    assert product_analysis(EquationSpec.plus(Fraction(1, 2), 2), 9, 5).regime is Regime.P_LESS_QM1


def test_product_jacobsthal_limit():
    result = product_analysis(EquationSpec.plus(1, 2), 9, 60)
    assert result.predicted_limit == Fraction(27, 11)
    assert not result.alternating
    assert abs(float(result.partials[60]) - 27 / 11) < 1e-9
    # exact agreement between running product and the single rational expression
    for n, partial in enumerate(result.partials):
        assert partial == product_closed_form(1, 2, 9, n)


def test_product_minus_branch_parity():
    result = product_analysis(EquationSpec.minus(1, 2), -9, 61)
    assert result.alternating
    assert result.predicted_limit == Fraction(-27, 11)
    # even-index partials approach the predicted value, odd-index its negative
    assert abs(float(result.partials[60]) + 27 / 11) < 1e-9
    assert abs(float(result.partials[61]) - 27 / 11) < 1e-9
    # early partials frozen from direct fraction arithmetic
    assert result.partials[0] == -9
    assert result.partials[1] == Fraction(9, 5)
    assert result.partials[2] == -3


def test_product_decay_to_zero():
    result = product_analysis(EquationSpec.plus(2, 1), 2, 40)
    assert result.predicted_limit == 0
    assert abs(float(result.partials[40])) < 1e-9
    tail = [abs(x) for x in result.partials[20:]]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_product_divergence_certificate():
    result = product_analysis(EquationSpec.plus(Fraction(1, 2), 2), 9, 40)
    assert result.predicted_limit is None
    running_max = 0.0
    exceeded = False
    for partial in result.partials:
        running_max = max(running_max, abs(float(partial)))
        if running_max > 1e3:
            exceeded = True
            break
    assert exceeded


def test_product_cauchy_convergence_in_stable_regimes():
    for eq, x0 in [
        (EquationSpec.plus(3, 2), Fraction(5, 2)),      # p > q-1
        (EquationSpec.plus(2, 3), 7),                   # p = q-1
        (EquationSpec.minus(2, 3), -7),                 # p = q-1, alternating
    ]:
        result = product_analysis(eq, x0, 200)
        tail = [float(v) for v in result.partials[-20:]]
        stride = 2 if result.alternating else 1
        for i in range(len(tail) - stride):
            assert abs(tail[i + stride] - tail[i]) < 1e-9


def test_product_rejects_repelling_start():
    with pytest.raises(SingularInput, match="is the repelling fixed point"):
        product_analysis(EquationSpec.plus(1, 2), -2, 10)  # phi_plus = 2 exactly
    with pytest.raises(SingularInput, match="is the repelling fixed point"):
        product_analysis(EquationSpec.minus(1, 2), 2, 10)


def test_product_forbidden_start():
    with pytest.raises(ForbiddenInitialCondition) as err:
        product_analysis(EquationSpec.plus(1, 1), -2, 10)
    assert err.value.depth == 2
    eq = EquationSpec.minus(1, 1)
    start = forbidden_points(eq, 5)[-1]
    assert start == (5, Fraction(8, 5))
    with pytest.raises(ForbiddenInitialCondition) as err:
        product_analysis(eq, start.value, 10)
    assert err.value.depth == 5


# --- recurrence reconstruction and named products ---------------------------------


def test_reconstruct_fibonacci_example():
    eq = EquationSpec.plus(1, 1)
    # x0 = W1/W2 = 1; the 13 iterates multiply to 1/610
    x = Fraction(1)
    prod = Fraction(1)
    for _ in range(13):
        x = step(eq, x)
        prod *= x
    assert prod == Fraction(1, 610)
    assert reconstruct_horadam(1, 1, 1, 15) == 610


def test_reconstruct_examples():
    assert reconstruct_horadam(2, 1, 0, 3) == 5     # Pell
    assert reconstruct_horadam(1, 2, 2, 5) == 11    # Jacobsthal


def test_reconstruct_matches_recurrence_broadly():
    rng = random.Random(5)
    for _ in range(40):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(0, 6)
        n = rng.randint(k + 2, 25)
        spec = HoradamSpec.canonical(p, q)
        assert reconstruct_horadam(p, q, k, n) == horadam_at(spec, n)
    for p, q in product(RATIONALS, repeat=2):
        for k, n in ((0, 2), (3, 12), (8, 25)):
            assert reconstruct_horadam(p, q, k, n) == horadam_at(HoradamSpec.canonical(p, q), n)


def test_docagne_product_examples():
    assert docagne_product(1, 1, 3, 2) == 5                 # F5/F2
    assert docagne_product(2, 1, 2, 1) == 5                 # P3/P1
    assert docagne_product(1, 2, 1, 3) == Fraction(5, 3)    # J4/J3


def test_docagne_product_matches_ratios():
    rng = random.Random(6)
    for _ in range(40):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        n = rng.randint(1, 12)
        r = rng.randint(1, 25 - n)
        spec = HoradamSpec.canonical(p, q)
        assert docagne_product(p, q, n, r) == horadam_at(spec, n + r) / horadam_at(spec, r)
    for p, q in product(RATIONALS, repeat=2):
        spec = HoradamSpec.canonical(p, q)
        for n, r in ((1, 1), (4, 9), (12, 13)):
            assert docagne_product(p, q, n, r) == horadam_at(spec, n + r) / horadam_at(spec, r)


def test_docagne_large_shift_limit():
    # the ratio W(n+r)/W(r) tends to phi_plus**n as the shift r grows
    for p, q in [(1, 1), (2, 1), (1, 2)]:
        spec = HoradamSpec.canonical(p, q)
        phi = binet_roots(p, q).phi_plus
        for n in (1, 2, 3):
            ratio = float(horadam_at(spec, n + 40) / horadam_at(spec, 40))
            assert abs(ratio - phi ** n) < 1e-6 * phi ** n


def test_johnson_product_examples():
    assert johnson_product(1, 1, 2, 5) == Fraction(1, 2)    # F2/F3
    assert johnson_product(2, 1, 1, 4) == Fraction(1, 5)    # P1/P3
    assert johnson_product(1, 2, 3, 5) == 3                 # J3/J2


def test_johnson_product_matches_ratios():
    rng = random.Random(8)
    for _ in range(40):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, 10)
        n = rng.randint(r + 1, r + 15)
        spec = HoradamSpec.canonical(p, q)
        assert johnson_product(p, q, r, n) == horadam_at(spec, r) / horadam_at(spec, n - r)
    for p, q in product(RATIONALS, repeat=2):
        spec = HoradamSpec.canonical(p, q)
        for r, n in ((1, 2), (4, 11), (10, 25)):
            assert johnson_product(p, q, r, n) == horadam_at(spec, r) / horadam_at(spec, n - r)


def test_johnson_product_agrees_with_live_iterates_below_the_singular_step():
    # The start x0 = -W(r+1)/W(r) dies at step r; up to step r-1 the closed
    # product expression must match the literal running product.
    p, q, r = 2, 3, 6
    eq = EquationSpec.plus(p, q)
    spec = HoradamSpec.canonical(p, q)
    x0 = -horadam_at(spec, r + 1) / horadam_at(spec, r)
    x, prod = x0, Fraction(1)
    for m in range(1, r):
        x = step(eq, x)
        prod *= x
        assert prod == product_closed_form(p, q, x0, m) / x0


def test_johnson_product_index_validation():
    with pytest.raises(ValueError):
        johnson_product(1, 1, 3, 3)
    with pytest.raises(ValueError):
        johnson_product(1, 1, 0, 4)
