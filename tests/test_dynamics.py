"""Iteration, envelopes, oscillation profiling and period detection."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ratdyn.dynamics import (
    _CYCLE_CHECK_STEPS,
    NEAR_SINGULAR_FACTOR,
    Plane,
    Side,
    StatusKind,
    _float_values,
    _record,
    bounds_envelope,
    detect_period,
    iterate,
    oscillation_profile,
    reflected_bounds,
    step,
)
from ratdyn.equation import EquationSpec
from ratdyn.errors import NearSingularity, ZeroDenominator


# --- step ---------------------------------------------------------------------


def test_step_examples():
    assert step(EquationSpec.plus(2, 7), Fraction(3)) == Fraction(7, 5)
    with pytest.raises(ZeroDenominator):
        step(EquationSpec.minus(1, 1), Fraction(1))
    assert step(EquationSpec.plus(1, 2, 3), Fraction(2)) == Fraction(2, 9)


def test_step_float_guard():
    eq = EquationSpec.minus(1, 1)
    with pytest.raises(NearSingularity):
        step(eq, 1.0 + 1e-14)
    assert step(eq, 1.0 + 1e-9) == pytest.approx(1e9, rel=1e-5)


def test_step_even_exponent_accepts_negative_values():
    assert step(EquationSpec.plus(1, 2, 2), Fraction(-3)) == Fraction(2, 10)


# --- iterate --------------------------------------------------------------------


def test_iterate_converges_to_positive_equilibrium():
    orbit = iterate(EquationSpec.plus(2, 7), Fraction(3), 50)
    assert orbit.status.ok
    assert abs(float(orbit.values[-1]) - (2 * math.sqrt(2) - 1)) < 1e-12


def test_iterate_hits_singularity_at_forbidden_depth():
    orbit = iterate(EquationSpec.plus(1, 1), Fraction(-2), 10, Plane.EXACT)
    assert orbit.status.kind is StatusKind.HIT_SINGULARITY
    assert orbit.status.step == 2
    assert list(orbit.values) == [-2, -1]


def test_exact_plane_refuses_a_float_seed():
    eq = EquationSpec.plus(1, 2)
    with pytest.raises(TypeError, match="got float"):
        iterate(eq, 0.1, 2)
    with pytest.raises(TypeError, match="got float"):
        iterate(eq, 0.5, 2, Plane.EXACT)
    assert iterate(eq, 0.5, 2, Plane.FLOAT).values == (0.5, 2 / 1.5, 2 / (1 + 2 / 1.5))
    assert iterate(eq, "1/2", 2).values == (Fraction(1, 2), Fraction(4, 3), Fraction(6, 7))


def test_iterate_minus_branch_limit():
    orbit = iterate(EquationSpec.minus(2, 1), Fraction(3), 100)
    assert abs(float(orbit.values[-1]) - (1 - math.sqrt(2))) < 1e-9


def test_orbit_consecutive_pairs_satisfy_the_map():
    eq = EquationSpec.plus(2, 3, 2)
    exact = iterate(eq, Fraction(1, 3), 12, Plane.EXACT)
    for a, b in zip(exact.values, exact.values[1:]):
        assert b == eq.q / (a ** eq.nu + eq.sign * eq.p)
    floating = iterate(eq, 1 / 3, 40, Plane.FLOAT)
    for a, b in zip(floating.values, floating.values[1:]):
        expected = float(eq.q) / (a ** eq.nu + eq.sign * float(eq.p))
        assert abs(b - expected) <= 1e-12 * max(1.0, abs(expected))


def test_exact_and_float_planes_agree():
    rng = random.Random(3)
    for _ in range(20):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.randint(1, 6)
        # exact iterates for nu >= 2 grow geometrically in size, so scale the
        # horizon accordingly; nu = 1 stays linear and runs the full 60 steps
        steps = {1: 60, 2: 14, 3: 9, 4: 7, 5: 6, 6: 5}[nu]
        x0 = Fraction(rng.randint(1, 80), 20)
        eq = EquationSpec.plus(p, q, nu)
        exact = iterate(eq, x0, steps, Plane.EXACT)
        floating = iterate(eq, float(x0), steps, Plane.FLOAT)
        assert exact.status.ok and floating.status.ok
        for a, b in zip(exact.values, floating.values):
            fa = float(a)
            assert abs(fa - b) <= 1e-9 * max(1.0, abs(fa))


OVERFLOW = "overflow"


def _stepped_orbit(eq, x0, steps, plane):
    """Reference orbit: one `step` call per iterate.
    Returns (values, status kind, stop step); an OverflowError propagates."""
    x = Fraction(x0) if plane is Plane.EXACT else float(x0)
    values = [x]
    for k in range(1, steps + 1):
        try:
            x = step(eq, x)
        except ZeroDenominator:
            return values, StatusKind.HIT_SINGULARITY, k
        except NearSingularity:
            return values, StatusKind.NEAR_SINGULAR, k
        values.append(x)
    return values, StatusKind.COMPLETED, None


def _assert_same_orbit(eq, x0, steps, plane, key):
    """`iterate` equals the reference under `key`, stop step and status
    included; returns the status kind, or OVERFLOW with the same error text."""
    try:
        values, kind, stop = _stepped_orbit(eq, x0, steps, plane)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as raised:
            iterate(eq, x0, steps, plane)
        assert str(raised.value) == str(exc)
        return OVERFLOW
    orbit = iterate(eq, x0, steps, plane)
    assert list(map(key, orbit.values)) == list(map(key, values)), (eq, x0)
    assert (orbit.status.kind, orbit.status.step) == (kind, stop), (eq, x0)
    return kind


def test_float_iterate_matches_repeated_step():
    seen = set()
    for branch in (EquationSpec.plus, EquationSpec.minus):
        for nu in range(1, 9):
            for p in (Fraction(1, 10), 1, 2, 3, Fraction(7, 3)):
                for q in (Fraction(1, 10), 1, 2, 3, Fraction(7, 3)):
                    eq = branch(p, q, nu)
                    shift = eq.sign * float(eq.p)
                    starts = [0.5, 1.5, -1 / 3, 3.0, 1e300]  # 1e300**nu overflows for nu >= 2
                    if nu % 2 or shift < 0:
                        root = abs(shift) ** (1 / nu)  # x**nu = -shift, up to rounding
                        starts += [root if shift < 0 else -root]
                        # its preimage, when real: stops one step later
                        pre = float(eq.q) / starts[-1] - shift
                        if nu % 2 or pre > 0:
                            starts += [math.copysign(abs(pre) ** (1 / nu), pre)]
                    for x0 in starts:
                        seen.add(_assert_same_orbit(eq, x0, 40, Plane.FLOAT, float.hex))
    assert seen == {StatusKind.COMPLETED, StatusKind.NEAR_SINGULAR, OVERFLOW}


def test_exact_iterate_matches_repeated_step():
    seen = set()
    for branch in (EquationSpec.plus, EquationSpec.minus):
        for nu, steps in ((1, 30), (2, 8)):
            for p, q in ((1, 1), (2, 7), (Fraction(7, 3), Fraction(1, 10))):
                eq = branch(p, q, nu)
                for x0 in (Fraction(1, 2), Fraction(-3, 2), Fraction(-2), Fraction(1), 3):
                    seen.add(_assert_same_orbit(eq, x0, steps, Plane.EXACT, repr))
    assert seen == {StatusKind.COMPLETED, StatusKind.HIT_SINGULARITY}



def _orbit_to_the_end(eq, x0, steps, plane):
    """Reference orbit that steps to the end, with no cycle stop: the map and
    stop tests of `step`, with p, q and the guard converted once.
    Returns (values, status kind, stop step)."""
    if plane is Plane.EXACT:
        x, shift, q, guard = Fraction(x0), eq.sign * eq.p, eq.q, 0
        kind = StatusKind.HIT_SINGULARITY
    else:
        x, shift, q = float(x0), eq.sign * float(eq.p), float(eq.q)
        guard, kind = NEAR_SINGULAR_FACTOR * max(float(eq.p), 1.0), StatusKind.NEAR_SINGULAR
    values = [x]
    for k in range(1, steps + 1):
        den = x ** eq.nu + shift
        if den == 0 or abs(den) < guard:
            return values, kind, k
        x = q / den
        values.append(x)
    return values, StatusKind.COMPLETED, None


def _assert_stepped(eq, x0, steps, plane):
    """`iterate` equals the reference orbit: values by repr (so -0.0 is not
    0.0) and status.  Returns the orbit."""
    values, kind, stop = _orbit_to_the_end(eq, x0, steps, plane)
    orbit = iterate(eq, x0, steps, plane)
    assert list(map(repr, orbit.values)) == list(map(repr, values)), (eq, x0)
    assert (orbit.status.kind, orbit.status.step) == (kind, stop), (eq, x0)
    return orbit


def _cycle_start(values):
    """The first k >= 2 with values[k] == values[k-2], or None."""
    return next((k for k in range(2, len(values)) if values[k] == values[k - 2]), None)


def _assert_shared_tail(values, k):
    """From the first cycle test at or after the cycle start k, the tail
    repeats two objects."""
    tested = -(-k // _CYCLE_CHECK_STEPS) * _CYCLE_CHECK_STEPS
    assert tested + 1 < len(values)
    assert all(values[j] is values[j - 2] for j in range(tested + 1, len(values)))


BENCH_X0 = (1.001, 0.5, 2.0, 1.5)  # the orbits workload's float seeds, negated on minus
TANGENCY = [EquationSpec.plus(1, 2, 2), EquationSpec.plus(2, 3, 3), EquationSpec.minus(2, 3, 3)]


def test_iterate_equals_the_stepped_orbit_on_the_bench_float_grid():
    cells = periodic = 0
    for branch, sign, nus in ((EquationSpec.plus, 1, (2, 3, 4, 5, 6)),
                              (EquationSpec.minus, -1, (3, 5, 7))):
        for nu in nus:
            for p in (1, 2, 3):
                for q in (1, 2, 3, 5):
                    eq = branch(p, q, nu)
                    for x0 in BENCH_X0:
                        orbit = _assert_stepped(eq, sign * x0, 3000, Plane.FLOAT)
                        assert orbit.status.ok
                        k = _cycle_start(orbit.values)
                        cells += 1
                        if k is not None:
                            _assert_shared_tail(orbit.values, k)
                            periodic += 1
                        else:
                            assert eq in TANGENCY
    assert (cells, periodic) == (384, 372)


def test_iterate_equals_the_stepped_orbit_at_every_length_around_a_cycle_test():
    # plus (2, 3, 4) from 3/2 repeats exactly from a step below _CYCLE_CHECK_STEPS
    eq = EquationSpec.plus(2, 3, 4)
    start = _cycle_start(_orbit_to_the_end(eq, 1.5, 3000, Plane.FLOAT)[0])
    assert 2 < start < _CYCLE_CHECK_STEPS
    for steps in (0, 1, 2, 3, start - 1, start, start + 1, _CYCLE_CHECK_STEPS - 1,
                  _CYCLE_CHECK_STEPS, _CYCLE_CHECK_STEPS + 1, 2 * _CYCLE_CHECK_STEPS + 1):
        assert len(_assert_stepped(eq, 1.5, steps, Plane.FLOAT).values) == steps + 1


@pytest.mark.parametrize("eq", TANGENCY)
def test_iterate_equals_the_stepped_orbit_at_the_flip_tangency(eq):
    # convergence is algebraically slow here: no exact cycle in 20000 steps
    for x0 in BENCH_X0:
        orbit = _assert_stepped(eq, eq.sign * x0, 20000, Plane.FLOAT)
        assert orbit.status.ok and _cycle_start(orbit.values) is None


def test_iterate_keeps_the_sign_of_zero_in_a_cycle():
    # x(1) = 10**-30 / -10**300 underflows to -0.0; then x(2) == x(0) as values
    # though not as bits, and the tail must repeat x(1), x(2), not x(0)
    eq = EquationSpec.minus(10 ** 300, Fraction(1, 10 ** 30), 3)
    orbit = _assert_stepped(eq, 0.0, 3000, Plane.FLOAT)
    assert list(map(repr, orbit.values)) == ["0.0"] + ["-0.0"] * 3000
    _assert_shared_tail(orbit.values, 2)


@pytest.mark.parametrize("eq, x0, steps", [
    (EquationSpec.plus(1, 2, 3), 2.0, 5000),  # a cycle from step 30, found at step 1024
    (EquationSpec.plus(2, 3, 4), 1.5, 700),  # from step 48, found at the last step
    (EquationSpec.plus(1, 2), 1.0, 3000),  # a fixed point
    (EquationSpec.minus(10 ** 300, Fraction(1, 10 ** 30), 3), 0.0, 3000),  # -0.0 repeated
    (EquationSpec.plus(1, 2, 2), 1.001, 5000),  # the flip tangency: no tail
    (EquationSpec.plus(1, 1), -2.0, 10),  # singular at step 2
])
def test_record_returns_where_its_values_repeat_two_objects(eq, x0, steps):
    values, status, tail = _record([x0], _float_values(eq, x0), steps, StatusKind.NEAR_SINGULAR)
    orbit = iterate(eq, x0, steps, Plane.FLOAT)
    assert list(map(repr, values)) == list(map(repr, orbit.values)) and status == orbit.status
    if _cycle_start(values) is None:
        assert tail == len(values)
    else:
        assert 1 <= tail < len(values) - 1
        assert all(values[j] is values[j - 2] for j in range(tail + 2, len(values)))
        assert values[tail + 1] is not values[tail - 1]  # stepped, not repeated


@pytest.mark.parametrize("eq, x0, plane", [
    (EquationSpec.plus(1, 2), Fraction(1), Plane.EXACT),  # 2/(1 + 1) = 1
    (EquationSpec.plus(1, 2), 1.0, Plane.FLOAT),
    (EquationSpec.plus(2, 8), Fraction(2), Plane.EXACT),  # 8/(2 + 2) = 2
    (EquationSpec.plus(1, 2, 2), Fraction(1), Plane.EXACT),  # the tangency's own fixed point
    (EquationSpec.minus(2, 3, 3), Fraction(-1), Plane.EXACT),  # 3/((-1)**3 - 2) = -1
])
def test_iterate_equals_the_stepped_orbit_at_a_fixed_point(eq, x0, plane):
    orbit = _assert_stepped(eq, x0, 3000, plane)
    assert orbit.status.ok and len(set(orbit.values)) == 1
    _assert_shared_tail(orbit.values, 2)


@pytest.mark.parametrize("plane, kind", [(Plane.FLOAT, StatusKind.NEAR_SINGULAR),
                                         (Plane.EXACT, StatusKind.HIT_SINGULARITY)])
def test_iterate_equals_the_stepped_orbit_up_to_a_singularity(plane, kind):
    # 1/(2 - 1) = 1, then 1 - 1 = 0 in the denominator
    x0 = 2.0 if plane is Plane.FLOAT else Fraction(2)
    orbit = _assert_stepped(EquationSpec.minus(1, 1), x0, 10, plane)
    assert orbit.status == (kind, 2)


# --- envelopes -------------------------------------------------------------------


def test_envelope_examples():
    env = bounds_envelope(EquationSpec.plus(2, 1))
    assert (env.lo, env.hi) == (Fraction(2, 5), Fraction(1, 2))
    env = bounds_envelope(EquationSpec.plus(1, 1, 5))
    assert (env.lo, env.hi) == (Fraction(1, 2), 1)
    env = bounds_envelope(EquationSpec.plus(1, 2))
    assert (env.lo, env.hi) == (Fraction(2, 3), 2)
    assert 0 < env.lo <= env.hi


def test_envelope_wrong_branch():
    with pytest.raises(ValueError, match="stated for the plus branch"):
        bounds_envelope(EquationSpec.minus(2, 1))
    with pytest.raises(ValueError, match="applies to the minus branch"):
        reflected_bounds(EquationSpec.plus(2, 1))


def test_envelope_traps_positive_orbits():
    # starts inside (0, q/p] are trapped from step 1; the two-sided bound
    # needs x <= q/p first, which any positive start reaches at step 1
    rng = random.Random(17)
    for _ in range(100):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.randint(1, 6)
        eq = EquationSpec.plus(p, q, nu)
        env = bounds_envelope(eq)
        x0 = env.hi * Fraction(rng.randint(1, 100), 100)
        orbit = iterate(eq, float(x0), 60, Plane.FLOAT)
        assert orbit.status.ok
        for v in orbit.values[1:]:
            assert float(env.lo) - 1e-12 <= v <= float(env.hi) + 1e-12


def test_envelope_traps_large_starts_from_step_two():
    eq = EquationSpec.plus(3, 2, 3)
    env = bounds_envelope(eq)
    orbit = iterate(eq, Fraction(5), 9, Plane.EXACT)
    assert orbit.values[1] <= env.hi  # upper bound holds immediately
    for v in orbit.values[2:]:
        assert env.lo <= v <= env.hi


def test_reflected_envelope_traps_negative_odd_orbits():
    eq = EquationSpec.minus(2, 1, 3)
    lo, hi = reflected_bounds(eq)
    orbit = iterate(eq, float(lo) * 0.8, 60, Plane.FLOAT)
    assert orbit.status.ok
    for v in orbit.values[1:]:
        assert float(lo) - 1e-12 <= v <= float(hi) + 1e-12


# --- oscillation -------------------------------------------------------------------


def test_oscillation_profile_alternates_when_q_is_p_plus_one():
    orbit = iterate(EquationSpec.plus(1, 2), Fraction(9), 30, Plane.EXACT)
    profile = oscillation_profile(orbit, 1)
    assert profile.sides[0] is Side.ABOVE        # x0 = 9
    assert profile.sides[1] is Side.BELOW        # x1 = 1/5
    assert profile.alternates_from(1)
    assert all(length == 1 for _, length in profile.semicycles[1:])


def test_oscillation_profile_constant_orbit_is_all_at():
    orbit = iterate(EquationSpec.plus(1, 2, 3), Fraction(1), 10, Plane.EXACT)
    profile = oscillation_profile(orbit, 1)
    assert all(s is Side.AT for s in profile.sides)
    assert profile.semicycles == ((Side.AT, 11),)


def test_oscillation_profile_float_case():
    orbit = iterate(EquationSpec.plus(2, 3, 4), 1.2, 40, Plane.FLOAT)
    profile = oscillation_profile(orbit, 1.0)
    assert profile.alternates_from(1)


def test_oscillation_alternation_randomized():
    # exact plane: in floats a strongly stable orbit collapses onto the center
    # in finitely many steps, after which sides read AT instead of alternating
    rng = random.Random(29)
    for _ in range(50):
        p = Fraction(rng.randint(1, 40), 10)
        q = p + 1
        nu = rng.randint(1, 6)
        steps = {1: 40, 2: 13, 3: 9, 4: 7, 5: 6, 6: 5}[nu]
        x0 = Fraction(rng.randint(1, 60), 20)
        if x0 == 1:
            x0 += Fraction(1, 7)
        orbit = iterate(EquationSpec.plus(p, q, nu), x0, steps, Plane.EXACT)
        profile = oscillation_profile(orbit, 1)
        assert profile.alternates_from(1)
        assert all(length == 1 for _, length in profile.semicycles[2:])


def test_oscillation_profile_needs_three_steps():
    orbit = iterate(EquationSpec.plus(1, 2), Fraction(9), 2, Plane.EXACT)
    with pytest.raises(ValueError, match="need at least 3 completed steps"):
        oscillation_profile(orbit, 1)


def test_minus_branch_odd_exponent_oscillates_about_minus_one():
    # negative orbits of the minus branch mirror the plus-branch oscillation
    eq = EquationSpec.minus(1, 2, 5)
    orbit = iterate(eq, -1.3, 40, Plane.FLOAT)
    profile = oscillation_profile(orbit, -1.0)
    assert profile.alternates_from(1)


# --- period detection -----------------------------------------------------------


def test_detect_period_constant_orbit():
    orbit = iterate(EquationSpec.plus(1, 2, 3), Fraction(1), 140, Plane.EXACT)
    detection = detect_period(orbit, max_period=8)
    assert detection is not None
    assert detection.period == 1
    assert detection.phase == 0


def test_detect_period_convergent_orbit():
    orbit = iterate(EquationSpec.plus(2, 1), 2.0, 150, Plane.FLOAT)
    detection = detect_period(orbit, max_period=8)
    assert detection.period == 1


def test_detect_period_two_cycle():
    orbit = iterate(EquationSpec.plus(1, 2, 3), 0.5, 200, Plane.FLOAT)
    detection = detect_period(orbit, max_period=8)
    assert detection.period == 2
    # the cycle the orbit settles on matches the algebraic two-cycle solver
    from ratdyn.analysis import solve_period_two

    cycle = solve_period_two(EquationSpec.plus(1, 2, 3))
    tail = sorted(orbit.values[-2:])
    assert tail[0] == pytest.approx(cycle.psi, abs=1e-6)
    assert tail[1] == pytest.approx(cycle.phi, abs=1e-6)


def test_detect_period_none_when_not_periodic():
    # slow convergence: differences still exceed the tolerance after burn-in
    orbit = iterate(EquationSpec.plus(1, 2, 2), 0.7, 130, Plane.FLOAT)
    assert detect_period(orbit, max_period=2, tol=1e-13, burn_in=100) is None


def test_detect_period_requires_long_orbit():
    orbit = iterate(EquationSpec.plus(1, 2), 9.0, 50, Plane.FLOAT)
    with pytest.raises(ValueError, match=r"need at least \d+ values"):
        detect_period(orbit, max_period=8)


def test_detect_period_invariant_under_extension():
    eq = EquationSpec.plus(1, 2, 4)
    short = iterate(eq, 0.9, 200, Plane.FLOAT)
    long = iterate(eq, 0.9, 600, Plane.FLOAT)
    d_short = detect_period(short, max_period=8)
    d_long = detect_period(long, max_period=8)
    assert d_short.period == d_long.period == 2
