"""Iteration, envelopes, oscillation profiling and period detection."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from ratdyn.dynamics import (
    Plane,
    Side,
    StatusKind,
    bounds_envelope,
    detect_period,
    iterate,
    oscillation_profile,
    reflected_bounds,
    step,
)
from ratdyn.equation import EquationSpec
from ratdyn.errors import DigitLimit, NearSingularity, OrbitTooShort, Singularity, WrongBranch


# --- step ---------------------------------------------------------------------


def test_step_examples():
    assert step(EquationSpec.plus(2, 7), Fraction(3)) == Fraction(7, 5)
    with pytest.raises(Singularity):
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
        except Singularity:
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



def _count_powers(monkeypatch):
    """Count exact powers, one per exact iterate step."""
    count = [0]
    real_pow = Fraction.__pow__

    def counting(*args):
        count[0] += 1
        return real_pow(*args)

    monkeypatch.setattr(Fraction, "__pow__", counting)
    return count


def _digits(x: Fraction) -> int:
    return max(len(str(abs(x.numerator))), len(str(x.denominator)))


def test_exact_iterate_stops_at_the_digit_limit(monkeypatch):
    # Counts steps, not time.  Bit lengths double per step (8653 at step 13,
    # 17305 at step 14), and more than 4300 digits is certain past 14285 bits.
    eq = EquationSpec.plus(1, 2, 2)
    assert iterate(eq, Fraction(3), 13, max_digits=4300).status.ok
    assert iterate(eq, Fraction(3), 16).status.ok  # no limit by default
    powers = _count_powers(monkeypatch)
    with pytest.raises(DigitLimit, match=r"^exact value exceeds 4300 digits$"):
        iterate(eq, Fraction(3), 24, max_digits=4300)
    assert powers[0] == 14


@pytest.mark.parametrize("eq, x0, steps", [
    (EquationSpec.plus(1, 2, 2), Fraction(3), 16),
    (EquationSpec.minus(3, 1, 2), Fraction(4, 3), 16),
    (EquationSpec.plus(2, 5, 3), Fraction(5, 2), 10),
])
def test_exact_iterate_refuses_only_unprintable_iterates(monkeypatch, eq, x0, steps):
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # to count the digits of every iterate
        digits = list(map(_digits, iterate(eq, x0, steps).values))
        assert len(digits) == steps + 1
        for limit in (640, 1000, 4300):
            first = next(k for k, d in enumerate(digits) if d > limit)
            powers = _count_powers(monkeypatch)
            with pytest.raises(DigitLimit, match=f"exceeds {limit} digits"):
                iterate(eq, x0, steps, max_digits=limit)
            # never an iterate that prints; at most one step past the first that does not
            assert digits[powers[0]] > limit and powers[0] in (first, first + 1)
            assert iterate(eq, x0, first - 1, max_digits=limit).status.ok
    finally:
        sys.set_int_max_str_digits(previous)


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
    with pytest.raises(WrongBranch):
        bounds_envelope(EquationSpec.minus(2, 1))
    with pytest.raises(WrongBranch):
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
    with pytest.raises(OrbitTooShort):
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
    with pytest.raises(OrbitTooShort):
        detect_period(orbit, max_period=8)


def test_detect_period_invariant_under_extension():
    eq = EquationSpec.plus(1, 2, 4)
    short = iterate(eq, 0.9, 200, Plane.FLOAT)
    long = iterate(eq, 0.9, 600, Plane.FLOAT)
    d_short = detect_period(short, max_period=8)
    d_long = detect_period(long, max_period=8)
    assert d_short.period == d_long.period == 2
