"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The phase-boundary criterion covers its whole grid in three
regimes: below the flip (nu < p+1) the equilibrium is locally
asymptotically stable and there is no cycle; at the flip (nu == p+1) the
multiplier is exactly -1 and there is no prime two-cycle, because the
second iterate meets the diagonal only at the equilibrium, with a triple
contact; past it (nu > p+1) a cycle exists.  In every cell, whether a
cycle was found must agree with an exact integer criterion.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from ratdyn.analysis import (
    Stability,
    classify_stability,
    equilibria,
    solve_period_two,
)
from ratdyn.closed_form import (
    forbidden_depth,
    forbidden_points,
    product_analysis,
    product_closed_form,
    reconstruct_horadam,
    solve_closed_form,
)
from ratdyn.dynamics import Plane, StatusKind, bounds_envelope, detect_period, iterate, step
from ratdyn.equation import Branch, EquationSpec
from ratdyn.horadam import HoradamSpec, IdentityKind, check_identity
from test_analysis import _rounds_a_root

SILVER = 1 + math.sqrt(2)


def report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {state}{suffix}")


def test_closed_form_vs_iteration():
    rng = random.Random(20260810)
    started = time.perf_counter()
    checked = 0
    while checked < 100:
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        den = rng.randint(1, 10)
        x0 = Fraction(rng.randint(-10 * den, 10 * den), den)
        branch = rng.choice([Branch.PLUS, Branch.MINUS])
        eq = EquationSpec(branch, p, q, 1)
        if forbidden_depth(eq, x0, 40) is not None:
            continue
        orbit = iterate(eq, x0, 40, Plane.EXACT)
        assert orbit.status.ok
        for n in range(41):
            assert solve_closed_form(eq, x0, n) == orbit.values[n]
        checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    report("closed-form-vs-iteration", ok, f"100 specs x 41 indices, {elapsed:.2f}s")
    assert ok


def test_pell_convergence():
    x100 = float(solve_closed_form(EquationSpec.plus(2, 1), 2, 100))
    y100 = float(solve_closed_form(EquationSpec.minus(2, 1), 3, 100))
    ok = (
        abs(x100 - (SILVER - 2)) < 1e-9
        and abs(y100 - (2 - SILVER)) < 1e-9
        and round(SILVER - 2, 4) == 0.4142
    )
    report("pell-convergence", ok, f"|x100-(sigma-2)|={abs(x100 - (SILVER - 2)):.2e}")
    assert ok


def test_jacobsthal_product_limit():
    plus = product_analysis(EquationSpec.plus(1, 2), 9, 60)
    target = Fraction(27, 11)
    ok = plus.predicted_limit == target
    ok &= abs(float(plus.partials[60]) - 27 / 11) < 1e-9
    for n, partial in enumerate(plus.partials):
        ok &= partial == product_closed_form(1, 2, 9, n)

    minus = product_analysis(EquationSpec.minus(1, 2), -9, 61)
    ok &= minus.alternating
    ok &= abs(float(minus.partials[60]) + 27 / 11) < 1e-9   # even index -> -27/11
    ok &= abs(float(minus.partials[61]) - 27 / 11) < 1e-9   # odd index -> +27/11
    report("jacobsthal-product-limit", ok, "plus limit 27/11, minus parity -/+27/11")
    assert ok


def test_recurrence_reconstruction():
    eq = EquationSpec.plus(1, 1)
    x, prod = Fraction(1), Fraction(1)  # x0 = q*W1/W2 = 1
    for _ in range(13):
        x = eq.q / (eq.p + x)
        prod *= x
    ok = prod == Fraction(1, 610) and reconstruct_horadam(1, 1, 1, 15) == 610
    report("recurrence-reconstruction", ok, "product 1/610, W(15)=610, both exact")
    assert ok


def test_divergence_certificate():
    result = product_analysis(EquationSpec.plus(Fraction(1, 2), 2), 9, 40)
    running_max, hit_at = 0.0, None
    for n, partial in enumerate(result.partials):
        running_max = max(running_max, abs(float(partial)))
        if running_max > 1e3:
            hit_at = n
            break
    ok = result.predicted_limit is None and hit_at is not None and hit_at <= 40
    report("divergence-certificate", ok, f"running max passed 1e3 at n={hit_at}")
    assert ok


def test_identity_suite():
    rng = random.Random(20260811)
    started = time.perf_counter()
    failures = 0

    def zero(residual):
        parts = residual if isinstance(residual, tuple) else (residual,)
        return all(part == 0 for part in parts)

    for _ in range(200):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        spec = HoradamSpec.canonical(p, q)
        k = rng.randint(0, 12)
        n = rng.randint(k + 2, k + 18)
        failures += not zero(check_identity(IdentityKind.CONVOLUTION, spec, (n, k)))
        failures += not zero(check_identity(IdentityKind.CASSINI, spec, (rng.randint(1, 30),)))
        failures += not zero(
            check_identity(IdentityKind.DOCAGNE, spec, (rng.randint(1, 14), rng.randint(1, 14)))
        )
        kk, ll, mm = rng.randint(-5, 12), rng.randint(-5, 12), rng.randint(-5, 12)
        failures += not zero(
            check_identity(IdentityKind.JOHNSON, spec, (kk, ll, mm, kk + ll - mm, rng.randint(1, 6)))
        )
        failures += not zero(check_identity(IdentityKind.PHI_POWER, spec, (rng.randint(1, 40),)))
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    report("identity-suite", ok, f"1000 checks, {failures} nonzero residuals, {elapsed:.2f}s")
    assert ok


def test_forbidden_set_certification():
    bad = []
    for p in (1, 2):
        for q in (1, 2):
            for branch in (Branch.PLUS, Branch.MINUS):
                eq = EquationSpec(branch, p, q, 1)
                for point in forbidden_points(eq, 20):
                    orbit = iterate(eq, point.value, point.m + 3, Plane.EXACT)
                    if orbit.status.kind is not StatusKind.HIT_SINGULARITY or orbit.status.step != point.m:
                        bad.append((branch, p, q, point.m))
    ok = not bad
    report("forbidden-set-certification", ok, "8 specs x 20 depths, singular exactly at depth")
    assert ok


def plus_cycle_exists(p: int, q: int, nu: int) -> bool:
    """Negative-Schwarzian criterion: the plus branch has a prime two-cycle
    iff nu^nu p^(nu+1) < q^nu (nu-1)^(nu+1); the flip tangency gives equality."""
    return nu ** nu * p ** (nu + 1) < q ** nu * (nu - 1) ** (nu + 1)


def test_stability_period_two_phase_boundary():
    problems = []

    # at (1,2,2), ((1+x^2)^2 + 4) * (f(f(x)) - x) = -(x-1)^3 (x^2+x+2): both
    # sides have degree 5, so agreement at nine rationals proves the identity
    tangent = EquationSpec.plus(1, 2, 2)
    for x in (Fraction(k, 3) for k in range(-4, 5)):
        lhs = ((1 + x ** 2) ** 2 + 4) * (step(tangent, step(tangent, x)) - x)
        if lhs != -((x - 1) ** 3) * (x ** 2 + x + 2):
            problems.append(f"(1,2,2) factorization fails at x={x}")

    for p in (1, 2, 3):
        q = p + 1
        for nu in range(1, 9):
            eq = EquationSpec.plus(p, q, nu)
            rep = classify_stability(eq, equilibria(eq)[0])
            if abs(rep.multiplier - (-nu / (p + 1))) > 1e-10:
                problems.append(f"(p={p},nu={nu}) multiplier {rep.multiplier}")
                continue
            if nu < p + 1:
                expected = Stability.LOCALLY_ASYMPTOTICALLY_STABLE
            elif nu == p + 1:
                expected = Stability.MARGINALLY_STABLE
            else:
                expected = Stability.UNSTABLE
            if rep.classification is not expected:
                problems.append(f"(p={p},nu={nu}) stability {rep.classification}")
                continue
            exists = plus_cycle_exists(p, q, nu)
            if exists != (nu > p + 1):
                problems.append(f"(p={p},nu={nu}) integer criterion says cycle={exists}")
                continue
            cycle = solve_period_two(eq)
            if (cycle is not None) != exists:
                found = "a" if cycle is not None else "no"
                problems.append(f"(p={p},nu={nu}) {found} prime two-cycle, criterion says {exists}")
                continue
            if cycle is None:
                continue
            if cycle.residual >= 1e-10:
                problems.append(f"(p={p},nu={nu}) cycle residual {cycle.residual:.2e}")
                continue
            orbit = iterate(eq, rep.value * (1 + 1e-3), 900, Plane.FLOAT)
            detection = detect_period(orbit, max_period=8, tol=1e-9, burn_in=300)
            if detection is None or detection.period != 2:
                problems.append(f"(p={p},nu={nu}) perturbed orbit not period-2")

    cycle = solve_period_two(EquationSpec.plus(1, 2, 6))
    dev_phi = abs(cycle.phi - 2.0) / 2.0
    dev_psi = abs(cycle.psi - 2 / 65) / (2 / 65)
    print(
        "ACCEPTANCE phase-boundary deviation from closed candidates at (1,2,6): "
        f"phi {dev_phi:.3e}, psi {dev_psi:.3e}"
    )
    if max(dev_phi, dev_psi) > 0.05:
        problems.append("(1,2,6) cycle further than 5% from closed candidates")

    ok = not problems
    report("stability-period-two-phase-boundary", ok, "; ".join(problems))
    assert ok, (
        "criterion requires, on q = p+1: stable and no cycle for nu < p+1; "
        "multiplier -1, marginal and no prime two-cycle at nu == p+1; unstable "
        "with a period-2 cycle for nu > p+1; and a cycle found exactly when "
        "nu^nu p^(nu+1) < q^nu (nu-1)^(nu+1): " + "; ".join(problems)
    )


def test_boundedness():
    rng = random.Random(20260812)
    ok = True
    for _ in range(100):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.randint(1, 6)
        eq = EquationSpec.plus(p, q, nu)
        env = bounds_envelope(eq)
        # positive start inside the invariant region (0, q/p]; the map sends
        # every positive value there after one step
        x0 = float(env.hi) * rng.uniform(0.01, 1.0)
        orbit = iterate(eq, x0, 60, Plane.FLOAT)
        ok &= orbit.status.ok
        lo, hi = float(env.lo), float(env.hi)
        for v in orbit.values[1:]:
            ok &= lo - 1e-12 <= v <= hi + 1e-12
    report("boundedness", ok, "100 random positive orbits, 60 steps each")
    assert ok


def test_minus_even_equilibrium_trichotomy():
    # two roots where nu^nu p^(nu+1) > q^nu (nu+1)^(nu+1), one double root at
    # equality, none below; q = p - 1 reports the root -1 alone
    rng = random.Random(20260813)
    ok = True
    for _ in range(100):
        p = Fraction(rng.randint(1, 50), 10)
        q = Fraction(rng.randint(1, 50), 10)
        nu = rng.choice([2, 4, 6, 8])
        eq = EquationSpec.minus(p, q, nu)
        reports = equilibria(eq)
        left, right = nu ** nu * p ** (nu + 1), q ** nu * (nu + 1) ** (nu + 1)
        expected = 1 if q == p - 1 else 2 if left > right else 1 if left == right else 0
        ok &= len(reports) == expected
        for rep in reports:
            ok &= _rounds_a_root(eq, rep.value)
    report("minus-even-equilibrium-trichotomy", ok, "100 random specs, counts and nearest floats")
    assert ok
