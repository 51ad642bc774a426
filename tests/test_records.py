"""The record contract a caller sees: every public record is an immutable
named tuple that constructs by keyword, compares and hashes by its fields,
and the two parameter specs coerce and check their inputs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ratdyn.analysis import Bracket, EquilibriumReport, PeriodTwoCycle, Stability, equilibria
from ratdyn.closed_form import ForbiddenPoint, ProductAnalysis, Regime
from ratdyn.dynamics import (
    BoundsEnvelope,
    Orbit,
    OrbitStatus,
    OscillationProfile,
    PeriodDetection,
    Plane,
    Side,
    StatusKind,
)
from ratdyn.equation import Branch, EquationSpec
from ratdyn.horadam import HoradamSpec, QuadraticElement, QuadraticRoots

EQ = EquationSpec.plus(2, 7, 3)

# One example of each record type, as keyword arguments in field order.
RECORDS = [
    (EquationSpec, dict(branch=Branch.MINUS, p=Fraction(3), q=Fraction(1, 2), nu=2)),
    (HoradamSpec, dict(a=Fraction(2), b=Fraction(1), p=Fraction(1), q=Fraction(-1, 3))),
    (QuadraticElement, dict(u=Fraction(1), v=Fraction(-2), p=Fraction(1), q=Fraction(1))),
    (QuadraticRoots, dict(phi_plus=1.6, phi_minus=-0.6, discriminant=5.0, A=1.0, B=1.0)),
    (OrbitStatus, dict(kind=StatusKind.NEAR_SINGULAR, step=4)),
    (Orbit, dict(eq=EQ, x0=Fraction(3), values=(Fraction(3), Fraction(7, 29)),
                 status=OrbitStatus(StatusKind.COMPLETED), plane=Plane.EXACT)),
    (BoundsEnvelope, dict(lo=Fraction(7, 345), hi=Fraction(7, 2))),
    (OscillationProfile, dict(center=1.5, sides=(Side.ABOVE, Side.BELOW),
                              semicycles=((Side.ABOVE, 1), (Side.BELOW, 1)))),
    (PeriodDetection, dict(period=2, phase=0)),
    (EquilibriumReport, dict(value=1.0, bracket=Bracket.AT_ONE, multiplier=-0.5,
                             classification=Stability.LOCALLY_ASYMPTOTICALLY_STABLE)),
    (PeriodTwoCycle, dict(phi=3.4, psi=0.1, residual=0.0, approx_form=(3.5, 0.09))),
    (ForbiddenPoint, dict(m=1, value=Fraction(-1))),
    (ProductAnalysis, dict(regime=Regime.P_GREATER_QM1, predicted_limit=Fraction(0),
                           alternating=False, partials=(Fraction(3), Fraction(21, 29)))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keyword_construction_and_attribute_access(cls, fields):
    record = cls(**fields)
    assert type(record) is cls
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_unpack_and_compare_as_tuples_of_their_fields(cls, fields):
    record = cls(**fields)
    assert tuple(record) == tuple(fields.values())
    assert record == tuple(fields.values())
    assert record._fields == tuple(fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_with_one_hash(cls, fields):
    first, second = cls(**fields), cls(**dict(fields))
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_names_the_class(cls, fields):
    assert repr(cls(**fields)).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_replace_keeps_the_class_and_the_other_fields(cls, fields):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    changed = record._replace(**{name: value})
    assert type(changed) is cls and changed == record


# --- the checked specs ----------------------------------------------------------


def test_equation_spec_coerces_to_fraction():
    eq = EquationSpec(Branch.PLUS, 2, "7/3", 2)
    assert (type(eq.p), type(eq.q)) == (Fraction, Fraction)
    assert (eq.p, eq.q, eq.nu) == (2, Fraction(7, 3), 2)
    assert EquationSpec.minus("1/2", 3) == EquationSpec(Branch.MINUS, Fraction(1, 2), 3, 1)
    assert EquationSpec.plus(1, 2).nu == 1


def test_horadam_spec_coerces_to_fraction():
    spec = HoradamSpec(0, "1", "1/2", 3)
    assert all(type(value) is Fraction for value in spec)
    assert spec == (0, 1, Fraction(1, 2), 3)
    assert HoradamSpec.canonical(1, 1) == HoradamSpec(0, 1, 1, 1)
    assert HoradamSpec.canonical(1, 1).is_canonical


@pytest.mark.parametrize("args", [
    (Branch.PLUS, 1.5, 1, 1),
    (Branch.PLUS, 1, 0.5, 1),
])
def test_equation_spec_refuses_floats(args):
    with pytest.raises(TypeError):
        EquationSpec(*args)


@pytest.mark.parametrize("args", [
    (Branch.PLUS, 0, 1, 1),
    (Branch.MINUS, -1, 1, 1),
    (Branch.PLUS, 1, 0, 1),
    (Branch.MINUS, 1, "-1/2", 1),
    (Branch.PLUS, 1, 1, 0),
    (Branch.PLUS, 1, 1, -2),
    (Branch.PLUS, 1, 1, 2.0),
])
def test_equation_spec_refuses_nonpositive_parameters_and_bad_nu(args):
    with pytest.raises(ValueError):
        EquationSpec(*args)


def test_equation_spec_coerces_and_checks_its_branch():
    assert EquationSpec("plus", 1, 1) == EquationSpec.plus(1, 1)
    assert EquationSpec.plus(1, 1)._replace(branch="minus").branch is Branch.MINUS
    with pytest.raises(ValueError):
        EquationSpec("up", 1, 1)
    with pytest.raises(ValueError):
        EquationSpec.plus(1, 1)._replace(branch="up")
    # the root of x**2 + x - 1, not a minus-branch search that never ends
    assert [r.value for r in equilibria(EquationSpec("plus", 1, 1, 1))] == [0.6180339887498949]


@pytest.mark.parametrize("position", range(4))
def test_horadam_spec_refuses_floats(position):
    args = [0, 1, 1, 1]
    args[position] = 0.5
    with pytest.raises(TypeError):
        HoradamSpec(*args)


@pytest.mark.parametrize("p, q", [(2, -1), (0, 0), ("1/2", "-1/16")])
def test_horadam_spec_refuses_a_double_characteristic_root(p, q):
    with pytest.raises(ValueError):
        HoradamSpec(0, 1, p, q)


def test_replace_checks_like_the_constructor():
    eq = EquationSpec.plus(1, 2, 3)
    assert eq._replace(p="1/2").p == Fraction(1, 2)
    with pytest.raises(ValueError):
        eq._replace(q=0)
    with pytest.raises(TypeError):
        eq._replace(p=0.5)
    spec = HoradamSpec.canonical(1, 1)
    assert type(spec._replace(a=3).a) is Fraction
    with pytest.raises(ValueError):
        spec._replace(p=2, q=-1)


# --- the ring element -----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 3, True])
def test_an_integer_times_a_ring_element_is_a_type_error(n):
    phi = QuadraticElement.phi(1, 1)
    with pytest.raises(TypeError):
        n * phi


def test_a_tuple_plus_a_ring_element_is_a_type_error():
    phi = QuadraticElement.phi(1, 1)
    with pytest.raises(TypeError):
        (0,) + phi
    with pytest.raises(TypeError):
        () * phi


def test_ring_elements_still_multiply():
    phi = QuadraticElement.phi(1, 1)
    assert phi * phi == QuadraticElement(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
