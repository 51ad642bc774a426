"""Parameter container for the two difference equations under study.

A single ``EquationSpec`` describes one first-order map
``x -> q / (sign*p + x**nu)`` where ``sign`` is +1 on the plus branch and
-1 on the minus branch.  Parameters are exact rationals so that orbits can
be iterated without rounding; floats are rejected at construction to keep
the exact plane honest.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

Rational = Union[int, str, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Convert to Fraction, refusing floats (use strings like '1/2' instead)."""
    if isinstance(value, float):
        raise TypeError("expected an exact rational (int, str or Fraction), got float")
    return Fraction(value)


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


class _EquationFields(NamedTuple):
    branch: Branch
    p: Fraction
    q: Fraction
    nu: int = 1


class EquationSpec(_EquationFields):
    """One equation x(n+1) = q / (sign*p + x(n)**nu) with p, q > 0 and nu >= 1."""

    __slots__ = ()

    def __new__(cls, branch: Branch, p: Rational, q: Rational, nu: int = 1) -> "EquationSpec":
        p, q = as_fraction(p), as_fraction(q)
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        if not isinstance(nu, int) or nu < 1:
            raise ValueError("nu must be an integer >= 1")
        return super().__new__(cls, branch, p, q, nu)

    @classmethod
    def _make(cls, iterable) -> "EquationSpec":
        """Checked like the constructor, so `_replace` coerces and validates too."""
        return cls(*iterable)

    @classmethod
    def plus(cls, p: Rational, q: Rational, nu: int = 1) -> "EquationSpec":
        return cls(Branch.PLUS, p, q, nu)

    @classmethod
    def minus(cls, p: Rational, q: Rational, nu: int = 1) -> "EquationSpec":
        return cls(Branch.MINUS, p, q, nu)

    @property
    def sign(self) -> int:
        """+1 for the +p denominator, -1 for the -p denominator."""
        return 1 if self.branch is Branch.PLUS else -1

    def denominator(self, x):
        """sign*p + x**nu, staying in the arithmetic of x (Fraction, float or
        Interval)."""
        return x ** self.nu + self.sign * self.p
