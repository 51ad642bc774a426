"""Parameter container for the two difference equations under study.

A single ``EquationSpec`` describes one first-order map
``x -> q / (sign*p + x**nu)`` where ``sign`` is +1 on the plus branch and
-1 on the minus branch.  Parameters are exact rationals so that orbits can
be iterated without rounding; floats are rejected at construction to keep
the exact plane honest.  `_fraction` builds the Fraction of a coprime pair
without a gcd, for the layers' integer sweeps.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Union

Rational = Union[int, str, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Convert to Fraction, refusing floats (use strings like '1/2' instead)."""
    if isinstance(value, float):
        raise TypeError("expected an exact rational (int, str or Fraction), got float")
    return Fraction(value)


def _coprime_constructor(cls):
    """The cheapest way to build a `cls` from a coprime pair (n, d) with d > 0:
    the private gcd-free form this Python has, else the public constructor,
    which is slower but takes any pair."""
    if hasattr(cls, "_from_coprime_ints"):  # Python 3.12 and later
        return cls._from_coprime_ints
    try:
        cls(1, 1, _normalize=False)  # Python 3.10 and 3.11
    except TypeError:
        return cls
    return lambda n, d: cls(n, d, _normalize=False)


_fraction: Callable[[int, int], Fraction] = _coprime_constructor(Fraction)


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


class _EquationFields(NamedTuple):
    branch: Branch
    p: Fraction
    q: Fraction
    nu: int = 1


class EquationSpec(_EquationFields):
    """One equation x(n+1) = q / (sign*p + x(n)**nu) with p, q > 0 and nu >= 1;
    branch is a Branch or its value, 'plus' or 'minus' (else ValueError)."""

    __slots__ = ()

    def __new__(cls, branch: Branch, p: Rational, q: Rational, nu: int = 1) -> "EquationSpec":
        branch, p, q = Branch(branch), as_fraction(p), as_fraction(q)
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
        an Interval, with p enclosed at its precision)."""
        return x ** self.nu + self.p if self.branch is Branch.PLUS else x ** self.nu - self.p
