"""Outward-rounded float intervals that certify the signs of exact expressions.

An Interval [lo, hi] encloses the exact value of the rational expression it
was computed from.  Every +, -, * and / rounds its float bounds one
`math.nextafter` step outward, which covers the half-ulp error of IEEE
round-to-nearest, and an integer power is a chain of such products.  A
comparison answers only what the enclosure proves; when the bounds straddle the
other operand, or a bound is not finite, it raises Undecided instead, and the
caller evaluates the same expression exactly (the adaptive filter of Shewchuk,
*Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates*, 1997).  Int and Fraction operands are enclosed on the fly, so
one expression can be written once and evaluated on a Fraction or an
Interval.
"""

from __future__ import annotations

import math


class Undecided(ArithmeticError):
    """The enclosure cannot prove the answer; evaluate exactly instead."""


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


class Interval:
    """Finite float bounds lo <= exact value <= hi."""

    __slots__ = ("lo", "hi")
    __hash__ = None

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise Undecided("enclosure overflowed the float range")
        self.lo, self.hi = lo, hi

    @classmethod
    def enclose(cls, value) -> "Interval":
        """An Interval as is; an int or Fraction as its float, widened one step
        each way unless the float is exact."""
        if isinstance(value, cls):
            return value
        try:
            mid = float(value)
        except OverflowError:
            raise Undecided("value exceeds the float range") from None
        return cls(mid, mid) if mid == value else cls(_down(mid), _up(mid))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        other = Interval.enclose(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other) -> "Interval":
        return self + -Interval.enclose(other)

    def __mul__(self, other) -> "Interval":
        other = Interval.enclose(other)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(_down(min(products)), _up(max(products)))

    def __truediv__(self, other) -> "Interval":
        other = Interval.enclose(other)
        if other.lo <= 0.0 <= other.hi:
            raise Undecided("divisor enclosure contains zero")
        quotients = (self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi)
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def __rtruediv__(self, other) -> "Interval":
        return Interval.enclose(other) / self

    def __pow__(self, n: int) -> "Interval":
        """Integer power n >= 0 by square-and-multiply."""
        if n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = Interval(1.0, 1.0), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _compare(self, other) -> int:
        """Certified sign of self - other."""
        other = Interval.enclose(other)
        if self.lo > other.hi:
            return 1
        if self.hi < other.lo:
            return -1
        if self.lo == self.hi == other.lo == other.hi:
            return 0
        raise Undecided("enclosures overlap")

    def __eq__(self, other) -> bool:
        return self._compare(other) == 0

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0

    def __le__(self, other) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self._compare(other) > 0
