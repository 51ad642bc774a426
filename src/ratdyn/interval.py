"""Outward-rounded dyadic intervals on Python ints that certify exact signs.

An Interval [lo*2**e, hi*2**e] encloses the exact value of the rational
expression it was computed from.  After every +, -, * and / its int
mantissas are cut back to `bits` bits, lo by a floor shift and hi by a
ceiling shift, and an integer power is a chain of products; the exponent e
is an int, so nothing overflows.  A comparison answers only what the
enclosure proves; where the bounds straddle the other operand it raises
Undecided, and the caller tries more bits, then exact arithmetic (the
adaptive filter of Shewchuk, *Adaptive Precision Floating-Point Arithmetic
and Fast Robust Geometric Predicates*, 1997; Johansson, *Arb*, IEEE Trans.
Computers 2017).  Int and Fraction operands are enclosed on the fly, so one
expression can be written once and evaluated on a Fraction or an Interval.
"""

from __future__ import annotations


class Undecided(ArithmeticError):
    """The enclosure cannot prove the answer; use more bits or exact arithmetic."""


class Interval:
    """lo*2**e <= exact value <= hi*2**e, with |lo|, |hi| <= 2**bits."""

    __slots__ = ("lo", "hi", "e", "bits")  # unhashable: __eq__ without __hash__

    def __init__(self, lo: int, hi: int, e: int, bits: int):
        shift = max(lo.bit_length(), hi.bit_length()) - bits
        if shift > 0:
            lo, hi, e = lo >> shift, -(-hi >> shift), e + shift
        self.lo, self.hi, self.e, self.bits = lo, hi, e, bits

    @classmethod
    def enclose(cls, value, bits: int) -> "Interval":
        """An Interval as is; an int or Fraction cut outward to `bits` bits."""
        if isinstance(value, cls):
            return value
        n, d = value.as_integer_ratio()
        e = n.bit_length() - d.bit_length() - bits
        lo, rest = divmod(n << -e, d) if e < 0 else divmod(n, d << e)
        return cls(lo, lo + (rest != 0), e, bits)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.e, self.bits)

    def __add__(self, other) -> "Interval":
        # aligned no lower than 2*bits below the top of the operand of larger
        # exponent, the other one rounded outward there
        other = Interval.enclose(other, self.bits)
        low, high = (self, other) if self.e <= other.e else (other, self)
        if not (high.lo or high.hi):
            return low
        e = max(low.e, high.e + max(high.lo.bit_length(), high.hi.bit_length()) - 2 * self.bits)
        cut, up = e - low.e, high.e - e
        return Interval((low.lo >> cut) + (high.lo << up), -(-low.hi >> cut) + (high.hi << up),
                        e, self.bits)

    def __sub__(self, other) -> "Interval":
        return self + -Interval.enclose(other, self.bits)

    def __mul__(self, other) -> "Interval":
        other = Interval.enclose(other, self.bits)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        products = (a * c, b * d) if a >= 0 and c >= 0 else (a * c, a * d, b * c, b * d)
        return Interval(min(products), max(products), self.e + other.e, self.bits)

    def __truediv__(self, other) -> "Interval":
        """The outer corners' quotients, self's mantissas scaled to keep bits bits."""
        other = Interval.enclose(other, self.bits)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c <= 0 <= d:
            raise Undecided("divisor enclosure contains zero")
        if d < 0:  # x/y = (-x)/(-y), with a positive divisor
            a, b, c, d = -b, -a, -d, -c
        shift = max(0, self.bits + 1 + d.bit_length() - max(a.bit_length(), b.bit_length()))
        a, b = a << shift, b << shift
        return Interval(a // (d if a >= 0 else c), -(-b // (c if b >= 0 else d)),
                        self.e - other.e - shift, self.bits)

    def __rtruediv__(self, other) -> "Interval":
        return Interval.enclose(other, self.bits) / self

    def __pow__(self, n: int) -> "Interval":
        """Integer power n >= 0 by square-and-multiply."""
        if n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = Interval(1, 1, 0, self.bits), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _compare(self, other) -> int:
        """Certified sign of self - other; against the int 0, of self itself."""
        diff = self if other.__class__ is int and other == 0 else self - other
        if diff.lo > 0 or diff.hi < 0 or diff.lo == diff.hi == 0:
            return (diff.lo > 0) - (diff.hi < 0)
        raise Undecided("enclosures overlap")

    def __eq__(self, other) -> bool:
        return self._compare(other) == 0

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0

    def __le__(self, other) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self._compare(other) > 0
