"""Exact scalar arithmetic: arbitrary-precision rationals or a prime field.

Scalars are plain values with operator overloading (``Fraction`` for the
rationals, :class:`Mod` for a prime field), so algebra code never needs to
know which field it runs over.  A small field object supplies the constants
and parsing.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InvalidParameter


class Mod:
    """Residue modulo a prime, with field operations."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise InvalidParameter("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return Mod(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.value, self.p)


class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "q"
    # scalars are never mutated, so every caller can share the constants
    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text):
        return Fraction(text)

    def to_str(self, value):
        return "%d/%d" % (value.numerator, value.denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field with p elements, p prime and below 2^31, so that the
    primality check by trial division stays instant."""

    def __init__(self, p):
        if p >= 2**31:
            raise InvalidParameter("modulus %r is not below 2^31" % (p,))
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise InvalidParameter("modulus %r is not prime" % (p,))
        self.p = p
        self.name = "fp:%d" % p
        self.zero = Mod(0, p)
        self.one = Mod(1, p)

    def parse(self, text):
        if "/" in text:
            num, den = text.split("/", 1)
            return Mod(int(num), self.p) / Mod(int(den), self.p)
        return Mod(int(text), self.p)

    def to_str(self, value):
        return "%d/1" % value.value

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


RATIONALS = RationalField()


def parse_field_spec(spec):
    """Turn a CLI field flag (``q`` or ``fp:<p>``) into a field object."""
    if spec == "q":
        return RATIONALS
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise InvalidParameter("bad field spec %r" % spec) from None
        return PrimeField(p)
    raise InvalidParameter("bad field spec %r (expected 'q' or 'fp:<p>')" % spec)
