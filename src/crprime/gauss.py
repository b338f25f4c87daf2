"""Exact Gaussian-rational arithmetic.

Coefficients live in Q(i): real and imaginary parts are fractions.Fraction,
with no optional backend, so exact results are the same on every machine.
Equality is exact; nothing in this layer carries a floating tolerance.
Polynomials keep their own integer numerators (poly.py); this type is their
scalar edge.
"""

from __future__ import annotations

from fractions import Fraction


def rat(num, den=1):
    """The exact rational num/den, from ints or Fractions."""
    return Fraction(num, den)


class GaussRational:
    """An element a + bi of Q(i). Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        return NotImplemented

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (GR_ONE / self) ** (-n)
        out, base = GR_ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self):
        return GaussRational(self.re, -self.im)

    def invert(self):
        return GR_ONE / self

    def diff(self, var):
        return GR_ZERO

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversions ---------------------------------------------------

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def G(re, im=0):
    """Shorthand constructor; accepts ints, rationals or 'p/q' strings."""
    re = Fraction(re) if isinstance(re, str) else re
    im = Fraction(im) if isinstance(im, str) else im
    return GaussRational(re, im)


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)
