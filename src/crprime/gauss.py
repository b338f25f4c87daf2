"""Exact Gaussian-rational arithmetic, and the bases every exact scalar shares.

Coefficients live in Q(i): real and imaginary parts are fractions.Fraction,
with no optional backend, so exact results are the same on every machine.
Equality is exact; nothing in this layer carries a floating tolerance.
Polynomials keep their own integer numerators (poly.py); this type is their
scalar edge.

The five exact scalar kinds (GaussRational here, Poly, RatExpr, LogExpr and
GradedSeries) define only their primitives, and three bases derive the rest:

  Frozen  -- slot-only instances whose attributes are set once, through
             object.__setattr__; any later assignment raises.
  Exact   -- a kind defines _LIFTS (the types it lifts, by its constructor
             or by its own _lift), __add__, __neg__, __mul__ and is_zero;
             Exact adds _coerce, -, truth, value equality and ** (a negative
             power needs invert).  GaussRational, Poly and GradedSeries
             replace value equality by a structural __eq__ and __hash__;
             RatExpr and LogExpr stay unhashable.
  Field   -- a kind that also defines invert gains /.

Every operator returns NotImplemented for an operand it cannot lift.
"""

from __future__ import annotations

from fractions import Fraction


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Exact(Frozen):
    __slots__ = ()
    _LIFTS = ()

    def _lift(self, x):
        return type(self)(x)

    def _coerce(self, x):
        """x itself, x lifted into this kind, or None."""
        if isinstance(x, type(self)):
            return x
        if isinstance(x, self._LIFTS):
            return self._lift(x)
        return None

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** -n
        if n == 0:
            return self._lift(1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()


class Field(Exact):
    __slots__ = ()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()


class GaussRational(Field):
    """An element a + bi of Q(i)."""

    __slots__ = ("re", "im")
    _LIFTS = (int, Fraction)

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def invert(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(self.re / n, -self.im / n)

    def conj(self):
        return GaussRational(self.re, -self.im)

    def diff(self, var):
        return GR_ZERO

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
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
