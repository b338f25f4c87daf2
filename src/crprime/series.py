"""Truncated graded power series: a polynomial plus an explicit O(rho^k) error.

The error order may be math.inf for exact polynomial data; exactness survives
ring operations and derivatives.  Each series carries its own working order,
and inversion and exp, which need a finite one, work to it.

Order propagation is conservative: it may understate accuracy, never overstate
it, so every O(rho^k) claim emitted by this layer is a true statement.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gauss import GR_ONE, Exact, GaussRational
from .poly import P_ONE, P_ZERO, Poly

INF = math.inf


class GradedSeries(Exact):
    __slots__ = ("poly", "order")
    _LIFTS = (int, GaussRational, Poly)

    def __init__(self, poly, order=INF):
        if not isinstance(poly, Poly):
            poly = Poly.const(poly)
        if order != INF:
            order = int(order)
            if order < 0:
                raise ValueError("error order must be >= 0")
            poly = poly.truncate(order)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "order", order)

    # -- queries -----------------------------------------------------------

    def valuation(self):
        """Weighted order of vanishing of the represented function."""
        return min(self.poly.min_wdeg(), self.order)

    def is_zero(self):
        """True when the stored jet is zero (the O-tail is not interrogated)."""
        return self.poly.is_zero()

    def certifies_O(self, k):
        """Does this series prove `function = O(rho^k)`?

        True: yes (no terms below k, tracked through order >= k).
        False: no, there is a nonzero term of weight < k.
        None: truncation order too low to decide.
        """
        if not self.poly.truncate(k).is_zero():
            return False
        if self.order < k:
            return None
        return True

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.poly == other.poly and self.order == other.order

    def __hash__(self):
        # an exact series equals its polynomial, so it hashes like it
        return hash(self.poly) if self.order == INF else hash((self.poly, self.order))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GradedSeries(self.poly + o.poly, min(self.order, o.order))

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries(-self.poly, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (f + O(k))(g + O(m)) = fg + f*O(m) + g*O(k) + O(k+m)
        order = min(
            self.order + o.valuation(),
            o.order + self.valuation(),
            self.order + o.order,
        )
        poly = self.poly.mul(o.poly, None if order == INF else order)
        return GradedSeries(poly, order)

    __rmul__ = __mul__

    def conj(self):
        return GradedSeries(self.poly.conj(), self.order)

    def diff(self, var):
        drop = 2 if var == "u" else 1
        if self.order != INF and self.order - drop <= 0:
            raise ValueError(
                f"derivative in {var} leaves no information (order {self.order})"
            )
        return GradedSeries(self.poly.diff(var), self.order - drop)

    def truncated(self, order):
        return GradedSeries(self.poly, min(self.order, order))

    # -- series functions ------------------------------------------------------

    def _target(self):
        if self.order == INF:
            raise ValueError("series function on exact data needs a finite order")
        return self.order

    def invert(self):
        """The inverse through weight < self.order, by Newton's iteration.

        y <- y + y (1 - a y) doubles the weight to which a y = 1 holds, so
        log2(self.order) steps reach the truncated inverse, which is unique.
        """
        c0 = self.poly.const_term()
        if c0.is_zero():
            raise ZeroDivisionError("inversion of a series with zero constant term")
        n = self._target()
        a = self.poly
        if a.graded_part(0) != Poly.const(c0):
            raise ValueError("inversion needs a constant weight-0 part (no bare pi terms)")
        y = Poly.const(GR_ONE / c0)
        m = 1
        while m < n:
            m = min(2 * m, n)
            y = y + y.mul(P_ONE - a.mul(y, m), m)
        return GradedSeries(y, n)

    def exp(self):
        """e^x through weight < self.order, by the Euler-operator recurrence.

        The Euler operator multiplies the weight-w block by w; applied to
        y = e^x it gives E y = (E x) y, so y_0 = 1 and
        w y_w = sum_{k=1..w} k x_k y_{w-k} (Brent & Kung, J. ACM 25, 1978).
        Every product is homogeneous of weight w, so none is truncated.
        """
        if not self.poly.graded_part(0).is_zero():
            raise ValueError("exp needs a zero weight-0 part (no constant or bare pi terms)")
        n = self._target()
        kx = [self.poly.graded_part(k) * k for k in range(n)]
        y = [P_ONE]
        for w in range(1, n):
            acc = P_ZERO
            for k in range(1, w + 1):
                if not kx[k].is_zero():
                    acc = acc + kx[k].mul(y[w - k])
            y.append(acc * GaussRational(Fraction(1, w)))
        return GradedSeries(sum(y, P_ZERO), n)

    def __repr__(self):
        tail = "" if self.order == INF else f" + O({self.order})"
        return f"<{self.poly!r}{tail}>"

