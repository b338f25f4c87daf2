"""Exterior calculus on a 3-dimensional chart with coordinates (z, zb, u).

A form is the tuple of its component scalars: one for a 0-form and for a
3-form (on dz^dzb^du), those on dz, dzb, du for a 1-form, and those on
dzb^du, du^dz, dz^dzb for a 2-form, so that w(X) = w . X and
w(X, Y) = w . (X x Y).  Wedge, d (grad, curl, div) and the pairing of a
1-form with a vector are then cross and dot products.  Components are exact
scalars, never bare ints: graded series, closed-form expressions or Gaussian
rationals, with +, -, *, conj, diff, is_zero and, for the frame builders,
invert.  A zero component is stored as GR_ZERO, and no product or sum
touches it, nor a zero vector component.

AdaptedCoframe builds the frame (T, Z1, Z1b) dual to a coframe (theta, theta1,
theta1b) without a matrix inverse.  It inverts one determinant,
det = theta . (theta1 x theta1b), which is imaginary because theta is real:
T = (theta1 x theta1b)/det, Z1 = (theta1b x theta)/det and Z1b = conj Z1.
Since (a x b) x (b x c) = (a . (b x c)) b, the frame's cross products are
T x Z1 = theta1b/det, T x Z1b = -theta1/det and Z1 x Z1b = theta/det, so a
2-form pairs with two frame vectors by one dot product with the coframe.
reeb_field scales the same way: the kernel of the 2-form dtheta is its own
component vector.
"""

from __future__ import annotations

from functools import reduce

from .gauss import GR_ZERO, Exact, Frozen

_VARS = ("z", "zb", "u")
_WIDTH = (1, 3, 3, 1)


def _add(a, b):
    """a + b, leaving out an operand that is GR_ZERO."""
    return a if b is GR_ZERO else b if a is GR_ZERO else a + b


def _neg(c):
    return c if c is GR_ZERO else -c


def _sub(a, b):
    return _add(a, _neg(b))


def _prod(a, b):
    return GR_ZERO if a.is_zero() or b.is_zero() else a * b


def _deriv(var, c):
    """The derivative of c in var as a factor of d; GR_ZERO when it vanishes."""
    dc = c.diff(var)
    return GR_ZERO if dc.is_zero() else dc


def _cross(a, b, mul=_prod):
    """a x b of two component triples, with mul as the product."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        _sub(mul(a1, b2), mul(a2, b1)),
        _sub(mul(a2, b0), mul(a0, b2)),
        _sub(mul(a0, b1), mul(a1, b0)),
    )


def _dot(a, b, mul=_prod):
    """a . b of two component triples, with mul as the product."""
    return reduce(_add, map(mul, a, b), GR_ZERO)


def _map(f, comps):
    return tuple(c if c is GR_ZERO else f(c) for c in comps)


class DifferentialForm(Frozen):
    __slots__ = ("degree", "comps")
    # a form lifts nothing, so the scalars' - takes a form only
    _LIFTS = ()
    _coerce, __sub__ = Exact._coerce, Exact.__sub__

    def __init__(self, degree, comps):
        comps = tuple(GR_ZERO if c.is_zero() else c for c in comps)
        if not 0 <= degree <= 3 or len(comps) != _WIDTH[degree]:
            raise ValueError(f"no {degree}-form on a 3-manifold has {len(comps)} components")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", comps)

    def is_zero(self):
        return all(c is GR_ZERO for c in self.comps)

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        return DifferentialForm(self.degree, map(_add, self.comps, other.comps))

    def __neg__(self):
        return DifferentialForm(self.degree, map(_neg, self.comps))

    def __mul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        return DifferentialForm(self.degree, _map(lambda c: c * scalar, self.comps))

    def __rmul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        return DifferentialForm(self.degree, _map(lambda c: scalar * c, self.comps))

    def conj(self):
        """Complex conjugation: swaps dz and dzb, fixes du."""
        c = _map(lambda x: x.conj(), self.comps)
        if self.degree in (1, 2):
            c = (c[1], c[0], c[2])
        return DifferentialForm(self.degree, map(_neg, c) if self.degree >= 2 else c)


class VectorField(Frozen):
    __slots__ = ("vz", "vzb", "vu")

    def __init__(self, vz, vzb, vu):
        object.__setattr__(self, "vz", vz)
        object.__setattr__(self, "vzb", vzb)
        object.__setattr__(self, "vu", vu)

    def conj(self):
        return VectorField(self.vzb.conj(), self.vz.conj(), self.vu.conj())

    def apply(self, f):
        """Directional derivative of a scalar."""
        vs = (self.vz, self.vzb, self.vu)
        return reduce(_add, (v * f.diff(var) for var, v in zip(_VARS, vs) if not v.is_zero()), GR_ZERO)


def form_from_scalar(f):
    return DifferentialForm(0, (f,))


def one_form(cz=GR_ZERO, czb=GR_ZERO, cu=GR_ZERO):
    return DifferentialForm(1, (cz, czb, cu))


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.degree == b.degree == 1:
        return DifferentialForm(2, _cross(a.comps, b.comps))
    if {a.degree, b.degree} == {1, 2}:
        return DifferentialForm(3, (_dot(a.comps, b.comps),))
    raise ValueError("wedge takes two 1-forms, or a 1-form and a 2-form")


def exterior_d(form: DifferentialForm) -> DifferentialForm:
    """grad of a 0-form, curl of a 1-form, div of a 2-form."""
    c = form.comps
    if form.degree == 0:
        return DifferentialForm(1, [_deriv(var, c[0]) for var in _VARS])
    if form.degree == 1:
        return DifferentialForm(2, _cross(_VARS, c, _deriv))
    if form.degree == 2:
        return DifferentialForm(3, (_dot(_VARS, c, _deriv),))
    raise ValueError("exterior_d takes a 0-, 1- or 2-form")


def contract(form: DifferentialForm, X: VectorField) -> DifferentialForm:
    """Interior product of a 1-form: the 0-form w(X) = w . X."""
    if form.degree != 1:
        raise ValueError("contract takes a 1-form")
    return DifferentialForm(0, (_dot(form.comps, (X.vz, X.vzb, X.vu)),))


def evaluate(form: DifferentialForm, X: VectorField) -> object:
    """The scalar w(X) of a 1-form w."""
    return contract(form, X).comps[0]


def _scaled(scale, v) -> VectorField:
    return VectorField(*_map(lambda c: scale * c, v))


def reeb_field(theta: DifferentialForm, dtheta: DifferentialForm) -> VectorField:
    """The unique T with theta(T) = 1 and dtheta(T, .) = 0; dtheta is exterior_d(theta)."""
    return _scaled(_dot(theta.comps, dtheta.comps).invert(), dtheta.comps)


class AdaptedCoframe(Frozen):
    """Coframe (theta, theta1, theta1b) with its dual frame (T, Z1, Z1b).

    theta is real, so theta1b = conj theta1 and Z1b = conj Z1.  inv_det is
    1/(theta . (theta1 x theta1b)), the one inverse the frame is built from.
    """

    __slots__ = ("theta", "theta1", "theta1b", "T", "Z1", "Z1b", "inv_det")

    def __init__(self, theta, theta1):
        theta1b = theta1.conj()
        normal = _cross(theta1.comps, theta1b.comps)
        inv_det = _dot(theta.comps, normal).invert()
        T = _scaled(inv_det, normal)
        Z1 = _scaled(inv_det, _cross(theta1b.comps, theta.comps))
        for name, value in zip(self.__slots__, (theta, theta1, theta1b, T, Z1, Z1.conj(), inv_det)):
            object.__setattr__(self, name, value)

    def expand_in_coframe(self, form: DifferentialForm) -> dict:
        """Components of a 1- or 2-form against theta, theta1, theta1b and their wedges.

        The coefficient of theta^theta1 in a 2-form w is w(T, Z1) = (w . theta1b)/det,
        that of theta^theta1b is w(T, Z1b) = -(w . theta1)/det, and that of
        theta1^theta1b is w(Z1, Z1b) = (w . theta)/det.
        """
        if form.degree == 1:
            return {
                "theta": evaluate(form, self.T),
                "theta1": evaluate(form, self.Z1),
                "theta1b": evaluate(form, self.Z1b),
            }
        if form.degree != 2:
            raise ValueError("expand_in_coframe takes a 1- or 2-form")
        on = lambda f: _prod(self.inv_det, _dot(form.comps, f.comps))
        return {
            "theta^theta1": on(self.theta1b),
            "theta^theta1b": _neg(on(self.theta1)),
            "theta1^theta1b": self.pair_z1_z1b(form),
        }

    def pair_z1_z1b(self, form: DifferentialForm):
        """The theta1^theta1b coefficient of a 2-form w: w(Z1, Z1b) = (w . theta)/det."""
        return _prod(self.inv_det, _dot(form.comps, self.theta.comps))
