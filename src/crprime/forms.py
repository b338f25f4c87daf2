"""Exterior calculus on a 3-dimensional chart with coordinates (z, zb, u).

Forms are sparse dictionaries over the basis dz, dzb, du (indices 0, 1, 2)
with strictly increasing index tuples.  Component scalars are duck-typed:
graded series, closed-form expressions and Gaussian rationals all work, as
long as they support +, -, *, conj, diff and is_zero, and the frame builders
also need invert.  Components must be exact scalars, never bare ints: a
missing component reads as GR_ZERO.  Mixing kinds inside one form is the
caller's problem.

AdaptedCoframe builds the frame (T, Z1, Z1b) dual to a coframe (theta, theta1,
theta1b) without a matrix inverse: T and Z1 are cross products of the other
two forms' components, each scaled to pair to 1 with its own form, and
Z1b = conj Z1 because theta is real.  reeb_field shares the scaling.
"""

from __future__ import annotations

from .gauss import GR_ZERO

_VARS = ("z", "zb", "u")
_IDX = {"z": 0, "zb": 1, "u": 2}


def _sort_key(idx):
    """Sort a multi-index, returning (tuple, sign); sign 0 on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


class DifferentialForm:
    __slots__ = ("degree", "comps")

    def __init__(self, degree, comps=None):
        if not 0 <= degree <= 3:
            raise ValueError("degree out of range on a 3-manifold")
        clean = {}
        for idx, c in (comps or {}).items():
            key, sign = _sort_key(tuple(idx))
            if sign == 0 or c.is_zero():
                continue
            if len(key) != degree:
                raise ValueError("index length does not match degree")
            c = c if sign == 1 else -c
            clean[key] = clean[key] + c if key in clean else c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", {k: v for k, v in clean.items() if not v.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("DifferentialForm is immutable")

    def is_zero(self):
        return not self.comps

    def component(self, *idx):
        key, sign = _sort_key(idx)
        c = self.comps.get(key, GR_ZERO)
        return c if sign >= 0 else -c

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        comps = dict(self.comps)
        for k, c in other.comps.items():
            comps[k] = comps[k] + c if k in comps else c
        return DifferentialForm(self.degree, comps)

    def __sub__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DifferentialForm(self.degree, {k: -c for k, c in self.comps.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        return DifferentialForm(self.degree, {k: c * scalar for k, c in self.comps.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        return DifferentialForm(self.degree, {k: scalar * c for k, c in self.comps.items()})

    def conj(self):
        """Complex conjugation: swaps dz and dzb, fixes du."""
        swap = {0: 1, 1: 0, 2: 2}
        comps = {}
        for idx, c in self.comps.items():
            key, sign = _sort_key(tuple(swap[i] for i in idx))
            cc = c.conj()
            cc = cc if sign == 1 else -cc
            comps[key] = comps[key] + cc if key in comps else cc
        return DifferentialForm(self.degree, comps)

    def __repr__(self):
        names = {0: "dz", 1: "dzb", 2: "du"}
        if not self.comps:
            return f"<0-form 0>" if self.degree == 0 else f"<{self.degree}-form 0>"
        bits = ["^".join(names[i] for i in k) or "1" for k in sorted(self.comps)]
        return f"<{self.degree}-form on " + ", ".join(bits) + ">"


class VectorField:
    __slots__ = ("vz", "vzb", "vu")

    def __init__(self, vz, vzb, vu):
        object.__setattr__(self, "vz", vz)
        object.__setattr__(self, "vzb", vzb)
        object.__setattr__(self, "vu", vu)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def comp(self, i):
        return (self.vz, self.vzb, self.vu)[i]

    def conj(self):
        return VectorField(self.vzb.conj(), self.vz.conj(), self.vu.conj())

    def apply(self, f):
        """Directional derivative of a scalar."""
        out = None
        for var, v in zip(_VARS, (self.vz, self.vzb, self.vu)):
            if v.is_zero():
                continue
            term = v * f.diff(var)
            out = term if out is None else out + term
        return GR_ZERO if out is None else out

    def __repr__(self):
        return f"VectorField({self.vz!r}, {self.vzb!r}, {self.vu!r})"


def form_from_scalar(f):
    return DifferentialForm(0, {(): f})


def one_form(cz=GR_ZERO, czb=GR_ZERO, cu=GR_ZERO):
    return DifferentialForm(1, {(0,): cz, (1,): czb, (2,): cu})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    deg = a.degree + b.degree
    if deg > 3:
        return DifferentialForm(3, {})
    comps = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            key, sign = _sort_key(ia + ib)
            if sign == 0:
                continue
            c = ca * cb
            c = c if sign == 1 else -c
            comps[key] = comps[key] + c if key in comps else c
    return DifferentialForm(deg, comps)


def exterior_d(form: DifferentialForm) -> DifferentialForm:
    if form.degree == 3:
        return DifferentialForm(3, {})
    comps = {}
    for idx, c in form.comps.items():
        for var in _VARS:
            dc = c.diff(var)
            if dc.is_zero():
                continue
            key, sign = _sort_key((_IDX[var],) + idx)
            if sign == 0:
                continue
            dc = dc if sign == 1 else -dc
            comps[key] = comps[key] + dc if key in comps else dc
    return DifferentialForm(form.degree + 1, comps)


def contract(form: DifferentialForm, X: VectorField) -> DifferentialForm:
    """Interior product: (i_X w)(Y, ...) = w(X, Y, ...)."""
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    comps = {}
    for idx, c in form.comps.items():
        for pos, i in enumerate(idx):
            v = X.comp(i)
            if v.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = c * v if pos % 2 == 0 else -(c * v)
            comps[rest] = comps[rest] + term if rest in comps else term
    return DifferentialForm(form.degree - 1, comps)


def evaluate(form: DifferentialForm, *vectors) -> object:
    if len(vectors) != form.degree:
        raise ValueError("wrong number of vector arguments")
    out = form
    for X in vectors:
        out = contract(out, X)
    return out.comps.get((), GR_ZERO)


def _cross(a: DifferentialForm, b: DifferentialForm) -> VectorField:
    """The vector a x b of two 1-forms' components; both forms vanish on it."""
    a0, a1, a2 = (a.component(i) for i in range(3))
    b0, b1, b2 = (b.component(i) for i in range(3))
    return VectorField(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _normalised(v: VectorField, form: DifferentialForm) -> VectorField:
    """v / form(v): the multiple of v on which form is 1."""
    scale = evaluate(form, v).invert()
    return VectorField(scale * v.vz, scale * v.vzb, scale * v.vu)


def reeb_field(theta: DifferentialForm) -> VectorField:
    """The unique T with theta(T) = 1 and dtheta(T, .) = 0."""
    dth = exterior_d(theta)
    # in 3 variables the kernel direction of a 2-form is a cross product
    v = VectorField(
        dth.component(1, 2), -dth.component(0, 2), dth.component(0, 1)
    )
    return _normalised(v, theta)


class AdaptedCoframe:
    """Coframe (theta, theta1, theta1b) with its dual frame (T, Z1, Z1b).

    theta is real, so theta1b = conj theta1 and Z1b = conj Z1.
    """

    __slots__ = ("theta", "theta1", "theta1b", "T", "Z1", "Z1b")

    def __init__(self, theta, theta1):
        theta1b = theta1.conj()
        T = _normalised(_cross(theta1, theta1b), theta)
        Z1 = _normalised(_cross(theta1b, theta), theta1)
        for name, value in zip(self.__slots__, (theta, theta1, theta1b, T, Z1, Z1.conj())):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AdaptedCoframe is immutable")

    def expand_in_coframe(self, form: DifferentialForm) -> dict:
        """Components of a 1- or 2-form against theta, theta1, theta1b and their wedges."""
        T, Z1, Z1b = self.T, self.Z1, self.Z1b
        if form.degree == 1:
            return {
                "theta": evaluate(form, T),
                "theta1": evaluate(form, Z1),
                "theta1b": evaluate(form, Z1b),
            }
        return {
            "theta^theta1": evaluate(form, T, Z1),
            "theta^theta1b": evaluate(form, T, Z1b),
            "theta1^theta1b": evaluate(form, Z1, Z1b),
        }
