"""Exact closed-form scalars on the Heisenberg group.

Two layers:

  RatExpr  -- elements of Q(i)(z, zb, u)[s] / (s^2 - Sigma) where
              Sigma = (z zb)^2 + u^2 and s = rho^2 is the quartic radius.
              Denominators are kept factored and s-free; dividing by
              (a + b s) rationalizes against its conjugate.

  LogExpr  -- finite sums  sum_k  c_k * prod_j log(f_j)^{p_jk}  with RatExpr
              coefficients; each log argument is an Atom, a value built once
              beside the code that owns its argument (log s, log zeta,
              log zetab and log 2pi here), and the keys hold the atoms.
              One derivative turns log f into f'/f, so curvature-type
              quantities collapse back to RatExpr automatically.

Zero testing is coefficient-wise in the atoms.  The atoms carry one genuine
relation, log zeta + log zetab = 2 log s, but no identity verified here mixes
those three; treating atoms as independent is therefore conservative and safe.
"""

from __future__ import annotations

from .gauss import G, GR_ONE, Exact, Field, Frozen, GaussRational
from .poly import P_ONE, P_ZERO, PI, U, Z, ZB, Poly

SIGMA = (Z * ZB) ** 2 + U**2  # s^2 as a polynomial
ZETA = Z * ZB - G(0, 1) * U
ZETAB = Z * ZB + G(0, 1) * U

_DS_NUM = {"z": Z * ZB**2, "zb": Z**2 * ZB, "u": U}  # ds = num * s / Sigma


def _normalize_den(na, nb, den):
    """Put a raw den in normal form: each factor monic and non-constant, the
    constants folded into na and nb.  Returns (na, nb, den).

    Sigma itself splits as zeta * zetab over Q(i); storing the split form lets
    the trial-division reducer cancel against the factors dlog produces.
    """
    out = {}
    scale = GR_ONE
    for f, e in den.items():
        if e == 0:
            continue
        if e < 0:
            raise ValueError("negative denominator exponent")
        if f.is_zero():
            raise ZeroDivisionError("zero denominator factor")
        if f.is_const():
            scale = scale * f.const_term() ** -e
            continue
        f, lc = f.monic()
        if lc is not GR_ONE:
            scale = scale * lc**-e
        for g in (ZETA, ZETAB) if f == SIGMA else (f,):
            out[g] = out.get(g, 0) + e
    if scale is not GR_ONE:
        na, nb = na * scale, nb * scale
    return na, nb, out


def _reduce(na, nb, den):
    """na + nb s over a normal den, a dict of its own: cancel every factor
    dividing both numerators by trial division, then build."""
    if na.is_zero() and nb.is_zero():
        return _build(na, nb, {})
    for f in list(den):
        while den[f] > 0:
            qa = na.divide_exact(f)
            if qa is None:
                break
            if nb.is_zero():
                qb = P_ZERO
            else:
                qb = nb.divide_exact(f)
                if qb is None:
                    break
            na, nb = qa, qb
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return _build(na, nb, den)


def _build(na, nb, den):
    """The RatExpr na + nb s over den, which is normal and reduced.

    Every build lists den's factors in reverse: the residuals of
    heisenberg.log_not_harmonic and heisenberg.q2_term.* print them in the
    order this gives.
    """
    out = object.__new__(RatExpr)
    object.__setattr__(out, "na", na)
    object.__setattr__(out, "nb", nb)
    object.__setattr__(out, "den", dict(reversed(den.items())))
    return out


def _product(powers):
    """prod f**k over (f, k) pairs, skipping k = 0."""
    out = P_ONE
    for f, k in powers:
        if k:
            out = out * f**k
    return out


class RatExpr(Field):
    """(na + nb s) / prod(den), the factors kept apart, monic and non-constant.

    Every value is reduced: no factor of den divides both na and nb.  The
    constructor normalizes a raw den and cancels by trial division; the
    operators build through _build over a den that is already normal.
    """

    __slots__ = ("na", "nb", "den")
    _LIFTS = (int, GaussRational, Poly)

    def __new__(cls, na=P_ZERO, nb=P_ZERO, den=None):
        na = na if isinstance(na, Poly) else Poly.const(na)
        nb = nb if isinstance(nb, Poly) else Poly.const(nb)
        return _reduce(*_normalize_den(na, nb, den or {}))

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return self.na.is_zero() and self.nb.is_zero()

    def is_const(self):
        return not self.den and self.nb.is_zero() and self.na.is_const()

    def as_poly(self):
        if self.nb.is_zero() and not self.den:
            return self.na
        return None

    # A factor divides na + c * prod(den) and nb, or c * na and c * nb for a
    # constant c != 0, exactly when it divides na and nb: these stay reduced.

    def _plus_const(self, c):
        """self + c for a constant Poly c; c = 0 builds no denominator product."""
        na = self.na
        if not c.is_zero():
            na = na + c * _product(self.den.items())
        return _build(na, self.nb, self.den)

    def _times_const(self, c):
        """self * c for a constant Poly c."""
        if c.is_zero():
            return RX_ZERO
        return _build(self.na * c, self.nb * c, self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_const():
            return self._plus_const(o.na)
        if self.is_const():
            return o._plus_const(self.na)
        den = dict(self.den)
        for f, e in o.den.items():
            den[f] = max(den.get(f, 0), e)
        ls = _product((f, e - self.den.get(f, 0)) for f, e in den.items())
        rs = _product((f, e - o.den.get(f, 0)) for f, e in den.items())
        return _reduce(self.na * ls + o.na * rs, self.nb * ls + o.nb * rs, den)

    __radd__ = __add__

    def __neg__(self):
        return _build(-self.na, -self.nb, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_const():
            return self._times_const(o.na)
        if self.is_const():
            return o._times_const(self.na)
        den = dict(self.den)
        for f, e in o.den.items():
            den[f] = den.get(f, 0) + e
        na = self.na * o.na + self.nb * o.nb * SIGMA
        nb = self.na * o.nb + self.nb * o.na
        return _reduce(na, nb, den)

    __rmul__ = __mul__

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        dpoly = _product(self.den.items())
        a, b = self.na, self.nb
        if b.is_zero():
            return RatExpr(dpoly, P_ZERO, {a: 1})
        # 1/(a + b s) = (a - b s)/(a^2 - b^2 Sigma)
        norm = a * a - b * b * SIGMA
        if norm.is_zero():
            raise ZeroDivisionError("a + b*s collapses on the surface s^2 = Sigma")
        return RatExpr(dpoly * a, -(dpoly * b), {norm: 1})

    def conj(self):
        # conjugation keeps self reduced, but a conjugated monic factor need
        # not be monic: z + i zb becomes zb - i z
        return _build(*_normalize_den(
            self.na.conj(), self.nb.conj(), {f.conj(): e for f, e in self.den.items()}))

    def diff(self, var):
        out = _reduce(self.na.diff(var), self.nb.diff(var), dict(self.den))
        if not self.nb.is_zero():
            # d s = _DS_NUM * s / Sigma, and Sigma = zeta * zetab
            den = dict(self.den)
            for g in (ZETA, ZETAB):
                den[g] = den.get(g, 0) + 1
            out = out + _reduce(P_ZERO, self.nb * _DS_NUM[var], den)
        for f, e in self.den.items():
            df = f.diff(var)
            if df.is_zero():
                continue
            den = dict(self.den)
            den[f] = den[f] + 1
            out = out - e * _reduce(self.na * df, self.nb * df, den)
        return out

    def eval(self, point, s_val):
        num = self.na.eval(point) + self.nb.eval(point) * s_val
        d = GR_ONE
        for f, e in self.den.items():
            d = d * f.eval(point) ** e
        return num / d

    def __repr__(self):
        d = " / " + " * ".join(f"({f!r})^{e}" for f, e in self.den.items()) if self.den else ""
        s = "" if self.nb.is_zero() else f" + ({self.nb!r})*s"
        return f"[({self.na!r}){s}{d}]"


RX_ZERO = RatExpr()
RX_ONE = RatExpr(na=P_ONE)
RX_S = RatExpr(nb=P_ONE)


def euler(f):
    """The weighted Euler operator z f_z + zb f_zb + 2u f_u.

    z and zb have weight 1, u (and so s) weight 2; f is homogeneous of
    weight w exactly when euler(f) == w f.
    """
    return Z * f.diff("z") + ZB * f.diff("zb") + 2 * U * f.diff("u")


class Atom(Frozen):
    """A log argument, built once beside the code that owns it.

    Atoms compare by identity; the name only sorts and prints LogExpr keys.
    conj=None means arg is real, so the atom is its own conjugate; an atom
    built with conj=other becomes other's conjugate too.
    """

    __slots__ = ("name", "arg", "conj", "_dlog")

    def __init__(self, name, arg, conj=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "conj", self if conj is None else conj)
        object.__setattr__(self, "_dlog", {})
        if conj is not None:
            object.__setattr__(conj, "conj", self)

    def __lt__(self, other):
        return self.name < other.name

    def dlog(self, var):
        # arg never changes, so each var's quotient is computed once
        if var not in self._dlog:
            self._dlog[var] = self.arg.diff(var) / self.arg
        return self._dlog[var]


def _merge_key(key, atom, dp):
    d = dict(key)
    d[atom] = d.get(atom, 0) + dp
    if d[atom] == 0:
        del d[atom]
    return tuple(sorted(d.items()))


class LogExpr(Exact):
    """Polynomial in log atoms with RatExpr coefficients."""

    __slots__ = ("terms",)
    _LIFTS = (int, GaussRational, Poly, RatExpr)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, RatExpr):
                coeff = RatExpr(coeff)
            if coeff.is_zero():
                continue
            clean[tuple(sorted(key))] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_rat(cls, rx):
        return cls({(): rx})  # __init__ lifts rx with RatExpr(rx)

    _lift = from_rat

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def as_rat(self):
        """The RatExpr value when no atom survives, else None."""
        if all(k == () for k in self.terms):
            return self.terms.get((), RX_ZERO)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in o.terms.items():
            terms[key] = terms.get(key, RX_ZERO) + c
        return LogExpr(terms)

    __radd__ = __add__

    def __neg__(self):
        return LogExpr({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in o.terms.items():
                key = k1
                for atom, p in k2:
                    key = _merge_key(key, atom, p)
                c = c1 * c2
                terms[key] = terms.get(key, RX_ZERO) + c
        return LogExpr(terms)

    __rmul__ = __mul__

    def conj(self):
        terms = {}
        for key, c in self.terms.items():
            nk = tuple(sorted((a.conj, p) for a, p in key))
            terms[nk] = terms.get(nk, RX_ZERO) + c.conj()
        return LogExpr(terms)

    def diff(self, var):
        terms = {}

        def bump(key, c):
            if key in terms:
                terms[key] = terms[key] + c
            else:
                terms[key] = c

        for key, c in self.terms.items():
            dc = c.diff(var)
            if not dc.is_zero():
                bump(key, dc)
            for atom, p in key:
                dl = atom.dlog(var)
                if dl.is_zero():
                    continue
                bump(_merge_key(key, atom, -1), p * c * dl)
        return LogExpr(terms)

    def exp(self):
        """exp of an integer combination of atoms, as a RatExpr."""
        num, den = RX_ONE, RX_ONE
        for key, c in self.terms.items():
            if key == ():
                if not c.is_zero():
                    raise ValueError("exp needs a pure log combination")
                continue
            if len(key) != 1 or key[0][1] != 1:
                raise ValueError("exp of higher log powers is not rational")
            cp = c.as_poly()
            if cp is None or not cp.is_const():
                raise ValueError("exp needs constant coefficients")
            cc = cp.const_term()
            if not cc.is_real() or cc.re.denominator != 1:
                raise ValueError("exp needs integer coefficients")
            n = int(cc.re)
            base = key[0][0].arg
            if n >= 0:
                num = num * base**n if n else num
            else:
                den = den * base ** (-n)
        return num / den

    def __repr__(self):
        if not self.terms:
            return "LogExpr(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "*".join(f"{a.name}^{p}" if p > 1 else a.name for a, p in key) or "1"
            bits.append(f"{mono}: {c!r}")
        return "LogExpr{" + "; ".join(bits) + "}"


def _log(atom):
    return LogExpr({((atom, 1),): RX_ONE})


def log_atom(name, arg):
    """log(arg) over a new atom for a real arg; atoms compare by identity."""
    return _log(Atom(name, arg))


LOG_S = log_atom("log_s", RX_S)
LOG_2PI = log_atom("log_2pi", RatExpr(na=2 * PI))
_ZETA_ATOM = Atom("log_zeta", RatExpr(na=ZETA))
LOG_ZETA = _log(_ZETA_ATOM)
LOG_ZETAB = _log(Atom("log_zetab", RatExpr(na=ZETAB), _ZETA_ATOM))
