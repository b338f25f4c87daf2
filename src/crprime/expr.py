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


def _normalize_den(den):
    """Fold constants out of factors; return (canonical dict, numerator scale).

    Sigma itself splits as zeta * zetab over Q(i); storing the split form lets
    the trial-division reducer cancel against the factors dlog produces.
    """
    out = {}
    scale = GR_ONE
    stack = list(den.items())
    while stack:
        f, e = stack.pop()
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
        if f == SIGMA:
            stack.append((ZETA, e))
            stack.append((ZETAB, e))
            continue
        out[f] = out.get(f, 0) + e
    return out, scale


class RatExpr(Field):
    __slots__ = ("na", "nb", "den")
    _LIFTS = (int, GaussRational, Poly)

    def __init__(self, na=P_ZERO, nb=P_ZERO, den=None):
        na = na if isinstance(na, Poly) else Poly.const(na)
        nb = nb if isinstance(nb, Poly) else Poly.const(nb)
        den, scale = _normalize_den(den or {})
        if scale is not GR_ONE:
            na, nb = na * scale, nb * scale
        if na.is_zero() and nb.is_zero():
            den = {}
        object.__setattr__(self, "na", na)
        object.__setattr__(self, "nb", nb)
        object.__setattr__(self, "den", den)

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return self.na.is_zero() and self.nb.is_zero()

    def as_poly(self):
        if self.nb.is_zero() and not self.den:
            return self.na
        return None

    def _reduce(self):
        """Cancel denominator factors dividing both numerator components."""
        na, nb, den = self.na, self.nb, dict(self.den)
        changed = False
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
                changed = True
            if den[f] == 0:
                del den[f]
        if not changed:
            return self
        return RatExpr(na, nb, den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = dict(self.den)
        for f, e in o.den.items():
            den[f] = max(den.get(f, 0), e)
        ls = P_ONE
        for f, e in den.items():
            k = e - self.den.get(f, 0)
            if k:
                ls = ls * f**k
        rs = P_ONE
        for f, e in den.items():
            k = e - o.den.get(f, 0)
            if k:
                rs = rs * f**k
        return RatExpr(
            self.na * ls + o.na * rs, self.nb * ls + o.nb * rs, den
        )._reduce()

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(-self.na, -self.nb, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = dict(self.den)
        for f, e in o.den.items():
            den[f] = den.get(f, 0) + e
        na = self.na * o.na + self.nb * o.nb * SIGMA
        nb = self.na * o.nb + self.nb * o.na
        return RatExpr(na, nb, den)._reduce()

    __rmul__ = __mul__

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        dpoly = P_ONE
        for f, e in self.den.items():
            dpoly = dpoly * f**e
        a, b = self.na, self.nb
        if b.is_zero():
            return RatExpr(dpoly, P_ZERO, {a: 1})._reduce()
        # 1/(a + b s) = (a - b s)/(a^2 - b^2 Sigma)
        norm = a * a - b * b * SIGMA
        if norm.is_zero():
            raise ZeroDivisionError("a + b*s collapses on the surface s^2 = Sigma")
        return RatExpr(dpoly * a, -(dpoly * b), {norm: 1})._reduce()

    def conj(self):
        return RatExpr(
            self.na.conj(), self.nb.conj(), {f.conj(): e for f, e in self.den.items()}
        )

    def diff(self, var):
        out = RatExpr(self.na.diff(var), self.nb.diff(var), self.den)
        if not self.nb.is_zero():
            # d s = _DS_NUM * s / Sigma
            den = dict(self.den)
            den[SIGMA] = den.get(SIGMA, 0) + 1
            out = out + RatExpr(P_ZERO, self.nb * _DS_NUM[var], den)._reduce()
        for f, e in self.den.items():
            df = f.diff(var)
            if df.is_zero():
                continue
            den = dict(self.den)
            den[f] = den[f] + 1
            out = out - e * RatExpr(self.na * df, self.nb * df, den)._reduce()
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

    def rational_part(self):
        return self.terms.get((), RX_ZERO)

    def as_rat(self):
        """The RatExpr value when no atom survives, else None."""
        if all(k == () for k in self.terms):
            return self.rational_part()
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
