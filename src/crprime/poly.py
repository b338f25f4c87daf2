"""Multivariate polynomials over Q(i) in the graded variables z, zb, u, pi.

The weight (anisotropic order) of a monomial is deg_z + deg_zb + 2*deg_u; the
constant pi carries weight 0, is fixed by conjugation and killed by every
derivative. It exists so that expressions like 1/(2*pi*rho^2) stay exact.

A polynomial is a Gaussian-integer polynomial over one shared denominator, the
layout of FLINT's fmpq_poly: `terms` maps exponents (ez, ezb, eu, epi) to
numerators (re, im) of Python ints, never (0, 0), and `den` is a positive int.
Every operation ends with one gcd pass, so gcd(den, every re, every im) = 1 and
the zero polynomial has den == 1; equal polynomials thus have equal terms and
den, which equality and hashing use.  GaussRational appears only at the edges:
construction from scalar coefficients, coeffs(), const_term(), eval() and
repr.  Polynomials are treated as immutable once built.

The contract is the value and that canonical form, nothing more: equality
compares the terms as a mapping and the hash is built from a frozenset, so
neither sees the order of `terms`, and no operation promises one.  Everything
that prints or sums terms in floating point (repr, sphere.py) sorts them
first.  A product or sum with a 0 or 1 operand returns at once (0, the other
operand, its truncation or its negation).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gauss import GR_ONE, GR_ZERO, Exact, GaussRational

VARS = ("z", "zb", "u", "pi")
_SLOT = {"z": 0, "zb": 1, "u": 2, "pi": 3}
_ONE_TERMS = {(0, 0, 0, 0): (1, 0)}
_INF = float("inf")


def wdeg(exps):
    return exps[0] + exps[1] + 2 * exps[2]


def _split(c):
    """(re, im, den): a scalar as a Gaussian-integer numerator over den > 0."""
    if type(c) is int:
        return c, 0, 1
    if not isinstance(c, GaussRational):
        c = GaussRational(c)
    rd, id_ = int(c.re.denominator), int(c.im.denominator)
    den = rd * id_ // gcd(rd, id_)
    return int(c.re.numerator) * (den // rd), int(c.im.numerator) * (den // id_), den


def _make(terms, den):
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "_hash", None)
    return p


def _reduced(terms, den):
    """The Poly terms/den, after dividing out gcd(den, every numerator)."""
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            terms = {e: (re // g, im // g) for e, (re, im) in terms.items()}
            den //= g
    return _make(terms, den)


class Poly(Exact):
    __slots__ = ("terms", "den", "_hash")
    _LIFTS = (int, GaussRational)

    def __init__(self, terms=None):
        """From {exps: GaussRational | int}; zero coefficients are dropped."""
        split, den = {}, 1
        for exps, c in (terms or {}).items():
            re, im, d = _split(c)
            if re or im:
                split[exps] = (re, im, d)
                den = den * d // gcd(den, d)
        # den is the lcm of reduced denominators, so the result is in lowest terms
        t = {e: (re * (den // d), im * (den // d)) for e, (re, im, d) in split.items()}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0, 0): c})

    _lift = const

    @classmethod
    def var(cls, name):
        e = [0, 0, 0, 0]
        e[_SLOT[name]] = 1
        return _make({tuple(e): (1, 0)}, 1)

    @classmethod
    def monomial(cls, coeff, ez=0, ezb=0, eu=0, epi=0):
        return cls({(ez, ezb, eu, epi): coeff})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        da, db = self.den, o.den
        g = gcd(da, db)
        sa, sb = db // g, da // g
        t = dict(self.terms) if sa == 1 else {
            e: (re * sa, im * sa) for e, (re, im) in self.terms.items()}
        for e, (re, im) in o.terms.items():
            re, im = re * sb, im * sb
            old = t.get(e)
            if old is not None:
                re, im = old[0] + re, old[1] + im
                if not (re or im):
                    del t[e]
                    continue
            t[e] = (re, im)
        return _reduced(t, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _make({e: (-re, -im) for e, (re, im) in self.terms.items()}, self.den)

    def mul(self, o, order=None):
        """Product with the Poly o, optionally dropping monomials of weight >= order."""
        a, b = self.terms, o.terms
        if not a or not b:
            return P_ZERO
        if o.den == 1 and b == _ONE_TERMS:
            return self if order is None else self.truncate(order)
        if self.den == 1 and a == _ONE_TERMS:
            return o if order is None else o.truncate(order)
        if len(a) > len(b):
            a, b = b, a
        inner = [(e[0], e[1], e[2], e[3], e[0] + e[1] + 2 * e[2], re, im)
                 for e, (re, im) in b.items()]
        if order is None:
            order = _INF
        t = {}
        get = t.get
        for (z1, zb1, u1, p1), (r1, i1) in a.items():
            room = order - (z1 + zb1 + 2 * u1)
            for z2, zb2, u2, p2, w2, r2, i2 in inner:
                if w2 >= room:
                    continue
                e = (z1 + z2, zb1 + zb2, u1 + u2, p1 + p2)
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                old = get(e)
                if old is not None:
                    re += old[0]
                    im += old[1]
                    if not (re or im):
                        del t[e]
                        continue
                t[e] = (re, im)
        return _reduced(t, self.den * o.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.mul(o)

    __rmul__ = __mul__

    # -- calculus ---------------------------------------------------------

    def diff(self, var):
        if var == "pi":
            raise ValueError("pi is a constant; no derivative in pi")
        s = _SLOT[var]
        t = {}
        for e, (re, im) in self.terms.items():
            k = e[s]
            if k == 0:
                continue
            ne = list(e)
            ne[s] = k - 1
            t[tuple(ne)] = (re * k, im * k)
        return _reduced(t, self.den)

    def conj(self):
        return _make({(e[1], e[0], e[2], e[3]): (re, -im)
                      for e, (re, im) in self.terms.items()}, self.den)

    # -- structure queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0, 0, 0) in self.terms)

    def _scalar(self, e):
        """The coefficient of the monomial e as a GaussRational."""
        num = self.terms.get(e)
        if num is None:
            return GR_ZERO
        return GaussRational(Fraction(num[0], self.den), Fraction(num[1], self.den))

    def coeffs(self):
        """(exps, GaussRational) pairs in term order."""
        return [(e, self._scalar(e)) for e in self.terms]

    def const_term(self):
        return self._scalar((0, 0, 0, 0))

    def min_wdeg(self):
        """Weighted valuation; +inf for the zero polynomial."""
        if not self.terms:
            return float("inf")
        return min(wdeg(e) for e in self.terms)

    def max_wdeg(self):
        if not self.terms:
            return 0
        return max(wdeg(e) for e in self.terms)

    def _select(self, keep):
        t = {e: c for e, c in self.terms.items() if keep(wdeg(e))}
        return self if len(t) == len(self.terms) else _reduced(t, self.den)

    def truncate(self, order):
        """Drop all monomials of weight >= order."""
        return self._select(lambda w: w < order)

    def graded_part(self, k):
        return self._select(lambda w: w == k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            # a constant equals its coefficient, so it hashes like it
            h = (hash(self.const_term()) if self.is_const()
                 else hash((self.den, frozenset(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- evaluation and substitution ---------------------------------------

    def eval(self, point):
        """Exact evaluation; point maps each used variable to a GaussRational."""
        vals = [point.get(v) for v in VARS]
        cache = [{0: GR_ONE} for _ in VARS]

        def power(s, k):
            pc = cache[s]
            while k not in pc:
                top = max(pc)
                if vals[s] is None:
                    raise KeyError(f"no value supplied for {VARS[s]}")
                pc[top + 1] = pc[top] * vals[s]
            return pc[k]

        out = GR_ZERO
        for e, (re, im) in self.terms.items():
            term = GaussRational(re, im)
            for s in range(4):
                if e[s]:
                    term = term * power(s, e[s])
            out = out + term
        return out if self.den == 1 else out / self.den

    # -- division -----------------------------------------------------------

    def divide_exact(self, divisor):
        """Exact quotient self/divisor, or None when not divisible.

        Long division of the numerators: the remainder is kept as Gaussian
        integers over a running denominator d, multiplied by the part of
        |lead|^2 that a step's quotient coefficient does not cancel.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return P_ZERO
        de = max(divisor.terms)
        br, bi = divisor.terms[de]
        norm = br * br + bi * bi
        rem = dict(self.terms)
        d = 1
        steps = []  # (exps, numerator, denominator of the quotient coefficient)
        while rem:
            re_ = max(rem)
            ne = tuple(re_[k] - de[k] for k in range(4))
            if any(x < 0 for x in ne):
                return None
            # rem / d has leading coefficient r / d; divided by b it is r conj(b) / (norm d)
            r, i = rem[re_]
            qr, qi = r * br + i * bi, i * br - r * bi
            g = gcd(norm, qr, qi)
            qr, qi, s = qr // g, qi // g, norm // g
            if s != 1:
                rem = {e: (x * s, y * s) for e, (x, y) in rem.items()}
                d *= s
            steps.append((ne, qr, qi, d))
            for e2, (x2, y2) in divisor.terms.items():
                e = (ne[0] + e2[0], ne[1] + e2[1], ne[2] + e2[2], ne[3] + e2[3])
                x, y = qr * x2 - qi * y2, qr * y2 + qi * x2
                old = rem.get(e)
                if old is None:
                    rem[e] = (-x, -y)
                elif old == (x, y):
                    del rem[e]
                else:
                    rem[e] = (old[0] - x, old[1] - y)
        # numerator quotient Q / d; self / divisor = Q * divisor.den / (d * self.den)
        out = {}
        for ne, qr, qi, dk in steps:
            k = d // dk * divisor.den
            out[ne] = (qr * k, qi * k)
        return _reduced(out, d * self.den)

    def monic(self):
        """(self/lc, lc) with lc the lex-leading coefficient."""
        if self.is_zero():
            return self, GR_ONE
        e = max(self.terms)
        lr, li = self.terms[e]
        if li == 0 and lr == self.den:
            return self, GR_ONE
        t = {x: (re * lr + im * li, im * lr - re * li) for x, (re, im) in self.terms.items()}
        return _reduced(t, lr * lr + li * li), self._scalar(e)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda x: (wdeg(x), x)):
            c = self._scalar(e)
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(VARS, e)
                if k
            )
            parts.append(f"{c!r}*{mono}" if mono else repr(c))
        return " + ".join(parts)


P_ZERO = Poly()
P_ONE = Poly.const(1)
Z = Poly.var("z")
ZB = Poly.var("zb")
U = Poly.var("u")
PI = Poly.var("pi")
