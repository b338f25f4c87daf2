"""The integer-numerator Poly against a plain {exps: (Fraction, Fraction)} model.

The reference below does term-by-term rational arithmetic, and every result
is compared by value after its canonical form is checked.  Term order is not
compared: Poly promises none.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crprime.gauss import GaussRational
from crprime.poly import P_ONE, P_ZERO, Poly, wdeg

# few exponents and small coefficients, so that terms collide and cancel often
EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 2))
PARTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                         Fraction(-2, 3), Fraction(5, 4), Fraction(-3)])
COEFFS = st.tuples(PARTS, PARTS)
REFS = st.dictionaries(EXPS, COEFFS, max_size=6)
ORDERS = st.none() | st.integers(0, 7)

SETTINGS = settings(max_examples=150, deadline=None)


def poly(ref):
    return Poly({e: GaussRational(re, im) for e, (re, im) in ref.items()})


def clean(ref):
    return {e: c for e, c in ref.items() if c != (0, 0)}


def view(p):
    """The reference form of a Poly, checking its canonical form on the way."""
    assert p.den > 0
    assert all(c != (0, 0) for c in p.terms.values())
    assert gcd(p.den, *(x for c in p.terms.values() for x in c)) == 1
    return {e: (Fraction(re, p.den), Fraction(im, p.den)) for e, (re, im) in p.terms.items()}


def same(p, ref):
    got = view(p)
    assert got == ref


def ref_accumulate(t, e, c):
    old = t.get(e, (0, 0))
    new = (old[0] + c[0], old[1] + c[1])
    if new == (0, 0):
        t.pop(e, None)
    else:
        t[e] = new


def ref_add(a, b, sign=1):
    t = dict(a)
    for e, (re, im) in b.items():
        ref_accumulate(t, e, (sign * re, sign * im))
    return t


def ref_mul(a, b, order=None):
    if len(a) > len(b):
        a, b = b, a
    t = {}
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if order is None or wdeg(e) < order:
                ref_accumulate(t, e, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
    return t


@SETTINGS
@given(REFS, REFS, ORDERS)
def test_mul_matches_reference(a, b, order):
    a, b = clean(a), clean(b)
    same(poly(a).mul(poly(b), order), ref_mul(a, b, order))
    same(poly(b).mul(poly(a), order), ref_mul(b, a, order))


@SETTINGS
@given(REFS, ORDERS)
@example({(0, 0, 0, 0): (Fraction(1), Fraction(0))}, None)
def test_zero_and_unit_products_match_reference(a, order):
    a = clean(a)
    zero, one = {}, {(0, 0, 0, 0): (Fraction(1), Fraction(0))}
    for other in (zero, one):
        same(poly(a).mul(poly(other), order), ref_mul(a, other, order))
        same(poly(other).mul(poly(a), order), ref_mul(other, a, order))
    x = poly(a)
    if a:
        # a unit operand returns the other one; when both are the unit, the
        # kernel returns the operand it was called on
        assert x.mul(P_ONE) is x
        assert P_ONE.mul(x) is (P_ONE if a == one else x)


@SETTINGS
@given(REFS)
def test_sums_with_zero_match_reference(a):
    a = clean(a)
    x = poly(a)
    same(x + P_ZERO, ref_add(a, {}))
    same(x - P_ZERO, ref_add(a, {}, -1))
    same(P_ZERO + x, ref_add({}, a))
    same(P_ZERO - x, ref_add({}, a, -1))
    assert (x + P_ZERO) is x and (x - P_ZERO) is x


@SETTINGS
@given(REFS, REFS)
def test_add_and_sub_match_reference(a, b):
    a, b = clean(a), clean(b)
    same(poly(a) + poly(b), ref_add(a, b))
    same(poly(a) - poly(b), ref_add(a, b, -1))
    same(-poly(a), {e: (-re, -im) for e, (re, im) in a.items()})


@SETTINGS
@given(REFS, st.sampled_from(["z", "zb", "u"]), st.integers(0, 7))
def test_diff_conj_truncate_match_reference(a, var, order):
    a = clean(a)
    s = ("z", "zb", "u").index(var)
    want = {}
    for e, (re, im) in a.items():
        if e[s]:
            ne = list(e)
            ne[s] -= 1
            want[tuple(ne)] = (re * e[s], im * e[s])
    same(poly(a).diff(var), want)
    same(poly(a).conj(), {(e[1], e[0], e[2], e[3]): (re, -im) for e, (re, im) in a.items()})
    same(poly(a).truncate(order), {e: c for e, c in a.items() if wdeg(e) < order})


@SETTINGS
@given(REFS, COEFFS)
def test_dilate_and_monic_match_reference(a, t):
    a = clean(a)
    if t == (0, 0):
        return
    want = {}
    for e, c in a.items():
        for _ in range(wdeg(e)):
            c = (c[0] * t[0] - c[1] * t[1], c[0] * t[1] + c[1] * t[0])
        want[e] = c
    same(poly(a).dilate(GaussRational(*t)), want)
    monic, lc = poly(a).monic()
    assert monic * lc == poly(a)
    if a:
        # the lex-leading coefficient, over the slot order (z, zb, u, pi)
        assert max(monic.coeffs(), key=lambda ec: ec[0])[1] == 1


@SETTINGS
@given(REFS, REFS)
def test_divide_exact_undoes_mul(a, b):
    pa, pb = poly(clean(a)), poly(clean(b))
    if pb.is_zero():
        return
    q = pa.mul(pb).divide_exact(pb)
    assert q == pa
    view(q)


@SETTINGS
@given(REFS, COEFFS, COEFFS, COEFFS, COEFFS)
def test_eval_matches_reference(a, z, zb, u, pi):
    a = clean(a)
    point = {"z": GaussRational(*z), "zb": GaussRational(*zb),
             "u": GaussRational(*u), "pi": GaussRational(*pi)}
    want = (Fraction(0), Fraction(0))
    for e, c in a.items():
        for v, k in zip((z, zb, u, pi), e):
            for _ in range(k):
                c = (c[0] * v[0] - c[1] * v[1], c[0] * v[1] + c[1] * v[0])
        want = (want[0] + c[0], want[1] + c[1])
    assert poly(a).eval(point) == GaussRational(*want)


@SETTINGS
@given(REFS, REFS)
def test_equal_polys_built_two_ways_hash_equal(a, b):
    pa, pb = poly(clean(a)), poly(clean(b))
    prod = pa * pb
    assert prod == pb * pa and hash(prod) == hash(pb * pa)
    again = Poly(dict(reversed(prod.coeffs())))
    assert again == prod and hash(again) == hash(prod)
    total = pa + pb
    assert total == pb + pa and hash(total) == hash(pb + pa)


@SETTINGS
@given(REFS)
def test_cancellation_gives_the_canonical_zero(a):
    pa = poly(clean(a))
    for zero in (pa - pa, pa.mul(pa - pa), pa + (-pa)):
        assert zero.is_zero() and zero.den == 1
        assert zero == P_ZERO and hash(zero) == hash(P_ZERO)


def test_term_that_cancels_and_returns_is_kept():
    one, z, z2, u = (Poly({e: 1}) for e in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)])
    # (1 + z + z^2)(1 - z + z^2 + u): z^2 cancels at the second row and returns at the third
    a, b = one + z + z2, one - z + z2 + u
    prod = a.mul(b)
    same(prod, ref_mul(view(a), view(b)))
    assert prod == one + u + z * u + z2 + z2 * z2 + z2 * u
