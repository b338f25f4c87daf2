"""Exact polynomial layer: arithmetic, grading, derivatives, conjugation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crprime.gauss import G, GaussRational
from crprime.poly import P_ONE, P_ZERO, PI, U, Z, ZB, Poly, wdeg

# weights 0..10 over every slot, small Gaussian coefficients that can cancel
POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    st.builds(G, st.integers(-2, 2), st.integers(-2, 2)), max_size=8).map(Poly)
ORDERS = st.integers(-1, 22)
SETTINGS = settings(max_examples=150, deadline=None)


def scan(p, keep):
    """The terms of p whose weight passes keep, by brute force over p.terms."""
    return Poly({e: c for e, c in p.coeffs() if keep(wdeg(e))})


def test_weights():
    assert wdeg((1, 0, 0, 0)) == 1
    assert wdeg((0, 1, 0, 0)) == 1
    assert wdeg((0, 0, 1, 0)) == 2
    assert wdeg((0, 0, 0, 3)) == 0  # pi carries no weight
    assert wdeg((2, 1, 3, 0)) == 9


def test_add_collects():
    p = Z * ZB + Z * ZB
    assert p == 2 * Z * ZB
    assert (p - 2 * Z * ZB).is_zero()


def test_gaussian_product():
    i = G(0, 1)
    left = Z + i * ZB
    right = Z - i * ZB
    assert left * right == Z * Z + ZB * ZB


def test_conj_swaps_slots():
    c = G(3, 2)
    p = c * Z**4 * ZB**2
    assert p.conj() == c.conj() * Z**2 * ZB**4
    assert (Z * ZB).conj() == Z * ZB
    assert U.conj() == U
    assert PI.conj() == PI


def test_derivatives():
    p = -(Z**4) * ZB**2
    q = p.diff("z").diff("z").diff("z").diff("zb").diff("zb")
    assert q == -48 * Z

    r = -(Z**3) * ZB**3
    s = r.diff("z").diff("zb").diff("z").diff("zb")
    assert s == -36 * Z * ZB

    assert (U**2).diff("u") == 2 * U
    with pytest.raises(ValueError):
        PI.diff("pi")


def test_truncating_mul():
    p = (Z + ZB) * (Z * ZB)  # weight 3
    assert p.mul(P_ONE, 3).is_zero()
    assert p.mul(P_ONE, 4) == p
    big = (Z + U) ** 3
    # truncate keeps weight < order, strictly
    assert big.truncate(4) == Z**3
    assert big.truncate(5) == Z**3 + 3 * Z * Z * U


def test_grading_queries():
    p = Z + U + Z**2 * ZB**2 * U
    assert p.min_wdeg() == 1
    assert p.max_wdeg() == 6
    assert p.graded_part(2) == U
    assert p.graded_part(3).is_zero()
    assert P_ZERO.min_wdeg() == float("inf")


def test_eval():
    p = Z**2 * ZB + 3 * U - PI
    pt = {"z": G(1, 1), "zb": G(1, -1), "u": G("1/2"), "pi": G(7)}
    # (1+i)^2 (1-i) = 2i(1-i) = 2 + 2i
    assert p.eval(pt) == G(2, 2) + G("3/2") - G(7)


def test_divide_exact():
    a = Z**2 - ZB**2
    b = Z - ZB
    q = a.divide_exact(b)
    assert q is not None and q * b == a
    assert (Z * ZB + U).divide_exact(Z) is None


def long_division(a, b):
    """a / b by plain lex long division on Poly arithmetic, or None."""
    lead = max(b.terms)
    lc = dict(b.coeffs())[lead]
    q, r = P_ZERO, a
    while not r.is_zero():
        top = max(r.terms)
        e = [x - y for x, y in zip(top, lead)]
        if min(e) < 0:
            return None
        t = Poly.monomial(dict(r.coeffs())[top] / lc, *e)
        q, r = q + t, r - t * b
    return q


@SETTINGS
@given(POLYS, POLYS, POLYS, st.booleans())
def test_divide_exact_is_plain_long_division(q, b, r, exact):
    # exact multiples half the time, so that both answers are exercised
    a = q * b if exact else q * b + r
    if b.is_zero():
        return
    want = long_division(a, b)
    got = a.divide_exact(b)
    assert got == want
    if exact:
        assert got == q


def test_divide_exact_rejects_unreachable_end_terms():
    # lead z^2 does not reach the lead z^3 of the divisor
    assert (Z**2 + ZB).divide_exact(Z**3 + 1) is None
    # the leads reach, but the trailing u cannot come from the trailing zb
    assert (Z**2 * ZB + U).divide_exact(Z + ZB) is None
    assert (Z * ZB + ZB**2).divide_exact(Z + ZB) == ZB


def test_pow_and_hash():
    assert Z**0 == P_ONE
    assert (Z + ZB) ** 2 == Z**2 + 2 * Z * ZB + ZB**2
    assert hash(Z * ZB) == hash(ZB * Z)
    assert len({Z + U, U + Z, Z}) == 2


def test_coercion():
    assert Z + 1 == P_ONE + Z
    assert 2 * Z == Z + Z
    assert Z * GaussRational(0) == P_ZERO


@SETTINGS
@given(POLYS, ORDERS)
def test_weight_range_queries_match_a_scan(p, k):
    ws = [wdeg(e) for e in p.terms]
    assert p.min_wdeg() == min(ws, default=float("inf"))
    assert p.max_wdeg() == max(ws, default=0)
    assert p.truncate(k) == scan(p, lambda w: w < k)
    assert p.graded_part(k) == scan(p, lambda w: w == k)
    if ws and all(w < k for w in ws):
        assert p.truncate(k) is p


@SETTINGS
@given(POLYS, POLYS, ORDERS)
def test_truncated_product_is_the_full_product_truncated(a, b, order):
    want = scan(a * b, lambda w: w < order)
    assert a.mul(b, order) == want
    assert b.mul(a, order) == want


def test_weight_range_edge_cases():
    assert (P_ZERO.min_wdeg(), P_ZERO.max_wdeg()) == (float("inf"), 0)
    assert P_ZERO.truncate(0) == P_ZERO.truncate(5) == P_ZERO.graded_part(0) == P_ZERO
    p = Z + U * ZB  # weights 1 and 3
    q = 1 + Z * ZB  # weights 0 and 2
    # an order that cuts inside the product: weights 1, 3, 3, 5 against order 4
    assert p.mul(q, 4) == Z + U * ZB + Z * Z * ZB
    assert q.mul(p, 4) == p.mul(q, 4)
    # maxima that sum below the order keep the whole product
    assert p.mul(q, 6) == p * q
    assert p.mul(q, 1) == P_ZERO
    assert p.truncate(4) is p
    assert p.truncate(1) == P_ZERO
    assert p.truncate(2) == Z
    assert p.graded_part(2) == P_ZERO
    h = Z * ZB
    assert h.graded_part(2) is h
