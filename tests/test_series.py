"""Order-tracked series: the contract is that every emitted O(rho^k) is true."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crprime.gauss import G
from crprime.poly import P_ONE, PI, U, Z, ZB, Poly
from crprime.series import INF, GradedSeries


def S(poly, order=INF):
    return GradedSeries(poly, order)


def test_truncation_on_construction():
    s = S(Z * ZB * U + Z, 3)
    assert s.poly == Z
    assert s.order == 3


def test_exact_data_stays_exact():
    a = S(Z + U)
    b = S(ZB)
    assert (a * b).order == INF
    assert (a + b - b).poly == Z + U


def test_mul_order_propagation():
    # (z + O(3))(zb + O(3)) : error enters at weight 1+3 = 4
    a = S(Z, 3)
    b = S(ZB, 3)
    p = a * b
    assert p.order == 4
    assert p.poly == Z * ZB


def test_mul_against_bruteforce():
    f = Z + 2 * U + Z**2 * ZB
    g = ZB - U
    prod = S(f, 5) * S(g, 6)
    # min(5+1, 6+1, 11) = 6
    assert prod.order == 6
    assert prod.poly == (f * g).truncate(6)


def test_certifies_O():
    s = S(U**2, 6)
    assert s.certifies_O(4) is True
    assert s.certifies_O(5) is False  # u^2 has weight 4
    assert s.certifies_O(7) is False  # the weight-4 term already refutes it
    z = S(Poly.const(0), 9)
    assert z.certifies_O(9) is True
    assert z.certifies_O(10) is None
    assert S(U**3, 6).certifies_O(7) is None  # jet empty, order too low


def test_valuation():
    assert S(Z * ZB, 7).valuation() == 2
    assert S(Poly.const(0), 5).valuation() == 5
    assert S(Poly.const(0)).valuation() == INF


def test_diff_drops_order():
    s = S(Z * U, 6)
    assert s.diff("z").order == 5
    assert s.diff("u").order == 4
    assert s.diff("u").poly == Z
    with pytest.raises(ValueError):
        S(Z, 2).diff("u")


def test_invert_of_unit():
    one = S(P_ONE, 4)
    assert one.invert().poly == P_ONE
    assert one.invert().order == 4

    f = S(P_ONE + Z * ZB, 6)
    g = f.invert()
    assert (f * g).poly == P_ONE
    # 1/(1+x) = 1 - x + x^2 - ...
    assert g.poly == P_ONE - Z * ZB + (Z * ZB) ** 2

    # orders that are not powers of two, and a constant term other than 1
    h = S(Poly.const(G(3, -1)) + G(0, 2) * Z + U * ZB + (Z * ZB) ** 2)
    for order in (1, 3, 7, 9):
        g = S(h.poly, order).invert()
        assert g.order == order
        assert g.poly.max_wdeg() < order
        assert h.poly.mul(g.poly, order) == P_ONE

    with pytest.raises(ZeroDivisionError):
        S(Z, 4).invert()


def test_invert_needs_order_on_exact_data():
    with pytest.raises(ValueError):
        S(P_ONE + U).invert()
    g = S(P_ONE + U, 5).invert()
    assert g.poly == P_ONE - U + U**2


def test_invert_rejects_weight_zero_pi_terms():
    # pi has weight 0, so 1 + pi is not a unit of the graded ring
    with pytest.raises(ValueError):
        S(P_ONE + PI, 4).invert()


def test_exp_log_roundtrip():
    assert S(Poly.const(0), 5).exp().poly == P_ONE

    x = Z * ZB + 2 * U + G(1, -2) * Z**3 + PI * ZB
    for n in (1, 2, 7, 10):
        e, f = S(x, n).exp(), S(-x, n).exp()
        assert e.order == n
        assert e.poly.max_wdeg() < n
        assert e.poly.mul(f.poly, n) == P_ONE
        # d log e^x = dx: the logarithmic derivative gives x back
        for var in ("z", "zb"):
            assert e.poly.diff(var).truncate(n - 1) == x.diff(var).mul(e.poly, n - 1)

    with pytest.raises(ValueError):
        S(P_ONE, 4).exp()
    with pytest.raises(ValueError):
        S(U).exp()  # exact data: no working order


def test_exp_rejects_weight_zero_pi_terms():
    # e^pi is not a polynomial in pi; a truncated Taylor sum in pi would be wrong
    with pytest.raises(ValueError):
        GradedSeries(PI, 3).exp()


def test_exp_matches_taylor_sum_on_the_graded_conformal_factor():
    order = 16
    x = Z * ZB + G("1/4") * U * U + G("1/8") * (Z * Z * ZB + Z * ZB * ZB)
    taylor, term = P_ONE, P_ONE
    for k in range(1, order):
        term = term.mul(x, order) * G(Fraction(1, k))
        taylor = taylor + term
    e = GradedSeries(x, order).exp()
    assert e.order == order
    assert e.poly == taylor


def test_scalar_mixing():
    s = S(Z, 4)
    assert (2 * s).poly == 2 * Z
    assert (s + 1).poly == P_ONE + Z
    assert (G(0, 1) * s).poly == G(0, 1) * Z


coeff = st.integers(-3, 3)
expvec = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))


@st.composite
def small_polys(draw):
    n = draw(st.integers(1, 4))
    p = Poly.const(0)
    for _ in range(n):
        c = draw(coeff)
        a, b, cu = draw(expvec)
        p = p + c * Z**a * ZB**b * U**cu
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), st.integers(1, 8), st.integers(1, 8))
def test_truncation_soundness(f, g, kf, kg):
    """Every monomial reported below the claimed order matches the true product."""
    prod = GradedSeries(f, kf) * GradedSeries(g, kg)
    true = f * g
    if prod.order == INF:
        assert prod.poly == true
        return
    n = int(prod.order)
    assert prod.poly == prod.poly.truncate(n)
    for k in range(n):
        assert prod.poly.graded_part(k) == true.graded_part(k)
