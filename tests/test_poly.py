"""Exact polynomial layer: arithmetic, grading, derivatives, conjugation."""

import pytest

from crprime.gauss import G, GaussRational
from crprime.poly import P_ONE, P_ZERO, PI, U, Z, ZB, wdeg


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


def test_pow_and_hash():
    assert Z**0 == P_ONE
    assert (Z + ZB) ** 2 == Z**2 + 2 * Z * ZB + ZB**2
    assert hash(Z * ZB) == hash(ZB * Z)
    assert len({Z + U, U + Z, Z}) == 2


def test_coercion():
    assert Z + 1 == P_ONE + Z
    assert 2 * Z == Z + Z
    assert Z * GaussRational(0) == P_ZERO
