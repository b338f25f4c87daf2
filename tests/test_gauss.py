from fractions import Fraction

import pytest

from crprime.expr import LOG_S, LOG_ZETA, RX_S, Atom, RatExpr
from crprime.forms import VectorField, one_form
from crprime.gauss import G, GR_I, GR_ONE, GR_ZERO
from crprime.heisenberg import flat_model
from crprime.poly import P_ONE, U, Z, ZB, Poly
from crprime.series import GradedSeries


def test_construct_and_repr():
    a = G(3, 2)
    assert a.re == Fraction(3) and a.im == Fraction(2)
    b = G("3/4", "-1/2")
    assert b.re == Fraction(3, 4) and b.im == Fraction(-1, 2)


def test_field_ops():
    a = G(3, 2)
    b = G(1, -1)
    assert a + b == G(4, 1)
    assert a - b == G(2, 3)
    assert a * b == G(5, -1)  # (3+2i)(1-i) = 3 - 3i + 2i + 2 = 5 - i
    assert (a / b) * b == a
    assert a * a.invert() == GR_ONE


def test_division_exact():
    q = G(1, 1) / G(0, 2)
    assert q == G("1/2", "-1/2")
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_conj_and_i():
    assert GR_I * GR_I == G(-1)
    assert G(2, 5).conj() == G(2, -5)
    a = G("7/3", "-2/9")
    assert (a * a.conj()).is_real()


def test_int_mixing():
    assert 2 + G(1, 1) == G(3, 1)
    assert G(1, 1) * 3 == G(3, 3)
    assert 1 - G(0, 1) == G(1, -1)


def test_zero_and_bool():
    assert GR_ZERO.is_zero()
    assert not GR_ZERO
    assert G(0, 1)
    assert not G(1).is_zero()


def test_hash_compatible_with_rationals():
    assert hash(G(5)) == hash(5)
    assert hash(G(1, 2)) != hash(G(1, -2))
    d = {G(1, 0): "a"}
    assert d[G(1)] == "a"


def test_complex_conversion():
    assert complex(G("1/2", "1/4")) == 0.5 + 0.25j


def test_immutable():
    a = G(1, 1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_field_axioms_sampled():
    vals = [G(0), G(1), G(-2, 3), G("1/2", "-5"), G(0, "7/11"), G(4, 4)]
    for a in vals:
        for b in vals:
            assert a + b == b + a
            assert a * b == b * a
            for c in vals:
                assert (a + b) * c == a * c + b * c
            if not b.is_zero():
                assert (a / b) * b == a


# two values of each exact scalar kind: a RatExpr with a denominator and an
# s-part, a LogExpr with atoms, a GradedSeries at finite order
_KINDS = {
    "GaussRational": (G(3, 2), G("1/2", -5)),
    "Poly": (1 + Z - 2 * ZB * U, Z * Z - G(0, 3) * U),
    "RatExpr": (RatExpr(1 + Z, ZB, {1 + Z * ZB: 1}), RatExpr(U, P_ONE)),
    "LogExpr": (LOG_S * RatExpr(Z) + 1, LOG_ZETA - ZB),
    "GradedSeries": (GradedSeries(1 + Z + U, 6), GradedSeries(Z * ZB - 2, 6)),
}


@pytest.mark.parametrize("kind", list(_KINDS))
def test_derived_operators_obey_their_laws(kind):
    a, b = _KINDS[kind]
    assert a - b == a + (-b)
    assert 1 - a == -(a - 1)
    assert a ** 3 == a * a * a
    assert a ** 0 == 1
    if a.__hash__ is not None:
        assert hash(a ** 0) == hash(1)
    assert not (a - a) and a
    if kind in ("GaussRational", "RatExpr"):
        assert a ** -2 * a ** 2 == 1
        assert a / b * b == a
        assert 2 / a == 2 * a.invert()
    else:
        with pytest.raises(TypeError):
            a / b
    if kind == "Poly":
        with pytest.raises(AttributeError, match="invert"):
            a ** -1


def test_frozen_classes_refuse_assignment():
    flat = flat_model()
    frame = flat.structure.frame
    frozen = [G(1), Z, RX_S, Atom("t", RX_S), LOG_S, GradedSeries(Z, 3),
              one_form(cz=RX_S), VectorField(RX_S, RX_S, RX_S), frame, flat]
    assert len({type(x) for x in frozen}) == 10
    for x in frozen:
        with pytest.raises(AttributeError, match=f"^{type(x).__name__} is immutable$"):
            x.extra = 0
