import pytest

from crprime.gauss import G, GR_I, GR_ONE, GR_ZERO, rat


def test_construct_and_repr():
    a = G(3, 2)
    assert a.re == rat(3) and a.im == rat(2)
    b = G("3/4", "-1/2")
    assert b.re == rat(3, 4) and b.im == rat(-1, 2)


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
        a.re = rat(2)


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
