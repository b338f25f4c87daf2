"""Closed-form scalar layer, checked against hand-computed Heisenberg facts.

Frame conventions used throughout: zeta = z*zb - i*u, s = rho^2, s^2 = zeta*zetab,
Z1 = d/dz + i*zb*d/du and its conjugate.
"""

import random

from crprime.expr import (
    RX_ONE,
    RX_S,
    SIGMA,
    ZETA,
    ZETAB,
    Atom,
    LogExpr,
    RatExpr,
    log_atom,
)
from crprime.gauss import G
from crprime.poly import U, Z, ZB
from crprime.structure import im_scalar, re_scalar
from helpers import log_eval, random_probe


def Z1(f):
    return f.diff("z") + G(0, 1) * RatExpr(na=ZB) * f.diff("u")


def Z1b(f):
    return f.diff("zb") - G(0, 1) * RatExpr(na=Z) * f.diff("u")


def test_sigma_factorizes():
    assert ZETA * ZETAB == SIGMA
    assert ZETA.conj() == ZETAB


def test_rat_arithmetic():
    zeta = RatExpr(ZETA)
    a = RX_ONE / zeta
    assert a * zeta == RX_ONE
    assert (a + a) * zeta == 2 * RX_ONE
    assert (RX_ONE / (zeta * zeta)) * zeta == a


def test_s_squared_reduces():
    assert RX_S * RX_S == RatExpr(SIGMA)
    inv_s = RX_ONE / RX_S
    assert inv_s * RX_S == RX_ONE
    # 1/s = s / (zeta zetab)
    assert inv_s == RX_S / RatExpr(SIGMA)


def test_s_derivative():
    # d_z s = z zb^2 / s
    ds = RX_S.diff("z")
    assert ds * RX_S == RatExpr(Z * ZB**2)


def test_z1_log_s():
    # Z1 log s = zb / zeta
    dls = Z1(log_atom("log_s"))
    want = LogExpr.from_rat(RatExpr(ZB) / RatExpr(ZETA))
    assert (dls - want).is_zero()


def test_z1_log_rho4():
    log_rho4 = 2 * log_atom("log_s")
    d = Z1(log_rho4)
    assert d == LogExpr.from_rat(2 * RatExpr(ZB) / RatExpr(ZETA))
    d2 = Z1(Z1(log_rho4))
    assert d2 == LogExpr.from_rat(-4 * RatExpr(ZB * ZB) / RatExpr(ZETA * ZETA))


def test_flat_sublaplacian_of_log_rho():
    log_rho = G("1/2") * log_atom("log_s")
    lap = Z1(Z1b(log_rho)) + Z1b(Z1(log_rho))
    # expected z zb / s^2
    want = LogExpr.from_rat(RatExpr(Z * ZB) / RatExpr(SIGMA))
    assert lap == want


def test_harmonic_inverse_s():
    f = LogExpr.from_rat(RX_ONE / RX_S)
    lap = Z1(Z1b(f)) + Z1b(Z1(f))
    assert lap.is_zero()


def test_log_zeta_kernel_pieces():
    lz = log_atom("log_zeta")
    assert Z1b(lz).is_zero()  # zeta is CR-holomorphic
    w = re_scalar(lz)
    assert Z1(Z1(Z1b(w))).is_zero()
    assert im_scalar(lz + lz.conj()).is_zero()


def test_conj_symmetry():
    x = log_atom("log_zeta") * RatExpr(Z) + log_atom("log_s") * RatExpr(U)
    assert x.conj().conj() == x
    y = re_scalar(x)
    assert y.conj() == y


def test_exp_of_log_combination():
    # exp(2 log s - log zeta) = s^2 / zeta = zetab
    e = (2 * log_atom("log_s") - log_atom("log_zeta")).exp()
    assert e == RatExpr(ZETAB)


def test_dilation_homogeneity():
    t = G("3/7")
    f = RX_ONE / RatExpr(SIGMA)  # Sigma = rho^4 has weight 4
    assert f.dilate(t) == f * (t.inverse() ** 4)
    g = RatExpr(ZB) / RatExpr(ZETA)  # weight -1
    assert g.dilate(t) == g * t.inverse()
    assert RX_S.dilate(t) == RX_S * t * t


def test_eval_probes_agree_with_structure():
    rng = random.Random(7)
    x = log_atom("log_zeta") * RatExpr(Z + U) + RatExpr(ZB) / RatExpr(ZETA)
    y = x + x - x
    hits = 0
    while hits < 20:
        point, s_val, atoms = random_probe(rng)
        try:
            lhs = log_eval(x, point, s_val, atoms)
            rhs = log_eval(y, point, s_val, atoms)
        except ZeroDivisionError:
            continue
        assert lhs == rhs
        hits += 1


def test_eval_respects_conj():
    rng = random.Random(11)
    x = log_atom("log_zeta") * RatExpr(Z) + log_atom("log_s") * RatExpr(U)
    for _ in range(10):
        point, s_val, atoms = random_probe(rng)
        try:
            v = log_eval(x, point, s_val, atoms)
            w = log_eval(x.conj(), point, s_val, atoms)
        except ZeroDivisionError:
            continue
        assert w == v.conj()


def test_diff_commutes_on_probe():
    # d_z d_u == d_u d_z through the quotient rule and the s-rule
    f = (RX_ONE + RX_S) / RatExpr(ZETA)
    a = f.diff("z").diff("u")
    b = f.diff("u").diff("z")
    assert (a - b).is_zero()


def test_probe_point_consistency():
    rng = random.Random(3)
    for _ in range(25):
        point, s_val, _ = random_probe(rng)
        assert point["zb"] == point["z"].conj()
        assert s_val * s_val == SIGMA.eval(point)


def test_registry_guards():
    assert Atom.get("log_s").conj_name == "log_s"
    assert Atom.get("log_zeta").conj_name == "log_zetab"
    try:
        Atom.register("log_s", RX_ONE, "log_s")
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_dlog_is_cached_per_atom_and_var():
    from crprime import heisenberg, sphere

    heisenberg._battery_cases()
    sphere.chart_upsilon()  # register the engine's other atoms too
    for atom in list(Atom.registry.values()):
        for var in ("z", "zb", "u"):
            first = atom.dlog(var)
            assert first == atom.arg.diff(var) / atom.arg
            assert atom.dlog(var) is first
