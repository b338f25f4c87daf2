"""Closed-form scalar layer, checked against hand-computed Heisenberg facts.

Frame conventions used throughout: zeta = z*zb - i*u, s = rho^2, s^2 = zeta*zetab,
Z1 = d/dz + i*zb*d/du and its conjugate.
"""

import random

from crprime import heisenberg, sphere
from crprime.expr import (
    LOG_2PI,
    LOG_S,
    LOG_ZETA,
    LOG_ZETAB,
    RX_ONE,
    RX_S,
    SIGMA,
    ZETA,
    ZETAB,
    LogExpr,
    RatExpr,
    euler,
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
    dls = Z1(LOG_S)
    want = LogExpr.from_rat(RatExpr(ZB) / RatExpr(ZETA))
    assert (dls - want).is_zero()


def test_z1_log_rho4():
    log_rho4 = 2 * LOG_S
    d = Z1(log_rho4)
    assert d == LogExpr.from_rat(2 * RatExpr(ZB) / RatExpr(ZETA))
    d2 = Z1(Z1(log_rho4))
    assert d2 == LogExpr.from_rat(-4 * RatExpr(ZB * ZB) / RatExpr(ZETA * ZETA))


def test_flat_sublaplacian_of_log_rho():
    log_rho = G("1/2") * LOG_S
    lap = Z1(Z1b(log_rho)) + Z1b(Z1(log_rho))
    # expected z zb / s^2
    want = LogExpr.from_rat(RatExpr(Z * ZB) / RatExpr(SIGMA))
    assert lap == want


def test_harmonic_inverse_s():
    f = LogExpr.from_rat(RX_ONE / RX_S)
    lap = Z1(Z1b(f)) + Z1b(Z1(f))
    assert lap.is_zero()


def test_log_zeta_kernel_pieces():
    lz = LOG_ZETA
    assert Z1b(lz).is_zero()  # zeta is CR-holomorphic
    w = re_scalar(lz)
    assert Z1(Z1(Z1b(w))).is_zero()
    assert im_scalar(lz + lz.conj()).is_zero()


def test_conj_symmetry():
    x = LOG_ZETA * RatExpr(Z) + LOG_S * RatExpr(U)
    assert x.conj().conj() == x
    y = re_scalar(x)
    assert y.conj() == y


def test_exp_of_log_combination():
    # exp(2 log s - log zeta) = s^2 / zeta = zetab
    e = (2 * LOG_S - LOG_ZETA).exp()
    assert e == RatExpr(ZETAB)


def test_dilation_homogeneity():
    # the Euler operator multiplies a homogeneous expression by its weight
    f = RX_ONE / RatExpr(SIGMA)  # Sigma = rho^4 has weight 4
    assert euler(f) == -4 * f
    g = RatExpr(ZB) / RatExpr(ZETA)  # weight -1
    assert euler(g) == -g
    assert euler(RX_S) == 2 * RX_S


def test_eval_probes_agree_with_structure():
    rng = random.Random(7)
    x = LOG_ZETA * RatExpr(Z + U) + RatExpr(ZB) / RatExpr(ZETA)
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
    x = LOG_ZETA * RatExpr(Z) + LOG_S * RatExpr(U)
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


def _atom(log):
    (((atom, _),),) = log.terms
    return atom


# every atom the engine builds, one LogExpr each
ENGINE_LOGS = (
    LOG_S,
    LOG_ZETA,
    LOG_ZETAB,
    LOG_2PI,
    heisenberg.LOG_ONE_PLUS_ZZB,
    heisenberg.LOG_ONE_PLUS_USQ,
    heisenberg.LOG_TWO_PLUS_RE_Z,
    sphere.chart_upsilon(),
)


def test_atoms_pair_with_their_conjugates_and_print_apart():
    zeta, zetab = _atom(LOG_ZETA), _atom(LOG_ZETAB)
    assert zeta.conj is zetab and zetab.conj is zeta
    for log in (LOG_S, LOG_2PI):
        assert _atom(log).conj is _atom(log)
    assert LOG_ZETA.conj() == LOG_ZETAB
    # atoms compare by identity and sort by name: two with one name would
    # print alike and have no fixed order in a key
    names = [_atom(log).name for log in ENGINE_LOGS]
    assert len(set(names)) == len(names)
    assert sphere.chart_upsilon() is sphere.chart_upsilon()


def test_dlog_is_cached_per_atom_and_var():
    for atom in map(_atom, ENGINE_LOGS):
        for var in ("z", "zb", "u"):
            first = atom.dlog(var)
            assert first == atom.arg.diff(var) / atom.arg
            assert atom.dlog(var) is first
