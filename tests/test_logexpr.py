"""Closed-form scalar layer, checked against hand-computed Heisenberg facts.

Frame conventions used throughout: zeta = z*zb - i*u, s = rho^2, s^2 = zeta*zetab,
Z1 = d/dz + i*zb*d/du and its conjugate.
"""

import random

import pytest

from crprime import heisenberg, sphere
from crprime.expr import (
    LOG_2PI,
    LOG_S,
    LOG_ZETA,
    LOG_ZETAB,
    RX_ONE,
    RX_S,
    RX_ZERO,
    SIGMA,
    ZETA,
    ZETAB,
    LogExpr,
    RatExpr,
    euler,
)
from crprime.gauss import G
from crprime.poly import P_ONE, P_ZERO, U, Z, ZB, Poly
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


def _layout(x):
    """What repr and every later operation read: both numerators and the factor order."""
    return x.na, x.nb, list(x.den.items())


def test_constant_operands_give_the_general_result_without_trial_division(monkeypatch):
    zeta = RatExpr(ZETA)
    # the recorded q2_term.paneitz_log_green_sq: a rebuild reverses its two factors
    psq = heisenberg.flat_q2_terms()[1].as_rat()
    values = [psq, RX_ONE / (zeta * RatExpr(P_ONE + U * U)), RX_S / zeta, zeta]
    # zeta divides both numerators, so the constructor cancels it
    assert ZETA not in RatExpr(ZETA * Z, ZETA * ZB, {ZETA: 1, P_ONE + U * U: 2}).den
    consts = [0, 3, G(1, -2), RX_ZERO, RatExpr(G("1/2"))]
    ops = [
        lambda x, c: x + c, lambda x, c: c + x, lambda x, c: x - c, lambda x, c: c - x,
        lambda x, c: x * c, lambda x, c: c * x,
    ]

    calls = []
    divide = Poly.divide_exact
    monkeypatch.setattr(Poly, "divide_exact", lambda a, b: calls.append(a) or divide(a, b))
    fast = [[op(x, c) for op in ops for c in consts] for x in values]
    assert calls == []

    # the general path: no operand counts as a constant
    monkeypatch.setattr(RatExpr, "is_const", lambda self: False)
    general = [[op(x, c) for op in ops for c in consts] for x in values]
    for row_fast, row_general in zip(fast, general):
        assert [_layout(r) for r in row_fast] == [_layout(r) for r in row_general]
        assert [repr(r) for r in row_fast] == [repr(r) for r in row_general]


# monic factors; z + i zb conjugates to zb - i z, which is not monic
_FACTORS = [ZETA, ZETAB, P_ONE + U * U, P_ONE + Z * ZB, 2 * P_ONE + Z + ZB, Z + G(0, 1) * ZB]


def _small_poly(rng):
    return sum(G(rng.randint(-2, 2), rng.randint(-1, 1)) * Z ** rng.randint(0, 2)
               * ZB ** rng.randint(0, 1) * U ** rng.randint(0, 1) for _ in range(2))


def _assert_reduced(x):
    for f, e in x.den.items():
        assert e > 0 and not f.is_const() and f != SIGMA and f.monic()[0] == f, x
        assert x.na.divide_exact(f) is None or x.nb.divide_exact(f) is None, (f, x)


def test_every_value_is_reduced():
    """Constructed with a planted common factor, or computed by any operation,
    a RatExpr has no denominator factor dividing both numerators."""
    for seed in range(3):
        rng = random.Random(seed)
        pool = [RX_ZERO, RX_ONE, RX_S, RatExpr(3)]
        for _ in range(8):
            f = rng.choice(_FACTORS)
            if rng.random() < 0.3:
                # f divides d(na) for a var f does not depend on: diff must cancel it
                x = RatExpr(f * _small_poly(rng) + rng.randint(1, 3), P_ZERO, {f: 1})
            else:
                den = {g: rng.randint(1, 2) for g in rng.sample(_FACTORS, 2)}
                den[f] = den.get(f, 0) + 1
                if rng.random() < 0.5:
                    den[SIGMA] = 1  # raw: split into zeta * zetab
                nb = f * _small_poly(rng) if rng.random() < 0.7 else P_ZERO
                x = RatExpr(f * _small_poly(rng), nb, den)
            for y in (x, x.diff("z"), x.diff("zb"), x.diff("u")):
                _assert_reduced(y)
            pool.append(x)
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            op = rng.choice(["+", "-", "*", "/", "conj", "diff", "invert", "x+y-y", "x*y/y"])
            if op in ("/", "x*y/y", "invert") and (x if op == "invert" else y).is_zero():
                continue
            out = {
                "+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y, "/": lambda: x / y,
                "conj": x.conj, "diff": lambda: x.diff(rng.choice(["z", "zb", "u"])),
                "invert": x.invert,
                # y's factors must cancel again
                "x+y-y": lambda: x + y - y, "x*y/y": lambda: x * y / y,
            }[op]()
            _assert_reduced(out)
            if sum(out.den.values()) <= 6 and len(out.na.terms) + len(out.nb.terms) <= 12:
                pool.append(out)


def test_constructor_checks_a_raw_denominator():
    with pytest.raises(ValueError):
        RatExpr(Z, P_ZERO, {ZETA: -1})
    with pytest.raises(ZeroDivisionError):
        RatExpr(Z, P_ZERO, {P_ZERO: 1})
    # constants, and the leading coefficient of a factor, go into the numerators
    x = RatExpr(Z, U, {2 * P_ONE: 1, G(0, 3) * ZETA: 1, P_ONE + U * U: 0})
    assert _layout(x) == (Z * G(0, "-1/6"), U * G(0, "-1/6"), [(ZETA, 1)])
    # Sigma is stored split, zetab first
    assert list(RatExpr(Z, P_ZERO, {SIGMA: 1}).den.items()) == [(ZETAB, 1), (ZETA, 1)]


def _diff_by_terms(x, var):
    """d x / d var as a sum of separately built terms: the quotient rule on
    each factor, and d s = (d Sigma / 2) s / Sigma."""
    out = RatExpr(x.na.diff(var), x.nb.diff(var), x.den)
    out += RatExpr(P_ZERO, x.nb * SIGMA.diff(var) * G("1/2"), {**x.den, SIGMA: 1})
    for f, e in x.den.items():
        out -= e * RatExpr(x.na * f.diff(var), x.nb * f.diff(var), {**x.den, f: x.den[f] + 1})
    return out


def test_diff_equals_the_sum_of_its_terms():
    zeta, usq = RatExpr(ZETA), RatExpr(P_ONE + U * U)
    values = [
        RX_ONE / zeta, RX_S / zeta, (RX_ONE + RX_S) / (zeta * zeta * usq),
        # zeta in den and nb != 0: zeta gains one power, not two
        RX_S / (zeta * RatExpr(ZETAB)), RatExpr(Z, ZB, {ZETA: 2, P_ONE + Z * ZB: 1}),
        # 1 + u^2 does not depend on z or zb, and divides the z-derivative of na
        RatExpr((P_ONE + U * U) * Z * Z + 1, P_ZERO, {P_ONE + U * U: 1}),
        heisenberg.flat_q2_terms()[1].as_rat(),
    ]
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(10):
            den = {g: rng.randint(1, 2) for g in rng.sample(_FACTORS, rng.randint(0, 3))}
            nb = _small_poly(rng) if rng.random() < 0.6 else P_ZERO
            values.append(RatExpr(_small_poly(rng), nb, den))
    for x in values:
        for var in ("z", "zb", "u"):
            got = x.diff(var)
            _assert_reduced(got)
            assert got == _diff_by_terms(x, var), (x, var)


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
