"""Structure solver and operator suite on the flat model and small perturbations."""

import pytest

from crprime.expr import LOG_2PI, LOG_S, LOG_ZETA, LOG_ZETAB, LogExpr, RX_ONE, RX_S, ZETA, RatExpr
from crprime.forms import one_form
from crprime.gauss import G
from crprime.heisenberg import LOG_ONE_PLUS_USQ, flat_model, flat_series_structure
from crprime.moser import example_data, moser_theta
from crprime.poly import PI, U, Z, ZB, Poly
from crprime.series import GradedSeries
from crprime.structure import (
    StructureError,
    _raised_divergence,
    conformal_change,
    covariant_derivative,
    cr_laplacian,
    im_scalar,
    p3_operator,
    p_prime,
    paneitz,
    pseudo_einstein_tensor,
    q_prime,
    qprime_conformal_rhs,
    solve_structure,
    sublaplacian,
    torsion_transform,
    verify_structure,
)


@pytest.fixture(scope="module")
def flat():
    return flat_model().structure


def test_flat_solve(flat):
    assert (flat.g - 1).is_zero()
    assert flat.A.is_zero()
    assert flat.R.is_zero()
    assert flat.omega.is_zero()
    # Reeb field is 2 d/du
    assert flat.T.vz.is_zero()
    assert flat.T.vzb.is_zero()
    assert (flat.T.vu - 2).is_zero()


def test_flat_frame(flat):
    # Z1 = d/dz + i zb d/du and its conjugate; the u-component flips sign
    assert (flat.Z1.vz - 1).is_zero()
    assert (flat.Z1.vu - RatExpr(Poly.const(G(0, 1)) * ZB)).is_zero()
    assert (flat.Z1b.vu - RatExpr(Poly.const(G(0, -1)) * Z)).is_zero()


def test_verify_structure_flat(flat):
    for name, val in verify_structure(flat):
        assert val.is_zero(), name


def test_constant_derivatives_vanish(flat):
    for pat in ("1", "1b", "11b", "1b11"):
        assert covariant_derivative(flat, RX_ONE, pat).is_zero()


def test_pattern_validation(flat):
    with pytest.raises(ValueError):
        covariant_derivative(flat, RX_ONE, "12")
    with pytest.raises(ValueError):
        covariant_derivative(flat, RX_ONE, "b1")
    with pytest.raises(ValueError):
        covariant_derivative(flat, RX_ONE, "11111")


def test_noncontact_rejected():
    with pytest.raises(StructureError):
        solve_structure(one_form(cu=RatExpr(1)))


def test_inadmissible_coframe_hint_rejected(flat):
    # a hint with a theta component, and dz on the Moser form: dtheta then
    # has theta ^ theta1 terms
    with pytest.raises(StructureError, match="coframe hint not admissible"):
        solve_structure(flat.theta, theta1_hint=flat.theta1 + flat.theta)
    with pytest.raises(StructureError, match="coframe hint not admissible"):
        solve_structure(moser_theta(example_data().e, 13), theta1_hint=one_form(cz=G(1)))
    # theta1 = theta leaves no coframe to take a dual frame of
    with pytest.raises(StructureError, match="not a coframe"):
        solve_structure(flat.theta, theta1_hint=flat.theta)


def test_sublaplacian_log_rho(flat):
    lr = G("1/2") * LOG_S
    want = LogExpr.from_rat(RatExpr(Z * ZB) / RatExpr(ZETA * ZETA.conj()))
    assert (sublaplacian(flat, lr) - want).is_zero()


def test_green_in_kernel(flat):
    green = RX_ONE / (RatExpr(2 * PI) * RX_S)
    assert cr_laplacian(flat, green).is_zero()


def test_p3_battery(flat):
    zeta = RatExpr(ZETA)
    half = G("1/2")
    members = [
        LogExpr.from_rat(RX_ONE),
        LogExpr.from_rat((zeta + zeta.conj()) * half),
        LogExpr.from_rat((zeta - zeta.conj()) * G(0, "-1/2")),
        LogExpr.from_rat((zeta * zeta + (zeta * zeta).conj()) * half),
        (LOG_ZETA + LOG_ZETAB) * half,
        LogExpr.from_rat(RatExpr(U)),
    ]
    for f in members:
        assert p3_operator(flat, f).is_zero()


def test_p3_u_squared(flat):
    # u^2 is not pluriharmonic: P3 gives 4 zb
    v = p3_operator(flat, LogExpr.from_rat(RatExpr(U * U)))
    assert (v - LogExpr.from_rat(RatExpr(4 * ZB))).is_zero()


def test_p_prime_log_green(flat):
    lg = -LOG_2PI - LOG_S
    want = 16 * ((RatExpr(ZETA).invert() ** 2 + RatExpr(ZETA.conj()).invert() ** 2) * G("1/2"))
    got = p_prime(flat, lg)
    assert (got - want).is_zero()


def test_q_prime_flat(flat):
    assert q_prime(flat).is_zero()


def test_paneitz_conventions_agree(flat):
    def paneitz_intro(struct, f):
        # Delta_b^2 f + T^2 f - 4 Im grad^1(A_11 f^{,1})
        lap2 = sublaplacian(struct, sublaplacian(struct, f))
        t2 = struct.T.apply(struct.T.apply(f))
        a11 = struct.g * struct.A.conj()
        inner = a11 * (struct.ginv * covariant_derivative(struct, f, "1b"))
        return lap2 + t2 - 4 * im_scalar(_raised_divergence(struct, inner))

    for f in (
        LogExpr.from_rat(RatExpr(Z * ZB * U)),
        LOG_S,
        LogExpr.from_rat(RatExpr(U**3)),
    ):
        d = paneitz_intro(flat, f) - paneitz(flat, f)
        assert d.is_zero()


def test_pseudo_einstein_flat(flat):
    assert pseudo_einstein_tensor(flat).is_zero()


def test_qprime_rhs_requires_pseudo_einstein(flat):
    ups = LOG_ONE_PLUS_USQ
    hat = conformal_change(flat, ups)
    assert not pseudo_einstein_tensor(hat).is_zero()
    with pytest.raises(StructureError):
        qprime_conformal_rhs(hat, ups)


# -- graded curved structure --------------------------------------------------


ORDER = 12


@pytest.fixture(scope="module")
def curved():
    # e^u rescaling of the flat form; u is pluriharmonic but not CR, so the
    # result has nonzero torsion while staying pseudo-Einstein
    base = flat_series_structure(ORDER)
    ups = GradedSeries(U, ORDER)
    return base, ups, conformal_change(base, ups)


def test_curved_solve_consistent(curved):
    _, _, hat = curved
    for name, val in verify_structure(hat):
        assert val.is_zero(), name


def test_curved_torsion_dual_path(curved):
    base, ups, hat = curved
    pred = torsion_transform(base, ups)
    d = hat.A - pred
    assert d.is_zero() and d.order >= ORDER - 4
    # A_11-hat = i zb^2 e^{-u}; raising conjugates, so A^1_{1b} leads with -i z^2
    assert hat.A.poly.graded_part(2) == Poly.const(G(0, -1)) * Z * Z


def test_curved_scalars_real(curved):
    _, _, hat = curved
    assert (hat.R - hat.R.conj()).is_zero()
    qp = q_prime(hat)
    assert (qp - qp.conj()).is_zero()


def test_curved_pseudo_einstein(curved):
    _, _, hat = curved
    pe = pseudo_einstein_tensor(hat)
    assert pe.is_zero() and pe.order >= ORDER - 6
