"""Exact verification on the flat model (the Heisenberg group).

Everything here is an identity in the rational-function field extended by
log atoms; "away from the pole" means exactly that, never a pointwise limit.
The model carries the Green's function G = 1/(2 pi s) of the CR Laplacian,
with s = rho^2 the square of the Heisenberg norm, zeta = z zb - i u, and
s^2 = zeta zetab.
"""

from __future__ import annotations

from functools import lru_cache

from .expr import (
    LOG_2PI,
    LOG_S,
    LOG_ZETA,
    RX_ONE,
    RX_S,
    ZETA,
    LogExpr,
    RatExpr,
    euler,
    log_atom,
)
from .forms import one_form
from .gauss import GR_I, Frozen, G as GQ
from .poly import P_ONE, PI, U, Z, ZB, Poly
from .report import VerificationReport, check_true, check_zero, recorded, residual_repr
from .series import GradedSeries
from .structure import (
    HALF,
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
    re_scalar,
    solve_structure,
    sublaplacian,
    torsion_transform,
)

class FlatModel(Frozen):
    """The solved flat structure plus its Green's-function scalars."""

    __slots__ = ("structure", "green", "log_green", "log_rho")

    def __init__(self):
        theta = one_form(
            cz=RatExpr(Poly.const(GR_I * GQ("-1/2")) * ZB),
            czb=RatExpr(Poly.const(GR_I * GQ("1/2")) * Z),
            cu=RatExpr(HALF),
        )
        object.__setattr__(self, "structure", solve_structure(theta))
        object.__setattr__(self, "green", RX_ONE / (RatExpr(2 * PI) * RX_S))
        object.__setattr__(self, "log_green", -LOG_2PI - LOG_S)
        object.__setattr__(self, "log_rho", HALF * LOG_S)


@lru_cache(maxsize=1)
def flat_model() -> FlatModel:
    return FlatModel()


@lru_cache(maxsize=1)
def flat_q2_terms():
    """P'(log G), P((log G)^2), P(log G) and P3(log G) on the flat model.

    The terms of the flat Q'-transformation identity, computed once: the
    Szego candidate, the identity and the suite's Q2 block all read them.
    """
    fm = flat_model()
    st, lg = fm.structure, fm.log_green
    return p_prime(st, lg), paneitz(st, lg * lg), paneitz(st, lg), p3_operator(st, lg)


def flat_series_structure(order: int):
    """The flat structure with graded-series scalars, for graded-mode tests."""
    theta = flat_model().structure.theta
    lifted = (GradedSeries(c.as_poly(), order) for c in theta.comps)
    return solve_structure(one_form(*lifted))


# -- named verification operations -------------------------------------------


def green_harmonicity() -> VerificationReport:
    fm = flat_model()
    resid = cr_laplacian(fm.structure, fm.green)
    return check_zero(
        "heisenberg.green_harmonicity",
        resid,
        "reference",
        "CR Laplacian annihilates 1/(2 pi s) away from the pole",
    )


def p3_log_rho() -> VerificationReport:
    fm = flat_model()
    resid = p3_operator(fm.structure, fm.log_rho)
    return check_zero(
        "heisenberg.p3_log_rho",
        resid,
        "reference",
        "third-order pluriharmonic operator annihilates log rho on the flat model",
    )


def q3_identity(wrong_power: bool = False) -> VerificationReport:
    """(log G)_{,11} - 2((log G)_{,1})^2 = 0 for G = 1/(2 pi s).

    With wrong_power the Green's function is replaced by 1/(2 pi s^2); the
    identity then fails, which is the intended negative control.
    """
    fm = flat_model()
    st = fm.structure
    base = fm.log_green if not wrong_power else -LOG_2PI - 2 * LOG_S
    d1 = covariant_derivative(st, base, "1")
    d2 = covariant_derivative(st, base, "11")
    resid = d2 - 2 * (d1 * d1)
    return check_zero(
        "heisenberg.q3_identity",
        resid,
        "reference",
        "log of the Green's function solves the second-order pluriharmonicity equation",
        detail="wrong-power control" if wrong_power else "",
    )


def flat_torsion_of_hat() -> VerificationReport:
    """Torsion of theta-hat = G^2 theta through the transformation law: exactly 0."""
    fm = flat_model()
    ups = 2 * fm.log_green
    pred = torsion_transform(fm.structure, ups)
    return check_zero(
        "heisenberg.flat_torsion_of_hat",
        pred,
        "reference",
        "transformation law gives vanishing torsion for the Green-rescaled flat form",
    )


def szego_candidate() -> RatExpr:
    """P'(log G) in closed form; the projection-kernel candidate up to 8 pi^2."""
    r = flat_q2_terms()[0].as_rat()
    if r is None:
        raise RuntimeError("P'(log G) did not collapse to a rational expression")
    return r


def flat_q2_identity() -> VerificationReport:
    """Flat specialization of the Q'-transformation identity for theta-hat = G^2 theta.

    The left side is -4 G^4 |A-hat|^2 = 0, so the right side must vanish;
    with Q' = 0 and P3(log G) = 0 this forces P'(log G) + P((log G)^2) = 0.
    """
    fm = flat_model()
    st = fm.structure
    lg = fm.log_green
    ppr, psq, pu, p3u = flat_q2_terms()
    rhs = (
        q_prime(st)
        + 2 * ppr
        + 2 * psq
        - 4 * (lg * pu)
        - 64 * re_scalar((st.ginv * covariant_derivative(st, lg, "1b")) * p3u)
    )
    return check_zero(
        "heisenberg.flat_q2_identity",
        rhs,
        "reference",
        "Q'-transformation right side vanishes for the Green-rescaled flat form",
    )


# -- suites -------------------------------------------------------------------


def heisenberg_suite(wrong_power: bool = False) -> list:
    """The flat-model checks; wrong_power runs q3_identity's negative control."""
    fm = flat_model()
    st = fm.structure
    out = [
        green_harmonicity(),
        p3_log_rho(),
        q3_identity(wrong_power),
        flat_torsion_of_hat(),
        flat_q2_identity(),
    ]

    # solved flat structure is trivial
    for name, val in (("g_minus_1", st.g - 1), ("torsion", st.A), ("curvature", st.R)):
        out.append(
            check_zero(
                f"heisenberg.flat_structure.{name}",
                val,
                "trivial",
                "flat model solves to g = 1, A = 0, R = 0",
            )
        )

    out.append(
        check_zero(
            "heisenberg.green_normalization",
            fm.green * (RatExpr(2 * PI) * RX_S) - 1,
            "trivial",
            "G times 2 pi s is exactly 1",
        )
    )
    out.append(
        check_zero(
            "heisenberg.cr_laplacian_constant",
            cr_laplacian(st, RX_ONE),
            "trivial",
            "constants are harmonic on the flat model",
        )
    )

    # negative control: log s is not annihilated by the CR Laplacian
    bad = cr_laplacian(st, LOG_S)
    bad_rat = bad.as_rat()
    want = RatExpr(-8 * Z * ZB) / RatExpr(ZETA * ZETA.conj())
    out.append(
        check_true(
            "heisenberg.log_not_harmonic",
            bad_rat is not None and not bad_rat.is_zero() and (bad_rat - want).is_zero(),
            residual_repr(bad_rat),
            "derived",
            "CR Laplacian of log s is -8 z zb / s^4, nonzero off the pole",
        )
    )

    # second-derivative identity in the log-rho^4 form
    lr4 = 2 * LOG_S
    d1 = covariant_derivative(st, lr4, "1")
    d2 = covariant_derivative(st, lr4, "11")
    out.append(
        check_zero(
            "heisenberg.q3_identity_rho4",
            d2 + d1 * d1,
            "reference",
            "second z-derivative of log rho^4 equals minus the square of the first",
        )
    )

    # pluriharmonic battery for the third-order operator
    zeta_rx = RatExpr(ZETA)
    battery = [
        ("one", LogExpr.from_rat(RX_ONE)),
        ("re_zeta", LogExpr.from_rat(re_scalar(zeta_rx))),
        ("im_zeta", LogExpr.from_rat(im_scalar(zeta_rx))),
        ("re_zeta_sq", LogExpr.from_rat(re_scalar(zeta_rx * zeta_rx))),
        ("re_log_zeta", re_scalar(LOG_ZETA)),
        ("u", LogExpr.from_rat(RatExpr(U))),
    ]
    for name, f in battery:
        out.append(
            check_zero(
                f"heisenberg.p3_kernel.{name}",
                p3_operator(st, f),
                "reference" if name in ("re_log_zeta", "one") else "derived",
                "third-order operator annihilates the pluriharmonic battery",
            )
        )
    out.append(
        recorded(
            "heisenberg.p3_im_log_zeta",
            residual_repr(p3_operator(st, im_scalar(LOG_ZETA))),
            "derived",
            "third-order operator applied to the log argument; engine value recorded",
        )
    )

    # sublaplacian oracle: log rho -> z zb / s^2 = (zeta + zetab)/(2 zeta zetab)
    lap = sublaplacian(st, fm.log_rho)
    want_lap = LogExpr.from_rat(RatExpr(Z * ZB) / RatExpr(ZETA * ZETA.conj()))
    out.append(
        check_zero(
            "heisenberg.sublaplacian_log_rho",
            lap - want_lap,
            "derived",
            "sublaplacian of log rho equals |z|^2 / rho^4",
        )
    )

    # Szego kernel candidate block
    cand = szego_candidate()
    want = 16 * re_scalar(zeta_rx.invert() * zeta_rx.invert())
    out.append(
        check_zero(
            "heisenberg.szego_closed_form",
            cand - want,
            "derived",
            "P' of log G equals 16 Re(zeta^-2)",
        )
    )
    out.append(
        check_zero(
            "heisenberg.szego_pluriharmonic",
            p3_operator(st, LogExpr.from_rat(cand)),
            "derived",
            "kernel candidate is annihilated by the third-order operator off the pole",
        )
    )
    out.append(
        check_zero(
            "heisenberg.szego_real",
            cand - cand.conj(),
            "derived",
            "kernel candidate is a real expression",
        )
    )
    out.append(
        check_zero(
            "heisenberg.szego_homogeneity",
            euler(cand) + 4 * cand,
            "derived",
            "kernel candidate is homogeneous of weight -4 under parabolic dilation",
        )
    )
    out.append(
        recorded(
            "heisenberg.szego_normalization",
            "(2/pi^2) Re(zeta^-2)",
            "derived",
            "candidate divided by 8 pi^2; normalization not assertable from the source development",
        )
    )

    # flat Q2 decomposition terms, individually recorded, then recombined
    ppr, psq, pu, p3u = flat_q2_terms()
    out.append(
        check_zero(
            "heisenberg.q2_p3_term",
            p3u,
            "reference",
            "third-order operator kills log G, so the gradient pairing term vanishes",
        )
    )
    out.append(
        check_zero(
            "heisenberg.q2_paneitz_log_green",
            pu,
            "derived",
            "Paneitz operator kills log G on the flat model",
        )
    )
    out.append(
        check_zero(
            "heisenberg.q2_closure",
            ppr + psq,
            "derived",
            "P'(log G) cancels against P((log G)^2) exactly",
        )
    )
    for nm, val in (("p_prime_log_green", ppr), ("paneitz_log_green_sq", psq)):
        out.append(
            recorded(
                f"heisenberg.q2_term.{nm}",
                residual_repr(val.as_rat()),
                "derived",
                "closed form of a Q2 decomposition term",
            )
        )

    # hatted equality case via full re-solve
    hat = conformal_change(st, 2 * fm.log_green)
    out.append(
        check_zero(
            "heisenberg.hat_torsion_resolve",
            hat.A,
            "reference",
            "re-solved Green-rescaled structure has vanishing torsion",
        )
    )
    out.append(
        check_zero(
            "heisenberg.hat_curvature_resolve",
            hat.R,
            "reference",
            "re-solved Green-rescaled structure has vanishing curvature off the pole",
        )
    )
    out.append(
        check_zero(
            "heisenberg.hat_qprime",
            q_prime(hat),
            "reference",
            "Q' of the Green-rescaled flat structure vanishes (equality case)",
        )
    )
    out.append(
        check_zero(
            "heisenberg.pseudo_einstein_flat",
            pseudo_einstein_tensor(st),
            "trivial",
            "flat model is pseudo-Einstein",
        )
    )
    return out


# conformal factors of the battery; every argument is real
LOG_ONE_PLUS_ZZB = log_atom("log_one_plus_zzb", RatExpr(P_ONE + Z * ZB))
LOG_ONE_PLUS_USQ = log_atom("log_one_plus_usq", RatExpr(P_ONE + U * U))
LOG_TWO_PLUS_RE_Z = log_atom("log_two_plus_re_z", RatExpr(2 * P_ONE + Z + ZB))


def _battery_cases():
    fm = flat_model()
    return [
        ("1+zzb", LOG_ONE_PLUS_ZZB),
        ("1+u^2", LOG_ONE_PLUS_USQ),
        ("2+z+zb", LOG_TWO_PLUS_RE_Z),
        ("(1+zzb)^2", 2 * LOG_ONE_PLUS_ZZB),
        ("(1+zzb)(1+u^2)", LOG_ONE_PLUS_ZZB + LOG_ONE_PLUS_USQ),
        ("green^2", 2 * fm.log_green),
    ]


def dual_path(st, ups):
    """Torsion and Q' of theta_hat = e^Upsilon theta, re-solved minus law, in st's mode."""
    hat = conformal_change(st, ups)
    d_tor = hat.A - torsion_transform(st, ups)
    f = ups.exp()
    d_q = (f * f) * q_prime(hat) - qprime_conformal_rhs(st, ups)
    return d_tor, d_q


def conformal_battery() -> list:
    """Dual-path conformal checks on the flat model, in exact mode.

    The graded-mode counterpart is graded_conformal_check; the CLI runs both.
    """
    st = flat_model().structure
    out = []
    for name, ups in _battery_cases():
        d_tor, d_q = dual_path(st, ups)
        out.append(
            check_zero(
                f"conformal.torsion[{name}]",
                d_tor,
                "derived",
                "torsion law agrees with the re-solved structure",
            )
        )
        out.append(
            check_zero(
                f"conformal.qprime[{name}]",
                d_q,
                "derived",
                "Q' transformation law agrees with the re-solved structure",
            )
        )
    return out


# the graded Q' dual path tracks order - 5 (the torsion path order - 2), so
# reaching weight GRADED_GOAL takes a working order of at least GRADED_FLOOR
GRADED_GOAL = 8
GRADED_FLOOR = GRADED_GOAL + 5


def graded_conformal_check(order: int = 16, goal: int = GRADED_GOAL) -> list:
    """Graded-mode dual path for a polynomial conformal factor, to weight `goal`."""
    st = flat_series_structure(order)
    ups = GradedSeries(
        Z * ZB + GQ("1/4") * U * U + GQ("1/8") * (Z * Z * ZB + Z * ZB * ZB), order
    )
    d_tor, d_q = dual_path(st, ups)
    return [
        check_true(
            "conformal.graded_torsion",
            d_tor.is_zero() and d_tor.order >= goal,
            residual_repr(d_tor),
            "derived",
            f"graded torsion dual path agrees through weight {goal}",
            detail=f"tracked order {d_tor.order}",
        ),
        check_true(
            "conformal.graded_qprime",
            d_q.is_zero() and d_q.order >= goal,
            residual_repr(d_q),
            "derived",
            f"graded Q' dual path agrees through weight {goal}",
            detail=f"tracked order {d_q.order}",
        ),
    ]
