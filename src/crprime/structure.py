"""Pseudohermitian structure equations and the operator suite built on them.

Given a contact form theta on a 3-manifold chart, solve_structure produces the
adapted coframe, Levi metric g, connection form omega, torsion A (the A^1_1b
component) and scalar curvature R, by reading coefficients out of

    d theta  = i g theta1 ^ theta1b
    d theta1 = theta1 ^ omega + A theta ^ theta1b
    d g      = g (omega + conj omega)
    d omega  = R g theta1 ^ theta1b   (mod theta)

The frame (T, Z1, Z1b) dual to (theta, theta1, theta1b) comes from
forms.AdaptedCoframe: T and Z1 are cross products of the coframe's
components over its one determinant, and Z1b = conj Z1 because theta is
real.  The structure keeps that frame once and reads theta, theta1, theta1b,
T, Z1 and Z1b through it; every 2-form, d omega for R included, is read off
by the frame's expansion against the coframe.

All index plumbing lives in covariant_derivative / _cov_step: a lower 1 index
picks up -omega(X), a lower 1b picks up -conj(omega)(X), upper indices the
opposite signs, and raising is always by g^{1 1b}.  The pair
(omega(X), conj(omega)(X)) for X = Z1, Z1b is evaluated once per solve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .expr import LogExpr
from .forms import (
    AdaptedCoframe,
    DifferentialForm,
    evaluate,
    exterior_d,
    form_from_scalar,
    one_form,
    reeb_field,
    wedge,
)
from .gauss import GR_I, GR_ONE, G
from .series import GradedSeries

HALF = G("1/2")


class StructureError(ValueError):
    """Degenerate or inadmissible geometric input."""


@dataclass(frozen=True)
class PseudohermitianStructure:
    frame: AdaptedCoframe
    g: object
    ginv: object
    omega: DifferentialForm
    A: object  # A^1_{1b}
    R: object
    # (omega(X), conj(omega)(X)) keyed by the token "1" or "1b" naming X
    conn: dict = field(repr=False)

    theta = property(lambda self: self.frame.theta)
    theta1 = property(lambda self: self.frame.theta1)
    theta1b = property(lambda self: self.frame.theta1b)
    T = property(lambda self: self.frame.T)
    Z1 = property(lambda self: self.frame.Z1)
    Z1b = property(lambda self: self.frame.Z1b)


def solve_structure(theta, theta1_hint=None):
    dth = exterior_d(theta)
    theta1 = theta1_hint
    if theta1 is None:
        try:
            T = reeb_field(theta, dth)
        except ZeroDivisionError as exc:
            raise StructureError("theta is not a contact form (theta ^ dtheta = 0)") from exc
        # dz minus its Reeb component; adapted since theta1(T) = 0
        theta1 = one_form(cz=GR_ONE) - T.vz * theta
    try:
        frame = AdaptedCoframe(theta, theta1)
    except ZeroDivisionError as exc:
        raise StructureError("theta, theta1 and theta1b are not a coframe") from exc

    c = frame.expand_in_coframe(dth)
    if not (c["theta^theta1"].is_zero() and c["theta^theta1b"].is_zero()):
        raise StructureError("coframe hint not admissible: dtheta has theta ^ theta1 terms")
    g = c["theta1^theta1b"] * G(0, -1)
    try:
        ginv = g.invert()
    except (ZeroDivisionError, ValueError) as exc:
        raise StructureError("Levi form degenerates at the base point") from exc

    dth1 = exterior_d(theta1)
    e = frame.expand_in_coframe(dth1)
    p, q, r = e["theta^theta1"], e["theta^theta1b"], e["theta1^theta1b"]

    w0 = -p
    w1 = ginv * frame.Z1.apply(g) - r.conj()
    w2 = r
    omega = w0 * theta + w1 * theta1 + w2 * frame.theta1b

    dom = exterior_d(omega)
    R = ginv * frame.pair_z1_z1b(dom)

    om1 = evaluate(omega, frame.Z1)
    om1b = evaluate(omega, frame.Z1b)
    # conj(omega)(X) = conj(omega(conj X))
    conn = {"1": (om1, om1b.conj()), "1b": (om1b, om1.conj())}
    return PseudohermitianStructure(
        frame=frame,
        g=g,
        ginv=ginv,
        omega=omega,
        A=q,
        R=R,
        conn=conn,
    )


def verify_structure(struct) -> list:
    """Named residuals of the four defining equations, all zero for a valid solve."""
    s = struct
    ig = s.g * GR_I
    res1 = exterior_d(s.theta) - ig * wedge(s.theta1, s.theta1b)

    res2 = (
        exterior_d(s.theta1)
        - wedge(s.theta1, s.omega)
        - s.A * wedge(s.theta, s.theta1b)
    )

    dg = exterior_d(form_from_scalar(s.g))
    res3 = dg - s.g * (s.omega + s.omega.conj())

    dom = exterior_d(s.omega)
    res4 = s.frame.pair_z1_z1b(dom) - s.R * s.g

    out = []
    for name, form in (("contact", res1), ("torsion_eq", res2), ("metric_compat", res3)):
        for key, val in s.frame.expand_in_coframe(form).items():
            out.append((f"{name}[{key}]", val))
    out.append(("curvature_mod_theta", res4))
    out.append(("g_real", s.g - s.g.conj()))
    return out


# -- covariant derivatives ---------------------------------------------------


def _tokenize(pattern: str):
    if not re.fullmatch("(1b?){1,4}", pattern):
        raise ValueError(f"bad index pattern {pattern!r}: one to four of 1 and 1b")
    return re.findall("1b?", pattern)


def _cov_step(struct, value, weights, token):
    """One covariant derivative of a tensor component.

    weights = (k, kb): upper minus lower 1 indices and upper minus lower 1b
    indices of the input component.  The result carries one more lower index.
    """
    k, kb = weights
    X = struct.Z1 if token == "1" else struct.Z1b
    om, omb = struct.conn[token]
    out = X.apply(value)
    if k and not om.is_zero():
        out = out + k * (om * value)
    if kb and not omb.is_zero():
        out = out + kb * (omb * value)
    return out, ((k - 1, kb) if token == "1" else (k, kb - 1))


def covariant_derivative(struct, f, pattern: str):
    """f_{,pattern} with pattern like "1", "1b", "1b11"; leftmost applied first."""
    value = f
    weights = (0, 0)
    for tok in _tokenize(pattern):
        value, weights = _cov_step(struct, value, weights, tok)
    return value


def _raised_divergence(struct, value):
    """g^{1 1b} * covariant 1b-derivative of a lower-1 component."""
    stepped, _ = _cov_step(struct, value, (-1, 0), "1b")
    return struct.ginv * stepped


def re_scalar(x):
    return (x + x.conj()) * HALF


def im_scalar(x):
    return (x - x.conj()) * G(0, "-1/2")


# -- operator suite ---------------------------------------------------------


def sublaplacian(struct, f):
    """Delta_b f = g^{1 1b} (f_{,1 1b} + f_{,1b 1})."""
    a = covariant_derivative(struct, f, "11b")
    b = covariant_derivative(struct, f, "1b1")
    return struct.ginv * (a + b)


def cr_laplacian(struct, f):
    """L f = -4 Delta_b f + R f."""
    return -4 * sublaplacian(struct, f) + struct.R * f


def p3_operator(struct, f):
    """(P3 f)_1 = g^{1 1b} f_{,1b 1 1} + i A_11 g^{1 1b} f_{,1b}.

    A_11 g^{1 1b} collapses to conj(A^1_{1b}) since g is real.
    """
    t3 = covariant_derivative(struct, f, "1b11")
    t1 = covariant_derivative(struct, f, "1b")
    return struct.ginv * t3 + GR_I * (struct.A.conj() * t1)


def paneitz(struct, f):
    """P f = 4 grad^1 (P3 f)_1, with the index raised by g."""
    return 4 * _raised_divergence(struct, p3_operator(struct, f))


def p_prime(struct, f):
    """P' f = 4 Delta_b^2 f - 8 Im grad^1(A_1^{1b} f_{,1b}) - 4 Re grad^1(R f_{,1})."""
    lap2 = sublaplacian(struct, sublaplacian(struct, f))
    a11 = struct.g * struct.A.conj()
    torsion_inner = a11 * (struct.ginv * covariant_derivative(struct, f, "1b"))
    torsion_div = _raised_divergence(struct, torsion_inner)
    curv_inner = struct.R * covariant_derivative(struct, f, "1")
    curv_div = _raised_divergence(struct, curv_inner)
    return 4 * lap2 - 8 * im_scalar(torsion_div) - 4 * re_scalar(curv_div)


def q_prime(struct):
    """Q' = -2 Delta_b R + R^2 - 4 |A|^2 with indices raised by g twice."""
    asq = struct.A * struct.A.conj()
    return -2 * sublaplacian(struct, struct.R) + struct.R * struct.R - 4 * asq


def pseudo_einstein_tensor(struct):
    """R_{,1} - i A^{1b}_{1,1b}; identically zero iff theta is pseudo-Einstein."""
    r1 = covariant_derivative(struct, struct.R, "1")
    abar = struct.A.conj()  # A^{1b}_1: upper 1b, lower 1
    stepped, _ = _cov_step(struct, abar, (-1, 1), "1b")
    return r1 - GR_I * stepped


# -- conformal change --------------------------------------------------------


def _exp_of(struct, ups):
    """e^Upsilon: a graded series on a graded structure, a log combination on an exact one."""
    graded = isinstance(struct.g, GradedSeries)
    if isinstance(ups, GradedSeries if graded else LogExpr):
        return ups.exp()
    raise StructureError(
        "Upsilon must be a GradedSeries on a graded structure or a LogExpr on an exact one"
    )


def conformal_change(struct, ups):
    """Re-solve the structure equations for theta_hat = e^Upsilon theta.

    No transformation formulas are used; this is the oracle side of every
    dual-path test.  The adapted coframe hint theta1 + i Upsilon^{,1} theta
    differs from e^{Upsilon/2}(theta1 + i Upsilon^{,1} theta) by a real
    factor, which leaves A^1_{1b} unchanged, so torsion comparisons are exact.
    """
    f = _exp_of(struct, ups)
    theta_hat = f * struct.theta
    b = struct.ginv * covariant_derivative(struct, ups, "1b")
    if isinstance(b, LogExpr):
        br = b.as_rat()
        if br is not None:
            b = br
    hint = struct.theta1 + (GR_I * b) * struct.theta
    return solve_structure(theta_hat, theta1_hint=hint)


def torsion_transform(struct, ups):
    """Predicted hatted torsion A-hat^1_{1b} for theta_hat = e^Upsilon theta.

    The law is stated for A_11 with G = e^{Upsilon/2}:
        A-hat_11 = G^{-2} (A_11 + 2i (log G)_{,11} - 4i ((log G)_{,1})^2)
                 = e^{-Upsilon} (A_11 + i Upsilon_{,11} - i (Upsilon_{,1})^2).
    Raising back uses the unhatted g, because in the hatted Lee coframe
    g-hat = g.
    """
    f = _exp_of(struct, ups)
    finv = f.invert()
    a11 = struct.g * struct.A.conj()
    u1 = covariant_derivative(struct, ups, "1")
    u11 = covariant_derivative(struct, ups, "11")
    ahat11 = finv * (a11 + GR_I * u11 - GR_I * (u1 * u1))
    return struct.ginv * ahat11.conj()


def qprime_conformal_rhs(struct, ups):
    """Right side of the Q' transformation law e^{2 Ups} Q'-hat = ... .

    Valid for pseudo-Einstein base structures; the body Paneitz convention
    is used throughout.
    """
    pe = pseudo_einstein_tensor(struct)
    if not pe.is_zero():
        raise StructureError("base structure is not pseudo-Einstein")
    p3 = p3_operator(struct, ups)
    grad_pair = (struct.ginv * covariant_derivative(struct, ups, "1b")) * p3
    return (
        q_prime(struct)
        + p_prime(struct, ups)
        + HALF * paneitz(struct, ups * ups)
        - ups * (4 * _raised_divergence(struct, p3))
        - 16 * re_scalar(grad_pair)
    )
