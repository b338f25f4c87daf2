"""Exterior algebra sanity plus the flat contact structure as an oracle."""

import pytest

from crprime.expr import RatExpr
from crprime.forms import (
    AdaptedCoframe,
    VectorField,
    contract,
    evaluate,
    exterior_d,
    form_from_scalar,
    one_form,
    reeb_field,
    wedge,
)
from crprime.gauss import G
from crprime.heisenberg import _battery_cases, flat_model, flat_series_structure
from crprime.moser import example_data, moser_structure
from crprime.poly import U, Z, ZB, Poly
from crprime.series import GradedSeries
from crprime.sphere import sphere_structure_in_chart
from crprime.structure import conformal_change
from helpers import duality_residuals, pair


@pytest.fixture(scope="module")
def solver_structures():
    """The frames the solver builds: exact, graded, curved, Moser and a conformal hat."""
    flat = flat_model().structure
    return {
        "flat": flat,
        "graded": flat_series_structure(16),
        "sphere": sphere_structure_in_chart(),
        "moser": moser_structure(example_data().e).struct,
        "hat": conformal_change(flat, dict(_battery_cases())["(1+zzb)^2"]),
    }


def S(p, order=12):
    return GradedSeries(p if isinstance(p, Poly) else Poly.const(p), order)


def flat_theta():
    # du/2 - (i/2) zb dz + (i/2) z dzb
    i = G(0, 1)
    return one_form(
        cz=RatExpr(Poly.const(i * G("-1/2")) * ZB),
        czb=RatExpr(Poly.const(i * G("1/2")) * Z),
        cu=RatExpr(G("1/2")),
    )


def test_wedge_antisymmetry():
    a = one_form(cz=RatExpr(Z))
    b = one_form(czb=RatExpr(ZB))
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).is_zero()
    assert wedge(a, a).is_zero()


def test_d_squared_zero():
    w = one_form(cz=S(Z * ZB * U), czb=S(U**2), cu=S(Z + ZB))
    assert exterior_d(exterior_d(w)).is_zero()


def test_leibniz():
    a = one_form(cz=S(U), czb=S(Z * Z))
    b = one_form(cu=S(Z * ZB))
    lhs = exterior_d(wedge(a, b))
    rhs = wedge(exterior_d(a), b) - wedge(a, exterior_d(b))
    assert (lhs - rhs).is_zero()


def test_forms_obey_their_defining_identities():
    # antisymmetry, d^2 = 0 and Leibniz survive any consistent permutation of
    # the component slots; these identities pin the layout itself
    i = Poly.const(G(0, 1))
    a = one_form(cz=RatExpr(Z * U), czb=RatExpr(ZB + i * U), cu=RatExpr(Z * ZB))
    b = one_form(cz=RatExpr(U * U), czb=RatExpr(Z), cu=RatExpr(i * ZB))
    X = VectorField(RatExpr(U), RatExpr(Z * ZB), RatExpr(Z + 1))
    Y = VectorField(RatExpr(ZB), RatExpr(2), RatExpr(U))
    # (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)
    lhs = pair(wedge(a, b), X, Y)
    assert (lhs - (evaluate(a, X) * evaluate(b, Y) - evaluate(a, Y) * evaluate(b, X))).is_zero()
    # (df)(X) = X(f)
    f = RatExpr(Z * Z * ZB + U * Z)
    assert (evaluate(exterior_d(form_from_scalar(f)), X) - X.apply(f)).is_zero()
    # conj commutes with wedge and with d
    assert (wedge(a, b).conj() - wedge(a.conj(), b.conj())).is_zero()
    assert (exterior_d(a).conj() - exterior_d(a.conj())).is_zero()
    # for constant fields P and Q, da(P, Q) = P(a(Q)) - Q(a(P))
    P = VectorField(RatExpr(1), RatExpr(i), RatExpr(3))
    Q = VectorField(RatExpr(2), RatExpr(0), RatExpr(-1))
    da = pair(exterior_d(a), P, Q)
    assert (da - (P.apply(evaluate(a, Q)) - Q.apply(evaluate(a, P)))).is_zero()
    assert not da.is_zero()


def test_contract_basics():
    X = VectorField(RatExpr(1), RatExpr(0), RatExpr(U))
    w = one_form(cz=RatExpr(Z), cu=RatExpr(2))
    assert evaluate(w, X) == RatExpr(Z) + RatExpr(2 * U)
    assert contract(w, X).comps == (evaluate(w, X),)
    # (dz ^ dzb)(X, d/dzb) = dz(X) dzb(d/dzb) - dz(d/dzb) dzb(X) = 1
    two = wedge(one_form(cz=RatExpr(1)), one_form(czb=RatExpr(1)))
    assert pair(two, X, VectorField(RatExpr(0), RatExpr(1), RatExpr(0))) == RatExpr(1)
    for form in (form_from_scalar(RatExpr(Z)), two):
        with pytest.raises(ValueError):
            contract(form, X)


def test_conj_swaps_dz_dzb():
    w = one_form(cz=RatExpr(Z))
    assert w.conj().comps[1] == RatExpr(ZB)
    two = wedge(one_form(cz=RatExpr(1)), one_form(czb=RatExpr(1)))
    # conj(dz ^ dzb) = dzb ^ dz = -(dz ^ dzb)
    assert (two.conj() + two).is_zero()


def test_flat_reeb():
    th = flat_theta()
    dth = exterior_d(th)
    # dtheta = i dz ^ dzb
    assert dth.comps[2] == RatExpr(Poly.const(G(0, 1)))
    T = reeb_field(th, exterior_d(th))
    assert T.vz.is_zero() and T.vzb.is_zero()
    assert T.vu == RatExpr(2)
    assert evaluate(th, T) == RatExpr(1)
    # dtheta(T, .) = 0 on every coordinate field
    one, zero = RatExpr(1), RatExpr(0)
    for Y in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
        assert pair(dth, T, VectorField(*Y)).is_zero()


def test_flat_frame_duality():
    th = flat_theta()
    frame = AdaptedCoframe(th, one_form(cz=RatExpr(1)))
    for name, resid in duality_residuals(frame):
        assert resid == 0 or resid.is_zero(), name
    # Z1 = d/dz + i zb d/du
    assert frame.Z1.vz == RatExpr(1)
    assert frame.Z1.vu == RatExpr(Poly.const(G(0, 1)) * ZB)
    f = RatExpr(Z * ZB - G(0, 1) * U)  # zeta
    assert frame.Z1b.apply(f).is_zero()
    assert frame.Z1.apply(f) == RatExpr(2 * ZB)

def test_solver_frames_are_dual(solver_structures):
    for st in solver_structures.values():
        for name, resid in duality_residuals(st.frame):
            assert resid.is_zero(), name
        Z1b, conj = st.frame.Z1b, st.frame.Z1.conj()
        assert (Z1b.vz, Z1b.vzb, Z1b.vu) == (conj.vz, conj.vzb, conj.vu)
    # T comes from the coframe, tracked as far as theta; the Reeb field of
    # theta alone loses one order
    assert solver_structures["graded"].T.vu.order == 16


def test_two_form_expansion_is_the_frame_pairing(solver_structures):
    # each coefficient of the dual-basis expansion equals w(X, Y) from components
    slots = {"theta^theta1": ("T", "Z1"), "theta^theta1b": ("T", "Z1b"), "theta1^theta1b": ("Z1", "Z1b")}
    for case, st in solver_structures.items():
        frame = st.frame
        forms = {
            "dtheta": exterior_d(st.theta),
            "dtheta1": exterior_d(st.theta1),
            "domega": exterior_d(st.omega),
            "omega^theta1b": wedge(st.omega, st.theta1b),
        }
        for name, w in forms.items():
            coeffs = frame.expand_in_coframe(w)
            assert set(coeffs) == set(slots)
            for key, (x, y) in slots.items():
                ref = pair(w, getattr(frame, x), getattr(frame, y))
                assert (coeffs[key] - ref).is_zero(), (case, name, key)


def test_volume_orientation():
    th = flat_theta()
    vol = wedge(th, exterior_d(th))
    # theta ^ dtheta = (i/2) du ^ dz ^ dzb
    c = vol.comps[0]
    assert c == RatExpr(Poly.const(G(0, "1/2")))


def test_expand_in_coframe_roundtrip():
    th = flat_theta()
    frame = AdaptedCoframe(th, one_form(cz=RatExpr(1)))
    w = one_form(cz=RatExpr(Z), czb=RatExpr(1), cu=RatExpr(U))
    coeffs = frame.expand_in_coframe(w)
    back = (
        coeffs["theta"] * th
        + coeffs["theta1"] * frame.theta1
        + coeffs["theta1b"] * frame.theta1b
    )
    assert (back - w).is_zero()
    dth = exterior_d(th)
    two = frame.expand_in_coframe(dth)
    assert two["theta^theta1"].is_zero()
    assert two["theta^theta1b"].is_zero()
    # dtheta = i g theta1 ^ theta1b with g = 1
    assert two["theta1^theta1b"] == RatExpr(Poly.const(G(0, 1)))


def test_series_scalar_coframe():
    i = G(0, 1)
    n = 10
    th = one_form(
        cz=S(Poly.const(i * G("-1/2")) * ZB, n),
        czb=S(Poly.const(i * G("1/2")) * Z, n),
        cu=S(G("1/2"), n),
    )
    T = reeb_field(th, exterior_d(th))
    assert T.vu.poly == Poly.const(2)
    frame = AdaptedCoframe(th, one_form(cz=S(1, n)))
    for name, resid in duality_residuals(frame):
        assert resid == 0 or resid.is_zero(), name
