"""Dual-path conformal checks: transformation laws against full re-solves."""

import pytest

from crprime.expr import RatExpr
from crprime.gauss import G
from crprime.heisenberg import (
    GRADED_FLOOR,
    GRADED_GOAL,
    LOG_ONE_PLUS_ZZB,
    conformal_battery,
    flat_model,
    flat_series_structure,
    graded_conformal_check,
)
from crprime.poly import P_ONE, U, Z, ZB, Poly
from crprime.report import has_failure
from crprime.series import GradedSeries
from crprime.structure import StructureError, conformal_change, q_prime, torsion_transform


def test_battery_green():
    reps = conformal_battery()
    assert not has_failure(reps)
    assert len(reps) == 12  # six exact cases, two checks each


def test_torsion_hand_oracle():
    # f = 1 + z zb: the law gives A-hat^1_{1b} = 2 i z^2 / f^3
    st = flat_model().structure
    ups = LOG_ONE_PLUS_ZZB
    want = RatExpr(Poly.const(G(0, 2)) * Z * Z) / RatExpr((P_ONE + Z * ZB) ** 3)
    pred = torsion_transform(st, ups)
    got = pred.as_rat() if hasattr(pred, "as_rat") else pred
    assert (got - want).is_zero()
    hat = conformal_change(st, ups)
    assert (hat.A - want).is_zero()


def test_equality_case_is_flat():
    # theta-hat = G^2 theta is again flat: A, R and Q' all vanish exactly
    fm = flat_model()
    hat = conformal_change(fm.structure, 2 * fm.log_green)
    assert hat.A.is_zero()
    assert hat.R.is_zero()
    assert q_prime(hat).is_zero()


def test_graded_dual_path_order():
    # GRADED_FLOOR is the least working order at which both paths reach GRADED_GOAL
    reps = graded_conformal_check(order=GRADED_FLOOR)
    assert all(r.status == "pass" for r in reps)
    below = {r.check_id: r for r in graded_conformal_check(order=GRADED_FLOOR - 1)}
    assert below["conformal.graded_torsion"].status == "pass"
    assert below["conformal.graded_qprime"].status == "fail"
    assert below["conformal.graded_qprime"].detail == f"tracked order {GRADED_GOAL - 1}"


@pytest.mark.parametrize("graded", [False, True], ids=["exact", "graded"])
def test_mode_mismatch_is_rejected(graded):
    # Upsilon must be of the structure's own mode: a series on an exact
    # structure is rejected, and so is a log expression on a graded one
    if graded:
        st, ups = flat_series_structure(8), flat_model().log_green
    else:
        st, ups = flat_model().structure, GradedSeries(U, 8)
    with pytest.raises(StructureError):
        conformal_change(st, ups)
