"""Named verification operations on the flat model."""

import random

from crprime import heisenberg
from crprime.expr import LOG_S, ZETA, RatExpr
from crprime.gauss import G
from crprime.poly import P_ONE
from crprime.heisenberg import (
    flat_model,
    flat_q2_identity,
    flat_series_structure,
    flat_torsion_of_hat,
    green_harmonicity,
    heisenberg_suite,
    p3_log_rho,
    q3_identity,
    szego_candidate,
)
from crprime.report import has_failure
from crprime.structure import cr_laplacian, verify_structure
from helpers import random_probe


def test_named_operations_pass():
    for rep in (
        green_harmonicity(),
        p3_log_rho(),
        q3_identity(),
        flat_torsion_of_hat(),
        flat_q2_identity(),
    ):
        assert rep.status == "pass", rep


def test_wrong_power_control_fails():
    rep = q3_identity(wrong_power=True)
    assert rep.status == "fail"
    # the defect of 1/(2 pi s^2) is exactly -4 zb^2 / zeta^2
    assert "zb^2" in rep.residual


def test_suite_green():
    reps = heisenberg_suite()
    assert not has_failure(reps)
    ids = {r.check_id for r in reps}
    assert "heisenberg.szego_closed_form" in ids
    assert "heisenberg.q2_closure" in ids
    # equality-case re-solve is part of the suite
    assert "heisenberg.hat_qprime" in ids


def test_residuals_that_print_a_denominator():
    """The only report residuals with a denominator; its factor order is part of the bytes."""
    residuals = {r.check_id: r.residual for r in heisenberg_suite()}
    zeta, zetab = "(-1*i*u + 1*z*zb)", "(1*i*u + 1*z*zb)"
    assert residuals["heisenberg.log_not_harmonic"] == f"[(-8*z*zb) / {zetab}^1 * {zeta}^1]"
    assert residuals["heisenberg.q2_term.p_prime_log_green"] == (
        f"[(-16*u^2 + 16*z^2*zb^2) / {zetab}^2 * {zeta}^2]")
    assert residuals["heisenberg.q2_term.paneitz_log_green_sq"] == (
        f"[(16*u^2 + -16*z^2*zb^2) / {zeta}^2 * {zetab}^2]")


def test_szego_closed_form():
    cand = szego_candidate()
    zeta = RatExpr(ZETA)
    want = 16 * ((zeta.invert() ** 2 + zeta.conj().invert() ** 2) * G("1/2"))
    assert (cand - want).is_zero()
    assert (cand - cand.conj()).is_zero()


def test_szego_probe_values():
    # spot-check the closed form at random rational points on s^2 = Sigma
    cand = szego_candidate()
    rng = random.Random(7)
    for _ in range(5):
        point, s_val, _ = random_probe(rng)
        zeta = ZETA.eval(point)
        want = 16 * ((zeta ** -2 + zeta.conj() ** -2) * G("1/2"))
        assert cand.eval(point, s_val) == want


def test_log_green_annihilated_by_laplacian_only_off_log():
    # L kills G itself but not log s; the suite's negative control, restated
    fm = flat_model()
    assert cr_laplacian(fm.structure, fm.green).is_zero()
    bad = cr_laplacian(fm.structure, LOG_S)
    assert not bad.is_zero()


def test_series_flat_structure():
    st = flat_series_structure(10)
    assert st.g.poly == P_ONE
    assert st.A.is_zero()
    for name, val in verify_structure(st):
        assert val.is_zero(), name


def test_suite_and_named_operations_evaluate_p_prime_of_log_green_once(monkeypatch):
    calls = []
    p_prime = heisenberg.p_prime

    def counted(*args, **kwargs):
        calls.append(args)
        return p_prime(*args, **kwargs)

    monkeypatch.setattr(heisenberg, "p_prime", counted)
    heisenberg.flat_q2_terms.cache_clear()
    heisenberg_suite()
    szego_candidate()
    flat_q2_identity()
    heisenberg.flat_q2_terms.cache_clear()
    assert len(calls) == 1
