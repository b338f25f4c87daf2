"""Acceptance gate: the ten headline checks, one test (and one line) each.

Each test states its tolerance inline.  These deliberately re-derive results
through the public API instead of trusting the suites, so a regression in
either layer trips the gate.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from crprime.cli import main
from crprime.expr import RatExpr
from crprime.gauss import G
from crprime.heisenberg import (
    conformal_battery,
    flat_model,
    graded_conformal_check,
    green_harmonicity,
    p3_log_rho,
    q3_identity,
    szego_candidate,
)
from crprime.moser import (
    chain_check,
    example_data,
    fefferman_J,
    verify_expansion,
)
from crprime.poly import P_ONE, U, Z, ZB, Poly
from crprime.series import GradedSeries
from crprime.sphere import (
    QuadratureConfig,
    SIXTEEN_PI_SQ,
    delta_reports,
    qprime_volume_integrand,
    _total,
)
from crprime.structure import (
    conformal_change,
    covariant_derivative,
    p3_operator,
    paneitz,
    p_prime,
    torsion_transform,
)
from helpers import random_data

SEEDS = (21, 22, 23, 24, 25)  # the five randomized instances for criteria 2 and 3

ZETA = Z * ZB + Poly.const(G(0, -1)) * U


def _failing_ids(*argv):
    """Exit code and the set of failing check ids of a JSON `crprime run`."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--format", "json"])
    return code, {c["check_id"] for c in json.loads(out.getvalue())["checks"] if c["status"] == "fail"}


def test_01_moser_reference_series_match_exactly():
    start = time.monotonic()
    md = example_data()
    reports = []
    for key in ("lambda", "torsion", "curvature", "pseudo_einstein"):
        reports += verify_expansion(md, key)
    by_id = {r.check_id: r for r in reports}
    failures = [r.check_id for r in reports if r.status == "fail"]
    assert not failures, f"reference-series mismatches: {failures}"
    # exact equality through weighted order >= 7: the all-weights comparisons
    # carry lambda to 9 and the torsion to 7; the homogeneous blocks carry the
    # curvature to weight 8 (block of the weight-12 coefficients)
    assert by_id["moser.series.lambda"].status == "pass"
    assert by_id["moser.series.torsion"].status == "pass"
    assert by_id["moser.series.curvature"].status == "pass"
    assert by_id["moser.series.curvature.w12"].status == "pass"
    assert by_id["moser.series.pseudo_einstein.w10"].status == "pass"
    # the weight-7 pseudo-Einstein block agrees with the reference list up to
    # one sign convention in the u-heavy coefficient; the report records the
    # exact discrepancy instead of asserting either convention
    top = by_id["moser.series.pseudo_einstein.w12"]
    assert top.status in ("pass", "recorded") and top.residual != ""
    assert time.monotonic() - start < 10.0


def test_02_chain_condition_on_randomized_instances():
    for seed in SEEDS:
        rep = chain_check(random_data(seed, degree=2))
        assert rep.status == "pass", f"seed {seed}: {rep.residual}"


def test_03_fefferman_determinant_is_one_to_fourth_order():
    for seed in SEEDS:
        j = 4 * fefferman_J(random_data(seed, degree=2))
        dev = j - GradedSeries(P_ONE, j.order)
        assert dev.certifies_O(4) is True, f"seed {seed}"


def test_04_flat_frame_identity_suite():
    start = time.monotonic()
    fm = flat_model()
    st = fm.structure

    assert st.Z1b.apply(RatExpr(ZETA)).is_zero()  # zeta is CR holomorphic

    log_rho4 = 4 * fm.log_rho
    d1 = covariant_derivative(st, log_rho4, "1")
    assert (d1 - RatExpr(2 * ZB) / RatExpr(ZETA)).is_zero()
    d2 = covariant_derivative(st, log_rho4, "11")
    assert (d2 + d1 * d1).is_zero()

    assert q3_identity().status == "pass"
    assert p3_log_rho().status == "pass"
    assert green_harmonicity().status == "pass"
    assert time.monotonic() - start < 5.0


def test_05_flat_equality_case_dual_path():
    fm = flat_model()
    ups = 2 * fm.log_green
    hat = conformal_change(fm.structure, ups)
    assert hat.A.is_zero()
    assert hat.R.is_zero()
    assert (torsion_transform(fm.structure, ups) - hat.A).is_zero()


def test_06_flat_transformation_identity_closure():
    fm = flat_model()
    st = fm.structure
    lg = fm.log_green

    szego = szego_candidate()
    sigma = (Z * ZB) ** 2 + U * U
    expected = RatExpr(Poly.const(G(16)) * ((Z * ZB) ** 2 - U * U)) / (RatExpr(sigma) * RatExpr(sigma))
    assert (szego - expected).is_zero()
    assert p3_operator(st, szego).is_zero()
    assert (p_prime(st, lg) + paneitz(st, lg * lg)).is_zero()


def test_07_conformal_qprime_law_battery():
    battery = conformal_battery()
    cases = {r.check_id.split("[", 1)[1].rstrip("]")
             for r in battery if "[" in r.check_id}
    assert len(cases) >= 5
    assert all(r.status == "pass" for r in battery), [
        r.check_id for r in battery if r.status != "pass"]
    graded = {r.check_id: r for r in graded_conformal_check(order=16)}
    assert graded["conformal.graded_qprime"].status == "pass"
    assert graded["conformal.graded_torsion"].status == "pass"


def test_08_sphere_integral_is_sixteen_pi_squared():
    start = time.monotonic()
    config = QuadratureConfig()
    ci = qprime_volume_integrand()
    value, err, failure = _total(ci, config)
    assert failure is None, failure
    assert abs(value - SIXTEEN_PI_SQ) / SIXTEEN_PI_SQ <= 1e-6
    dense, _, failure = _total(ci, config.doubled())
    assert failure is None, failure
    assert abs(dense - value) <= err
    assert time.monotonic() - start < 60.0


def test_09_delta_constant_profile_independent():
    by_id = {r.check_id: r for r in delta_reports()}
    indep = by_id["sphere.delta.profile_independence"]
    assert indep.status == "pass"  # <= 0.5% spread over 3 profiles
    value = by_id["sphere.delta.value"]
    assert value.status == "recorded"
    assert "16" in value.detail and "convention" in value.detail


def test_10_negative_controls_drive_nonzero_exit(tmp_path):
    from importlib import resources

    doc = json.loads(resources.files("crprime").joinpath("data/expansions.json").read_text())
    doc["series"]["curvature"]["terms"][0]["coeff"] = [3, 1, 1, 1]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert _failing_ids("run", "moser", "--golden", str(bad)) == (
        1, {"moser.series.curvature.w10", "moser.series.curvature.w12"})
    assert _failing_ids("run", "heisenberg", "--corrupt", "green-power") == (
        1, {"heisenberg.q3_identity"})
    assert _failing_ids("run", "moser", "--corrupt", "moser-weight4") == (1, {
        "moser.fefferman.approximate_solution",
        "moser.pattern.connection.dz",
        "moser.pattern.curvature",
        "moser.pattern.frame.du",
        "moser.pattern.metric",
        "moser.pattern.metric.inverse",
        "moser.pattern.sublaplacian.h_uu",
        "moser.pattern.sublaplacian.h_uz",
        "moser.pattern.sublaplacian.h_uzb",
        "moser.pattern.sublaplacian.principal",
        "moser.pattern.theta.dz",
        "moser.pattern.theta.dzb",
        "moser.series.curvature",
        "moser.series.pseudo_einstein",
        "moser.series.torsion",
    })
