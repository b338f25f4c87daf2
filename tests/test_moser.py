"""Normal-form graphs: reference expansions, patterns, chain and ambient checks."""

import json
import typing
from importlib import resources

import pytest

from crprime import moser
from crprime.forms import DifferentialForm
from crprime.gauss import G
from crprime.moser import (
    MoserData,
    cartan_coefficient,
    chain_check,
    display_identity_reports,
    example_data,
    fefferman_J,
    load_reference_series,
    moser_structure,
    moser_suite,
    moser_theta,
    order_pattern_reports,
    pe_consistency_probe,
    quantity,
    sublaplacian_pattern_reports,
    u_poly,
    verify_expansion,
)
from crprime.poly import P_ONE, Poly
from crprime.report import has_failure
from crprime.series import GradedSeries
from helpers import random_data


@pytest.fixture(scope="module")
def md():
    return example_data()


@pytest.fixture(scope="module")
def suite(md):
    return moser_suite(md)


# -- data validation ----------------------------------------------------------


def test_c33_must_be_real():
    with pytest.raises(ValueError):
        MoserData(c33=(G(0, 1),))


def test_extra_weight_floor():
    with pytest.raises(ValueError):
        MoserData(extra=(((2, 2, 0), G(1)),))
    ok = MoserData(extra=(((2, 2, 0), G(1)),), allow_low_weight=True)
    assert ok.e.graded_part(4) == Poly.monomial(G(1), 2, 2)


def test_extra_must_be_conjugation_closed():
    with pytest.raises(ValueError):
        MoserData(extra=(((4, 3, 0), G(1)),))
    ok = MoserData(extra=(((4, 3, 0), G(0, 2)), ((3, 4, 0), G(0, -2))))
    e = ok.e
    assert e == e.conj()


def test_defining_function_flat_and_reality(md):
    # the v-free part of r = v - |z|^2 + E; the graph v = |z|^2 - E makes r vanish
    assert -Poly.monomial(G(1), 1, 1) + MoserData().e == -Poly.monomial(G(1), 1, 1)
    r = -Poly.monomial(G(1), 1, 1) + md.e
    assert r == r.conj()
    # E carries no weight below 6
    e = md.e
    for w in range(6):
        assert not e.graded_part(w).terms


# -- contact form and solve ---------------------------------------------------


def test_flat_theta_matches_flat_model():
    th = moser_theta(MoserData().e, 10)
    half = G(1) / G(2)
    assert th.comps[2].poly == Poly.const(half)
    assert th.comps[0].poly == Poly.monomial(-half * G(0, 1), 0, 1)
    assert th.comps[1].poly == Poly.monomial(half * G(0, 1), 1, 0)
    assert typing.get_type_hints(moser_theta)["return"] is DifferentialForm


def test_flat_data_solves_to_flat_structure():
    st = moser_structure(MoserData().e, 10).struct
    assert (st.g - GradedSeries(P_ONE, 10)).is_zero()
    assert st.A.is_zero()
    assert st.R.is_zero()


def test_lambda_annihilates_theta(md):
    ms = moser_structure(md.e)
    resid = ms.struct.theta.comps[0] + ms.lam * ms.struct.theta.comps[2]
    assert resid.is_zero()


def test_frame_vector_is_dz_plus_lambda_du(md):
    ms = moser_structure(md.e)
    assert (ms.struct.Z1.vz - GradedSeries(P_ONE, ms.order)).is_zero()
    assert ms.struct.Z1.vzb.is_zero()
    assert (ms.struct.Z1.vu - ms.lam).is_zero()


def test_display_identities(md):
    for r in display_identity_reports(md):
        assert r.status == "pass", r


# -- reference series ---------------------------------------------------------


def test_lambda_reference_is_complete_linear_part(md):
    reps = verify_expansion(md, "lambda")
    assert [r.status for r in reps] == ["pass"]


def test_series_verifications(md):
    statuses = {}
    for key in ("a1", "a1bar", "metric", "torsion", "curvature", "pseudo_einstein"):
        for r in verify_expansion(md, key):
            statuses[r.check_id] = r.status
    # every all-weights comparison and every homogeneous block passes, except
    # the two blocks that see the z^2 E_uuu torsion sign
    for cid, status in statuses.items():
        if cid in ("moser.series.torsion.w12", "moser.series.pseudo_einstein.w12"):
            assert status == "recorded", cid
        else:
            assert status == "pass", cid


def test_torsion_sign_flip_is_exact(md):
    rep = [r for r in verify_expansion(md, "torsion") if r.check_id.endswith("w12")][0]
    assert rep.status == "recorded"
    # recompute the flip independently: -2 z^2 E_uuu of the weight-12 block
    blk = MoserData(c42=(0, 0, 0, md.c42[3]), c33=(0, 0, 0, md.c33[3]))
    euuu = blk.e.diff("u").diff("u").diff("u")
    flip = (Poly.monomial(G(-2), 2, 0) * euuu).graded_part(8)
    assert rep.residual == repr(flip)


def test_deep_blocks_cover_every_pattern_term():
    # u-degree 4 exercises E_uuuu in the curvature list, u-degree 5 exercises
    # E_uuuuu in the pseudo-Einstein list
    md4 = MoserData(c42=(0, 0, 0, 0, G(1, 1)), c33=(0, 0, 0, 0, G(1)))
    reps = verify_expansion(md4, "curvature")
    assert all(r.status == "pass" for r in reps if r.check_id.endswith("w14"))
    md5 = MoserData(c42=(0, 0, 0, 0, 0, G(1, -1)), c33=(0, 0, 0, 0, 0, G(2)))
    reps = verify_expansion(md5, "pseudo_einstein")
    deep = [r for r in reps if r.check_id.endswith("w16")]
    assert len(deep) == 1
    assert deep[0].status == "recorded"  # sign lineage again, matched exactly


def test_tampered_reference_file_fails(md, tmp_path):
    raw = resources.files("crprime").joinpath("data/expansions.json").read_text()
    doc = json.loads(raw)
    doc["series"]["curvature"]["terms"][0]["coeff"] = [7, 1, 0, 1]
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(doc))
    reps = verify_expansion(md, "curvature", table=load_reference_series(str(p)))
    fails = {r.check_id for r in reps if r.status == "fail"}
    assert fails == {"moser.series.curvature.w10", "moser.series.curvature.w12"}


def counting_loads(monkeypatch, *modules):
    """Count the parses of reference-expansion files, through every alias."""
    paths = []

    def counting(path=None):
        paths.append(path)
        return load_reference_series(path)

    for module in modules:
        monkeypatch.setattr(module, "load_reference_series", counting)
    return paths


def test_moser_suite_parses_the_reference_file_once(monkeypatch):
    paths = counting_loads(monkeypatch, moser)
    moser_suite(example_data())
    assert paths == [None]


def test_run_moser_golden_parses_the_golden_file_once(monkeypatch, tmp_path, capsys):
    from crprime import cli

    golden = tmp_path / "golden.json"
    golden.write_text(resources.files("crprime").joinpath("data/expansions.json").read_text())
    paths = counting_loads(monkeypatch, moser, cli)
    assert cli.main(["run", "moser", "--golden", str(golden), "--format", "json"]) == 0
    capsys.readouterr()
    assert paths == [str(golden)]


def test_unknown_reference_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 2}')
    with pytest.raises(ValueError):
        load_reference_series(str(p))


def test_pe_probe_recorded(md):
    rep = pe_consistency_probe(md)
    assert rep.status == "recorded"
    assert "weight 5" in rep.detail


# -- vanishing-order patterns --------------------------------------------------


def test_order_pattern(md):
    reps = {r.check_id: r for r in order_pattern_reports(md)}
    rec = {cid for cid, r in reps.items() if r.status == "recorded"}
    assert rec == {"moser.pattern.connection.dzb"}
    assert not any(r.status == "fail" for r in reps.values())
    # the recorded slot is conj(a_1) up to sign conventions, weight 5
    assert "zb" in reps["moser.pattern.connection.dzb"].residual


def test_sublaplacian_pattern(md):
    reps = {r.check_id: r for r in sublaplacian_pattern_reports(md)}
    rec = {cid for cid, r in reps.items() if r.status == "recorded"}
    assert rec == {"moser.pattern.sublaplacian.h_z", "moser.pattern.sublaplacian.h_zb"}
    assert not any(r.status == "fail" for r in reps.values())


def test_flat_coframe_decomposition_roundtrip(md):
    from crprime.moser import _flat_parts

    ms = moser_structure(md.e)
    o = ms.order
    parts = _flat_parts(ms.struct.theta, o)
    half = G(1) / G(2)
    ihalf = G(0, 1) / G(2)
    # rebuild the coordinate components from the flat-coframe ones
    cu = parts["theta0"] * GradedSeries(half, o)
    cz = parts["dz"] - GradedSeries(Poly.monomial(ihalf, 0, 1), o) * parts["theta0"]
    czb = parts["dzb"] + GradedSeries(Poly.monomial(ihalf, 1, 0), o) * parts["theta0"]
    assert (cu - ms.struct.theta.comps[2]).is_zero()
    assert (cz - ms.struct.theta.comps[0]).is_zero()
    assert (czb - ms.struct.theta.comps[1]).is_zero()


# -- chain, umbilical, ambient -------------------------------------------------


def test_chain_check_passes(md):
    assert chain_check(md).status == "pass"


def test_chain_check_random_instances():
    for seed in (3, 11):
        assert chain_check(random_data(seed)).status == "pass"


def test_cartan_coefficient_oracle():
    # d^3/dz^3 of z^4 is 24 z and d^2/dzb^2 of zb^2 is 2, so the z-coefficient
    # of the fifth derivative of -c z^4 zb^2 u^k is -48 c u^k
    assert cartan_coefficient(MoserData(c42=(G(1),))) == Poly.const(G(-48))
    assert cartan_coefficient(MoserData(c42=(0, G(0, 1)))) == Poly.monomial(G(0, -48), 0, 0, 1)
    md = example_data()
    assert cartan_coefficient(md) == Poly.const(G(-48)) * u_poly(md.c42)
    # extra terms of different z-degree do not leak into the z-coefficient
    with_extra = MoserData(c42=md.c42, c33=md.c33, extra=(((4, 3, 0), G(1)), ((3, 4, 0), G(1))))
    assert cartan_coefficient(with_extra) == cartan_coefficient(md)


def test_fefferman_flat_quarter():
    j = fefferman_J(MoserData())
    assert j.order == 8
    assert (j - GradedSeries(Poly.const(G(1) / G(4)), 8)).is_zero()
    assert (4 * j - GradedSeries(P_ONE, 8)).is_zero()


def test_zero_trailing_coefficient_leaves_the_working_order_alone():
    # the working order comes from the top weight of E, not from list lengths
    padded, plain = MoserData(c42=(G(1), 0)), MoserData(c42=(G(1),))
    assert fefferman_J(padded).order == fefferman_J(plain).order
    assert moser_structure(padded.e) is moser_structure(plain.e)


def test_fefferman_degree_three(md):
    j = fefferman_J(md)
    j2 = fefferman_J(md, scale=2)
    assert (j2 - GradedSeries(G(8), j.order) * j).is_zero()


def test_fefferman_approximate_solution(md):
    dev = 4 * fefferman_J(md) - GradedSeries(P_ONE, 13)
    assert dev.certifies_O(4) is True
    assert dev.valuation() == 4
    for seed in (5, 6):
        dev = 4 * fefferman_J(random_data(seed)) - GradedSeries(P_ONE, 11)
        assert dev.certifies_O(4) is True


# -- suite and corruption ------------------------------------------------------


def test_suite_green(suite):
    assert not has_failure(suite)
    by_status = {}
    for r in suite:
        by_status.setdefault(r.status, []).append(r.check_id)
    assert set(by_status["recorded"]) == {
        "moser.series.torsion.w12",
        "moser.series.pseudo_einstein.w12",
        "moser.probe.pseudo_einstein_tail",
        "moser.pattern.connection.dzb",
        "moser.pattern.sublaplacian.h_z",
        "moser.pattern.sublaplacian.h_zb",
    }


def test_low_weight_corruption_fails_suite(md):
    bad = MoserData(c42=md.c42, c33=md.c33, extra=(((2, 2, 0), G(1)),), allow_low_weight=True)
    reps = moser_suite(bad)
    fails = {r.check_id for r in reps if r.status == "fail"}
    assert "moser.series.curvature" in fails
    assert "moser.series.torsion" in fails


def test_suite_solves_each_structure_once(monkeypatch):
    # the example at its own order (shared by the series checks and the
    # probe), the pattern order, and one solve per weight block of E
    # (6, 8, 10, 12) shared by every key; each order is that of the solved theta
    orders = []
    solve = moser.solve_structure

    def counted(*args, **kwargs):
        orders.append(args[0].comps[2].order)
        return solve(*args, **kwargs)

    monkeypatch.setattr(moser, "solve_structure", counted)
    moser._solve.cache_clear()
    moser_suite(example_data())
    assert len(orders) == 6, orders
    assert orders == [13, 13, 13, 14, 16, 15]


@pytest.mark.parametrize("data", ["example", "moser-weight4"])
def test_series_solve_tracks_the_pseudo_einstein_tensor_through_weight_8(md, data):
    # the probe records the jet of the pseudo-Einstein difference through
    # weight 8 from the series solve, so that solve must reach order 9
    if data == "moser-weight4":
        md = MoserData(c42=md.c42, c33=md.c33, extra=(((2, 2, 0), G(1)),), allow_low_weight=True)
    assert quantity(moser_structure(md.e), "pseudo_einstein").order >= 9
