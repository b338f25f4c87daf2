"""Driver behavior: exit codes, determinism, config handling, negative controls."""

import gc
import json
import os
import re
import time
import warnings
from pathlib import Path

import pytest

from crprime import cli, heisenberg
from crprime.cli import UsageError, main
from crprime.moser import example_data, moser_structure, quantity
from crprime.report import recorded, reports_to_json, reports_to_text
from helpers import reports_from_json

FAST_GRID = "48x24x32"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- run ------------------------------------------------------------------------


def test_run_sphere_passes_and_sorts_by_check_id(capsys):
    code, out, _ = run_cli(capsys, "run", "sphere", "--format", "json",
                           "--grid", FAST_GRID)
    assert code == 0
    doc = json.loads(out)
    ids = [c["check_id"] for c in doc["checks"]]
    assert ids == sorted(ids)
    assert doc["meta"]["suite"] == "sphere"
    assert doc["meta"]["seed"] == 0
    statuses = {c["status"] for c in doc["checks"]}
    assert statuses <= {"pass", "recorded"}


def test_run_text_format_has_summary_line(capsys):
    code, out, _ = run_cli(capsys, "run", "heisenberg")
    assert code == 0
    assert "fail" in out.splitlines()[-1]


def test_unknown_suite_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "run", "bogus")
    assert code == 2


def test_byte_identical_reports_for_fixed_config(capsys):
    args = ("run", "sphere", "--format", "json", "--seed", "5", "--grid", FAST_GRID)
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_tol_alone_leaves_the_delta_grid_alone(capsys):
    # --tol 1e-6 is the default tolerance; it must not move the delta ball
    # from its own 32 azimuthal nodes to the chart grid's 16
    _, plain, _ = run_cli(capsys, "run", "sphere", "--format", "json")
    _, tol, _ = run_cli(capsys, "run", "sphere", "--tol", "1e-6", "--format", "json")
    assert json.loads(tol)["checks"] == json.loads(plain)["checks"]


@pytest.mark.parametrize("flag", [("--grid", "4x4x4"), ("--tol", "1e-20")])
def test_unconverged_total_is_a_failing_check_not_a_crash(capsys, flag):
    code, out, _ = run_cli(capsys, "run", "sphere", "--format", "json", *flag)
    assert code == 1
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert checks["sphere.integral.total"]["status"] == "fail"
    assert "estimate" in checks["sphere.integral.total"]["detail"]
    if flag[0] == "--tol":
        assert "over budget 1.0e-20" in checks["sphere.integral.total"]["detail"]
    else:
        # 4x4x4 halves to itself, so there is no estimate to trust
        assert "halved grid equals the grid" in checks["sphere.integral.total"]["detail"]
    # the checks measured against the estimate are left out
    assert not {"sphere.integral.node_doubling", "sphere.integral.linearity",
                "sphere.integral.rotation"} & set(checks)


def test_report_json_roundtrips(capsys):
    _, out, _ = run_cli(capsys, "run", "sphere", "--format", "json",
                        "--grid", FAST_GRID)
    meta, reports = reports_from_json(out)
    assert reports_to_json(reports, meta) == out


def test_repeated_check_id_is_rejected():
    rep = recorded("demo.check", "0", "trivial", "anchor")
    other = recorded("demo.other", "0", "trivial", "anchor")
    for emit in (reports_to_json, reports_to_text):
        emit([rep, other])
        with pytest.raises(ValueError, match="demo.check"):
            emit([rep, other, rep])


def test_run_all_runs_each_suite_once_and_builds_the_flat_model_once(capsys, monkeypatch):
    built = []

    class CountingFlatModel(heisenberg.FlatModel):
        def __init__(self):
            built.append(os.getpid())
            super().__init__()

    monkeypatch.setattr(heisenberg, "FlatModel", CountingFlatModel)
    heisenberg.flat_model.cache_clear()
    code, out, err = run_cli(capsys, "run", "all", "--format", "json",
                             "--grid", FAST_GRID, "--timings")
    heisenberg.flat_model.cache_clear()
    assert code == 0
    assert built == [os.getpid()]
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "setup", "moser", "heisenberg", "conformal", "sphere"]
    ids = [c["check_id"] for c in json.loads(out)["checks"]]
    assert len(ids) == len(set(ids))
    assert ids.count("conformal.graded_qprime") == 1


def test_run_all_is_the_sorted_union_of_the_single_suite_runs(capsys):
    code, all_out, _ = run_cli(capsys, "run", "all", "--format", "json", "--grid", FAST_GRID)
    assert code == 0
    union = []
    for suite in ("moser", "heisenberg", "conformal", "sphere"):
        code, out, _ = run_cli(capsys, "run", suite, "--format", "json", "--grid", FAST_GRID)
        assert code == 0
        union += json.loads(out)["checks"]
    assert json.loads(all_out)["checks"] == sorted(union, key=lambda c: c["check_id"])


def test_run_all_order_12_exits_2_with_the_conformal_message(capsys):
    code, out, err = run_cli(capsys, "run", "all", "--order", "12")
    assert (code, out) == (2, "")
    assert err == f"error: conformal suite needs --order >= {heisenberg.GRADED_FLOOR}\n"


def test_suite_errors_reach_main(capsys, monkeypatch):
    def refuse():
        raise UsageError("raised in a suite")

    monkeypatch.setattr(cli, "conformal_battery", refuse)
    assert run_cli(capsys, "run", "all") == (2, "", "error: raised in a suite\n")

    def fail():
        raise ArithmeticError("suite arithmetic")

    monkeypatch.setattr(cli, "conformal_battery", fail)
    with pytest.raises(ArithmeticError, match="suite arithmetic"):
        main(["run", "all"])


def test_the_import_heap_stays_frozen(capsys):
    # a heap thawed again is walked and freed at exit, which the OS does anyway
    gc.unfreeze()
    assert main(["run", "heisenberg", "--format", "json"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() > 0


def test_run_all_suite_wall_times_add_up_to_no_more_than_the_run(capsys):
    # the suites run in turn in one process, so their wall times never overlap
    start = time.monotonic()
    code = main(["run", "all", "--grid", FAST_GRID, "--timings"])
    elapsed = time.monotonic() - start
    assert code == 0
    walls = re.findall(r"^\w+: wall (\d+\.\d\d)s", capsys.readouterr().err, re.M)
    assert len(walls) == 4
    # each time is printed rounded to 0.01 s, so it may read up to 0.005 s high
    assert sum(float(w) - 0.005 for w in walls) <= elapsed


def test_timings_go_to_stderr_as_setup_cpu_and_suite_wall_and_cpu(capsys):
    code, plain, err = run_cli(capsys, "run", "heisenberg", "--format", "json")
    assert code == 0 and err == ""
    code, timed, err = run_cli(capsys, "run", "heisenberg", "--format", "json", "--timings")
    assert code == 0 and timed == plain
    setup, suite = err.splitlines()
    assert re.fullmatch(r"setup: cpu \d+\.\d\ds", setup)
    assert re.fullmatch(r"heisenberg: wall \d+\.\d\ds, cpu \d+\.\d\ds", suite)


def test_run_conformal_rejects_low_order(capsys):
    # the graded Q' path tracks order - 5, so weight 8 needs order 13
    for order in ("8", "12"):
        code, _, err = run_cli(capsys, "run", "conformal", "--order", order)
        assert code == 2
        assert "order" in err
    code, _, _ = run_cli(capsys, "run", "conformal", "--order", "13")
    assert code == 0


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("crprime ")]


def test_readme_cli_examples_exit_zero(capsys):
    examples = _readme_cli_examples()
    assert examples
    for argv in examples:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


# -- negative controls ------------------------------------------------------------


def failing_ids(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, {c["check_id"] for c in json.loads(out)["checks"] if c["status"] == "fail"}


def test_green_power_control_fails(capsys):
    for suite in ("heisenberg", "all"):
        code, fails = failing_ids(capsys, "run", suite, "--corrupt", "green-power")
        assert code == 1
        assert fails == {"heisenberg.q3_identity"}


WEIGHT4_FAILS = {
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
}


def test_weight4_control_fails(capsys):
    assert failing_ids(capsys, "run", "moser", "--corrupt", "moser-weight4") == (1, WEIGHT4_FAILS)


def test_corrupt_flag_must_match_suite(capsys):
    code, _, err = run_cli(capsys, "run", "sphere", "--corrupt", "moser-weight4")
    assert code == 2
    assert "moser" in err


def test_tampered_golden_file_fails(capsys, tmp_path):
    from importlib import resources

    doc = json.loads(resources.files("crprime").joinpath("data/expansions.json").read_text())
    doc["series"]["torsion"]["terms"][0]["coeff"] = [9, 1, 0, 1]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert failing_ids(capsys, "run", "moser", "--golden", str(bad)) == (1, {
        "moser.series.torsion",
        "moser.series.torsion.w8",
        "moser.series.torsion.w10",
        "moser.series.torsion.w12",
    })


def test_golden_flag_must_match_suite(capsys):
    code, _, _ = run_cli(capsys, "run", "sphere", "--golden", "whatever.json")
    assert code == 2


GOLDEN_DEFECTS = {
    "missing": "No such file",
    "not_json": "Expecting property name",
    "version_2": "unrecognized",
    "no_torsion": "lacks the series torsion",
    "no_cutoff": "reference series 'lambda': cutoff is not an int",
    "zero_denominator": "reference series 'torsion': coeff [1, 0, 0, 1] is not four ints",
}


@pytest.mark.parametrize("suite", ["moser", "all"])
@pytest.mark.parametrize("defect", sorted(GOLDEN_DEFECTS))
def test_unreadable_golden_file_is_a_usage_error(capsys, tmp_path, suite, defect):
    from importlib import resources

    doc = json.loads(resources.files("crprime").joinpath("data/expansions.json").read_text())
    path = tmp_path / "golden.json"
    if defect == "not_json":
        path.write_text("{not json")
    elif defect == "version_2":
        path.write_text(json.dumps({**doc, "version": 2}))
    elif defect == "no_torsion":
        del doc["series"]["torsion"]
        path.write_text(json.dumps(doc))
    elif defect == "no_cutoff":
        del doc["series"]["lambda"]["cutoff"]
        path.write_text(json.dumps(doc))
    elif defect == "zero_denominator":
        doc["series"]["torsion"]["terms"][0]["coeff"] = [1, 0, 0, 1]
        path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", suite, "--golden", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read golden file: ")
    assert GOLDEN_DEFECTS[defect] in err


# -- config files -------------------------------------------------------------------


def test_config_file_merges_with_flag_overrides(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"grid = {FAST_GRID}\nseed = 4  # probe seed\nformat = json\n")
    code, out, _ = run_cli(capsys, "run", "sphere", "--config", str(cfg), "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 9
    assert doc["meta"]["grid"] == FAST_GRID


@pytest.mark.parametrize("argv, settings", [
    (("run", "sphere"), {"grid": FAST_GRID, "tol": "1e-6", "seed": "3", "format": "json"}),
    (("expand", "R"), {"order": "9"}),
])
def test_config_file_equals_its_flags(capsys, tmp_path, argv, settings):
    cfg = tmp_path / "same.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in settings.items()))
    flags = [arg for key, val in settings.items() for arg in (f"--{key}", val)]
    by_flags = run_cli(capsys, *argv, *flags)
    assert by_flags[0] == 0
    assert run_cli(capsys, *argv, "--config", str(cfg)) == by_flags


def test_bad_config_value_names_the_flag(capsys, tmp_path):
    cfg = tmp_path / "order.cfg"
    cfg.write_text("order = x\n")
    code, out, err = run_cli(capsys, "expand", "R", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "--order" in err


def test_config_file_errors_are_usage_errors(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run_cli(capsys, "run", "sphere", "--config", str(cfg))[0] == 2
    cfg.write_text("grid 96x40x16\n")
    assert run_cli(capsys, "run", "sphere", "--config", str(cfg))[0] == 2
    assert run_cli(capsys, "run", "sphere", "--config", str(tmp_path / "nope"))[0] == 2
    cfg.write_bytes(b"\xff\xfe")
    assert run_cli(capsys, "run", "heisenberg", "--config", str(cfg))[0] == 2
    assert run_cli(capsys, "run", "sphere", "--grid", "96x40")[0] == 2
    assert run_cli(capsys, "run", "sphere", "--grid", "3x4x5")[0] == 2


def test_config_file_is_closed(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "heisenberg", "--config", str(cfg)]) == 0
        gc.collect()
    capsys.readouterr()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_non_finite_or_non_positive_tol_is_a_usage_error(capsys, tmp_path, tol):
    code, out, err = run_cli(capsys, "run", "sphere", "--tol", tol)
    assert (code, out) == (2, "")
    assert "tol" in err
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"tol = {tol}\n")
    assert run_cli(capsys, "run", "sphere", "--config", str(cfg))[0] == 2


# -- expand ---------------------------------------------------------------------------


def test_expand_torsion_prints_the_series(capsys):
    code, out, _ = run_cli(capsys, "expand", "A", "--order", "7")
    assert code == 0
    assert "(-24-12*i)*z^2*zb^2" in out
    assert out.strip().endswith("+ O(8)")


def test_expand_flat_curvature_is_zero(capsys):
    code, out, _ = run_cli(capsys, "expand", "R", "--order", "7", "--flat")
    assert code == 0
    assert out.strip() == "R = 0 + O(8)"


def test_expand_flat_torsion_is_zero(capsys):
    code, out, _ = run_cli(capsys, "expand", "A", "--order", "7", "--flat")
    assert code == 0
    assert out.strip() == "A = 0 + O(8)"
    code, out, _ = run_cli(capsys, "expand", "A", "--order", "7", "--flat", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_expand_g_prints_the_levi_metric(capsys):
    # the Levi metric is 1 through weight 3 on the example and exactly 1 on
    # the flat model; Z_1 g, the reference key "metric", is not what g names
    code, out, _ = run_cli(capsys, "expand", "g", "--order", "3")
    assert (code, out.strip()) == (0, "g = 1 + O(4)")
    code, out, _ = run_cli(capsys, "expand", "g", "--flat")
    assert (code, out.strip()) == (0, "g = 1 + O(8)")


def test_expand_szego_closed_form(capsys):
    code, out, _ = run_cli(capsys, "expand", "szego")
    assert code == 0
    assert "-16*u^2 + 16*z^2*zb^2" in out


def test_expand_json_terms(capsys):
    code, out, _ = run_cli(capsys, "expand", "g", "--order", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "g"
    assert doc["order"] == 7
    assert doc["terms"], "metric series should have terms at order 7"
    assert set(doc["terms"][0]) <= {"coeff", "z", "zb", "u", "pi"}


@pytest.mark.parametrize("name", ["R", "A", "g", "pe_tensor"])
def test_expand_prints_the_order_it_tracked(capsys, name):
    # derivatives cost these quantities orders, so a solve at order 13 alone
    # tracks them below O(13)
    code, out, _ = run_cli(capsys, "expand", name, "--order", "12")
    assert code == 0
    assert out.strip().endswith("+ O(13)")
    code, out, _ = run_cli(capsys, "expand", name, "--order", "12", "--format", "json")
    assert code == 0
    deep = quantity(moser_structure(example_data().e, 17), cli.QUANTITY_KEYS[name])
    assert deep.order >= 13
    got = {(t["coeff"], t["z"], t["zb"], t["u"]) for t in json.loads(out)["terms"]}
    want = {(repr(c), ez, ezb, eu) for (ez, ezb, eu, _), c in deep.poly.truncate(13).coeffs()}
    assert got == want


@pytest.mark.parametrize("order", ["-1", "-5"])
def test_expand_negative_order_is_a_usage_error(capsys, tmp_path, order):
    code, out, err = run_cli(capsys, "expand", "R", "--order", order)
    assert (code, out) == (2, "")
    assert "order" in err
    cfg = tmp_path / "order.cfg"
    cfg.write_text(f"order = {order}\n")
    code, out, err = run_cli(capsys, "expand", "R", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "order" in err


def test_expand_unknown_quantity_is_usage_error(capsys):
    assert run_cli(capsys, "expand", "torsion")[0] == 2


def test_help_exits_cleanly(capsys):
    assert run_cli(capsys, "--help")[0] == 0
