"""Checks on crprime reports, made apart from the program.

Each check is against a value the benchmark knows on its own: 16 pi^2 from
math.pi, the chart-form delta constant 8, exact zero residuals, and equality
of the report bytes between repetitions.  No stored copy of a report is
compared against.  Duplicate check ids are allowed: `run conformal` emits
two today, a known fault recorded in CHANGES.md.

    python3 bench/checks.py     runs the self-test: tampered reports must fail
"""

from __future__ import annotations

import json
import math
import re
import sys

SCHEMA = "crprime-report/1"
SIXTEEN_PI_SQ = 16 * math.pi ** 2
DELTA_CHART = 8.0  # delta constant of the flat Green's function, chart contact form
REL_TOL = 1e-6

# Check families that each workload exists to exercise.
FAMILIES = {
    "moser": ("moser.series.curvature", "moser.series.torsion", "moser.series.pseudo_einstein",
              "moser.structure", "moser.chain_check", "moser.fefferman"),
    "conformal": ("conformal.graded_qprime", "conformal.graded_torsion",
                  "conformal.qprime", "conformal.torsion"),
    "sphere": ("sphere.integral.total", "sphere.integral.node_doubling", "sphere.delta.value",
               "sphere.chart", "sphere.equality"),
}
FAMILIES["all"] = (FAMILIES["moser"] + FAMILIES["conformal"] + FAMILIES["sphere"]
                   + ("heisenberg.q3_identity", "heisenberg.szego_closed_form"))

_TOTAL_VALUE = re.compile(r"^value (\S+),")


def _in_family(check_id, family):
    return check_id == family or check_id.startswith((family + ".", family + "["))


def _rel(value, target):
    return abs(value - target) / abs(target)


def check_report(stdout: bytes, returncode: int, workload: str, seed: int) -> list:
    """Problems found in one `crprime run <workload> --format json` output; [] if none."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if doc.get("schema") != SCHEMA:
        return [f"schema {doc.get('schema')!r}"]
    problems = []
    if doc.get("meta", {}).get("suite") != workload or doc["meta"].get("seed") != seed:
        problems.append(f"meta {doc.get('meta')!r} is not for suite {workload}, seed {seed}")
    checks = doc.get("checks", [])
    by_id = {}
    for c in checks:
        cid, status = c["check_id"], c["status"]
        by_id.setdefault(cid, c)
        if status == "fail":
            problems.append(f"{cid}: status fail")
        elif (status == "pass" and cid.startswith(("moser.", "conformal."))
              and c["residual"] != "0"):
            problems.append(f"{cid}: passing exact check has residual {c['residual']!r}")
    for family in FAMILIES[workload]:
        if not any(_in_family(cid, family) for cid in by_id):
            problems.append(f"no check of family {family}")
    total = by_id.get("sphere.integral.total")
    if total is not None:
        m = _TOTAL_VALUE.match(total.get("detail", ""))
        if m is None:
            problems.append("sphere.integral.total: no value in its detail")
        elif not _rel(float(m.group(1)), SIXTEEN_PI_SQ) <= REL_TOL:
            problems.append(f"sphere.integral.total: {m.group(1)} is not 16 pi^2")
    delta = by_id.get("sphere.delta.value")
    if delta is not None:
        v = delta["residual"]
        if not isinstance(v, (int, float)) or not _rel(v, DELTA_CHART) <= REL_TOL:
            problems.append(f"sphere.delta.value: {v!r} is not {DELTA_CHART}")
    return problems


def check_same(outputs) -> list:
    """Problems if the report bytes differ between repetitions."""
    first = outputs[0]
    return [f"repetition {i} differs from repetition 0 in its report bytes"
            for i, out in enumerate(outputs[1:], 1) if out != first]


def _sample_report() -> dict:
    """A minimal valid `run all` report: one check of every family."""
    checks = []
    for family in FAMILIES["all"]:
        checks.append({"check_id": family, "status": "pass", "residual": "0",
                       "provenance": "derived", "anchor": "", "detail": ""})
    for c in checks:
        if c["check_id"] == "sphere.integral.total":
            c["residual"] = 0.0
            c["detail"] = f"value {SIXTEEN_PI_SQ!r}, error estimate 2.2e-12"
        elif c["check_id"] == "sphere.delta.value":
            c.update(status="recorded", residual=8.000000000000005)
    checks.append(dict(checks[0]))  # a duplicate id, which is not a fault here
    return {"schema": SCHEMA, "meta": {"seed": 3, "suite": "all"}, "checks": checks}


def selftest() -> list:
    """Problems with the checks themselves: the sample must pass, each tampering must fail."""
    def dump(doc):
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def tampered(edit):
        doc = _sample_report()
        for c in doc["checks"]:
            edit(c)
        return dump(doc)

    def total_off(c):
        if c["check_id"] == "sphere.integral.total":
            c["detail"] = f"value {SIXTEEN_PI_SQ * (1 + 1e-5)!r}, error estimate 2.2e-12"

    def delta_off(c):
        if c["check_id"] == "sphere.delta.value":
            c["residual"] = 16.0

    def one_fail(c):
        if c["check_id"] == "conformal.graded_qprime":
            c["status"] = "fail"

    def moser_residual(c):
        if c["check_id"] == "moser.series.curvature":
            c["residual"] = "1/3*z^2*zb^2"

    def family_gone(c):
        if c["check_id"] == "moser.chain_check":
            c["check_id"] = "x.moser.chain_check"

    good = dump(_sample_report())
    problems = [f"sample report rejected: {p}" for p in check_report(good, 0, "all", 3)]
    cases = {
        "sphere total off by 1e-5 relative": (tampered(total_off), 0),
        "delta constant 16": (tampered(delta_off), 0),
        "a check with status fail": (tampered(one_fail), 0),
        "nonzero residual on a moser check": (tampered(moser_residual), 0),
        "exit code 1": (good, 1),
        "missing check family": (tampered(family_gone), 0),
    }
    for name, (out, rc) in cases.items():
        if not check_report(out, rc, "all", 3):
            problems.append(f"tampered report accepted: {name}")
    if not check_report(good, 0, "all", 4):
        problems.append("tampered report accepted: report of another seed")
    if not check_same([good, good[:-2] + b" " + good[-1:]]):
        problems.append("tampered report accepted: repetitions differing by one byte")
    if check_same([good, bytes(good)]):
        problems.append("identical repetitions rejected")
    return problems


if __name__ == "__main__":
    found = selftest()
    for p in found:
        print(p)
    print("self-test:", "FAILED" if found else "every tampered report rejected")
    sys.exit(1 if found else 0)
