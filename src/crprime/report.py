"""Verification report records and their JSON serialization.

Reports are deterministic: no timestamps or wall-clock fields, so two runs
with the same config and seed emit byte-identical JSON.  Timing, when wanted,
goes to stderr in the CLI, never into the report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

STATUSES = ("pass", "fail", "recorded")
PROVENANCES = ("reference", "trivial", "derived")

SCHEMA = "crprime-report/1"

_MAX_RESIDUAL_CHARS = 400

# residuals a report holds as they are; any other is an exact scalar, kept
# as its residual_repr
_SERIALIZED = (str, int, float, type(None))


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    status: str
    residual: object  # short exact string, or a float for numeric checks
    provenance: str
    anchor: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"bad provenance {self.provenance!r}")
        if not isinstance(self.residual, _SERIALIZED):
            raise TypeError("residual must be serialized before constructing the report")


def residual_repr(x) -> str:
    """Stable short string for an exact scalar residual."""
    if x.is_zero():
        return "0"
    s = repr(x)
    if len(s) > _MAX_RESIDUAL_CHARS:
        s = s[:_MAX_RESIDUAL_CHARS] + f"...(+{len(s) - _MAX_RESIDUAL_CHARS} chars)"
    return s


def _report(check_id, status, residual, provenance, anchor, detail) -> VerificationReport:
    if not isinstance(residual, _SERIALIZED):
        residual = residual_repr(residual)
    return VerificationReport(check_id, status, residual, provenance, anchor, detail)


def check_zero(check_id, scalar, provenance, anchor, detail="") -> VerificationReport:
    return check_true(check_id, scalar.is_zero(), scalar, provenance, anchor, detail)


def check_true(check_id, ok, residual, provenance, anchor, detail="") -> VerificationReport:
    return _report(check_id, "pass" if ok else "fail", residual, provenance, anchor, detail)


def recorded(check_id, residual, provenance, anchor, detail="") -> VerificationReport:
    return _report(check_id, "recorded", residual, provenance, anchor, detail)


def has_failure(reports) -> bool:
    return any(r.status == "fail" for r in reports)


def _sorted_unique(reports) -> list:
    """Reports sorted by check id; a repeated id is an error, not a second check."""
    out = sorted(reports, key=lambda r: r.check_id)
    for a, b in zip(out, out[1:]):
        if a.check_id == b.check_id:
            raise ValueError(f"duplicate check id {a.check_id!r}")
    return out


def reports_to_json(reports, meta=None) -> str:
    doc = {
        "schema": SCHEMA,
        "meta": dict(sorted((meta or {}).items())),
        "checks": [asdict(r) for r in _sorted_unique(reports)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reports_to_text(reports, meta=None) -> str:
    lines = []
    for key, val in sorted((meta or {}).items()):
        lines.append(f"# {key} = {val}")
    for r in _sorted_unique(reports):
        lines.append(f"[{r.status.upper():8s}] {r.check_id}: residual={r.residual} ({r.provenance}; {r.anchor})")
        if r.detail:
            lines.append(f"           {r.detail}")
    lines.append(f"# {sum(r.status == 'pass' for r in reports)} pass, "
                 f"{sum(r.status == 'fail' for r in reports)} fail, "
                 f"{sum(r.status == 'recorded' for r in reports)} recorded")
    return "\n".join(lines) + "\n"
