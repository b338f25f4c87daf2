"""Probes and readers that only the tests use.

pytest puts this directory on sys.path (tests/ has no __init__.py), so the
test modules import it as `helpers`.
"""

import json
from fractions import Fraction
from random import Random

from crprime.gauss import G, GR_ZERO
from crprime.moser import MoserData
from crprime.report import SCHEMA, VerificationReport


def random_probe(rng):
    """A generic rational point where s is exactly rational, plus atom values.

    zb is the honest conjugate of z and conjugate atoms get conjugate values,
    so conj() commutes with log_eval().  Atom values are otherwise
    unconstrained: probes cross-check formal manipulations, they are not the
    zero test.
    """
    while True:
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        if p or q:
            break
    z = G(p, q)
    m = z * z.conj()
    t = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    u = m.re * (t * t - 1) / (2 * t)
    s_val = G(m.re * (t * t + 1) / (2 * t))
    point = {
        "z": z,
        "zb": z.conj(),
        "u": G(u),
        "pi": G(Fraction(355, 113)),  # any positive stand-in; pi never cancels
    }
    v_zeta = G(Fraction(rng.randint(1, 7)), Fraction(rng.randint(1, 7)))
    atom_values = {
        "log_s": G(Fraction(rng.randint(1, 9), 2)),
        "log_zeta": v_zeta,
        "log_zetab": v_zeta.conj(),
        "log_2pi": G(Fraction(rng.randint(1, 9), 3)),
    }
    return point, s_val, atom_values


def log_eval(x, point, s_val, atom_values):
    """The value of a LogExpr at a probe point, given a value for each atom."""
    total = GR_ZERO
    for key, c in x.terms.items():
        v = c.eval(point, s_val)
        for atom, p in key:
            v = v * atom_values[atom.name] ** p
        total = total + v
    return total


def duality_residuals(frame):
    """Pairing residuals of an AdaptedCoframe; all nine should be zero scalars."""
    out = []
    for name, f in (("theta", frame.theta), ("theta1", frame.theta1), ("theta1b", frame.theta1b)):
        row = frame.expand_in_coframe(f)
        for k in ("theta", "theta1", "theta1b"):
            out.append((f"{name}({k})", row[k] - 1 if k == name else row[k]))
    return out


def random_data(seed, degree=2) -> MoserData:
    """Normal-form data with random u-polynomial coefficients of the given degree."""
    rng = Random(seed)
    pick = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    c42 = tuple(G(pick(), pick()) for _ in range(degree + 1))
    c33 = tuple(G(pick()) for _ in range(degree + 1))
    return MoserData(c42=c42, c33=c33)


def reports_from_json(text):
    """(meta, reports) read back from reports_to_json output."""
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown report schema {doc.get('schema')!r}")
    return doc.get("meta", {}), [VerificationReport(**d) for d in doc["checks"]]
