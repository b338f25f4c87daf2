"""Sphere chart: exact structure checks, compiled quadrature, delta constant."""

import math
import os
import subprocess
import sys
import types
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crprime import sphere
from crprime.expr import LogExpr, RatExpr
from crprime.forms import exterior_d, reeb_field, wedge
from crprime.gauss import G
from crprime.heisenberg import flat_model
from crprime.poly import P_ONE, Poly
from crprime.report import has_failure
from crprime.sphere import (
    CHART_DENOMINATOR,
    SIXTEEN_PI_SQ,
    QuadratureConfig,
    bump_profile,
    chart_factor,
    chart_upsilon,
    compile_integrand,
    decay_report,
    delta_normalization,
    delta_reports,
    integrate_ball,
    integrate_chart,
    probe_report,
    qprime_volume_integrand,
    sphere_structure_in_chart,
    sphere_suite,
    _frac,
    _gauss,
    _standard_flat_structure,
    _taylor_shift,
    _total,
)
from crprime.structure import (
    cr_laplacian,
    pseudo_einstein_tensor,
    q_prime,
    solve_structure,
    torsion_transform,
    verify_structure,
)


# -- exact layer ---------------------------------------------------------------


def test_chart_factor_normalization():
    assert (chart_factor() * CHART_DENOMINATOR - 4).is_zero()


def test_chart_upsilon_exponentiates_to_the_factor():
    assert chart_upsilon().exp() == chart_factor()


def test_chart_upsilon_annotation_resolves():
    assert typing.get_type_hints(chart_upsilon)["return"] is LogExpr


def test_structure_is_torsion_free_and_pseudo_einstein():
    hat = sphere_structure_in_chart()
    assert hat.A.is_zero()
    assert pseudo_einstein_tensor(hat).is_zero()


def test_unhinted_solve_of_the_chart_form():
    # the chart form's Reeb field has a dz part, so the solver's own theta1 =
    # dz - T.vz theta and the kernel reeb_field reads from dtheta both matter
    hat = sphere_structure_in_chart()
    assert not reeb_field(hat.theta, exterior_d(hat.theta)).vz.is_zero()
    st = solve_structure(hat.theta)
    for name, resid in verify_structure(st):
        assert resid.is_zero(), name
    assert (st.R - hat.R).is_zero()
    assert st.A.is_zero()


def test_curvature_is_the_constant_two():
    hat = sphere_structure_in_chart()
    pt = {"z": G(1, 2), "zb": G(1, -2), "u": G(Fraction(3, 7)), "pi": G(Fraction(355, 113))}
    assert isinstance(hat.R, RatExpr)
    assert hat.R.eval(pt, G(Fraction(11, 2))) == G(2)
    assert (q_prime(hat) - 4).is_zero()


def test_torsion_transformation_law_agrees_with_resolve():
    hat = sphere_structure_in_chart()
    dual = torsion_transform(flat_model().structure, chart_upsilon())
    assert (dual - hat.A).is_zero()


def test_chart_factor_is_green_squared_up_to_the_denominator_ratio():
    fm = flat_model()
    sixteen_pi2 = RatExpr(Poly.monomial(G(16), 0, 0, 0, 2))
    sigma = (Poly.var("z") * Poly.var("zb")) ** 2 + Poly.var("u") ** 2
    lhs = chart_factor() * CHART_DENOMINATOR
    rhs = sixteen_pi2 * fm.green * fm.green * sigma
    assert (lhs - rhs).is_zero()


def chart_volume_density(theta):
    """Density of theta wedge dtheta against dx dy du (dz^dzb = -2i dx^dy)."""
    vol = wedge(theta, exterior_d(theta))
    return vol.comps[0] * RatExpr(Poly.const(G(0, -2)))


def test_chart_volume_density_is_one_and_four():
    fm = flat_model()
    assert (chart_volume_density(fm.structure.theta) - 1).is_zero()
    assert (chart_volume_density(_standard_flat_structure().theta) - 4).is_zero()


# -- quadrature config ----------------------------------------------------------


def test_config_rejects_degenerate_grids():
    with pytest.raises(ValueError):
        QuadratureConfig(n_radial=3)
    with pytest.raises(ValueError):
        QuadratureConfig(n_angular=0)
    with pytest.raises(ValueError):
        QuadratureConfig(tol=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(tol=bad)


def test_config_halving_floors_at_four():
    c = QuadratureConfig(n_radial=6, n_angular=4, n_azimuthal=5)
    h = c.halved()
    assert (h.n_radial, h.n_angular, h.n_azimuthal) == (4, 4, 4)
    d = c.doubled()
    assert (d.n_radial, d.n_angular, d.n_azimuthal) == (12, 8, 10)


# -- compiled integrands ---------------------------------------------------------


def test_compile_rejects_non_rational_input():
    with pytest.raises(ValueError):
        compile_integrand(flat_model().log_green)


def test_compile_requires_singularity_declaration():
    green = flat_model().green
    with pytest.raises(ValueError, match="undeclared"):
        compile_integrand(green)
    with pytest.raises(ValueError, match="integrable"):
        compile_integrand(green, singular_exponent=4)
    assert compile_integrand(green, singular_exponent=2).singular_exponent == 2


def test_compiled_green_matches_exact_on_probe_points():
    ci = compile_integrand(flat_model().green, singular_exponent=2)
    rep = probe_report(ci, "probe.green", seed=3)
    assert rep.status == "pass"
    assert float(rep.residual) <= 1e-12


def test_compiled_green_pointwise_value():
    ci = compile_integrand(flat_model().green, singular_exponent=2)
    # z = 1, u = 0: s = 1, G = 1/(2 pi)
    val = complex(ci.fn(1.0, 0.0, 0.0))
    assert abs(val - 1 / (2 * math.pi)) < 1e-15


def test_qprime_integrand_probes_and_decays():
    ci = qprime_volume_integrand()
    assert probe_report(ci, "probe.qprime", seed=1).status == "pass"
    dec = decay_report(ci, "decay.qprime")
    assert dec.status == "pass"
    assert float(dec.residual) > 7.5  # closed form falls off like rho^-8


def _fresh_power(base, k):
    """base^k as base * base * ... * base, left to right, and 1.0 for k = 0."""
    out = 1.0
    for i in range(k):
        out = base if i == 0 else out * base
    return out


def _fresh_z_power(x, y, k):
    """(Re z^k, Im z^k) for z = x + iy, one product by z at a time."""
    re, im = 1.0, 0.0
    for i in range(k):
        re, im = (x, y) if i == 0 else (re * x - im * y, re * y + im * x)
    return re, im


def reference_fn(e, x, y, u, pi_value=math.pi, s=None):
    """The compiled integrand's grouped real form, every power taken afresh.

    For a >= b, z^a zb^b and its conjugate partner make m^b Re(C z^(a-b)),
    with m = x^2 + y^2 and C the sum of w pi^d u^c, w the coefficient (twice
    it for a > b).  Each group adds Re(C) Re(z^k) + (-Im C) Im(z^k), where a
    part of C sums (sum of w pi^d over ascending d) u^c over ascending c and
    skips zero weights; the groups are summed from +0 in (j, k) order, and
    the denominator factors divide one after the other.

    s defaults to the gauge of (x, y, u); a centered integrand passes the
    differences from its center as (x, y, u) and the absolute gauge as s.
    """
    x, y, u = (np.asarray(a, dtype=float) for a in (x, y, u))
    shape = np.broadcast(x, y, u).shape
    m = x * x + y * y
    if s is None:
        s = np.sqrt(m * m + u * u)

    def ev(p):
        groups = {}
        for (a, b, c, d), coef in p.coeffs():
            if a >= b:
                groups.setdefault((b, a - b), []).append((c, d, coef * 2 if a > b else coef))
        tot = np.zeros(shape)
        for (j, k), terms in sorted(groups.items()):
            v = None
            for part, zk in zip(((lambda w: w.re), (lambda w: -w.im)), _fresh_z_power(x, y, k)):
                col = None
                for c in sorted({c for c, _, w in terms if part(w)}):
                    a = sum(float(part(w)) * _fresh_power(pi_value, d)
                            for c2, d, w in sorted(terms, key=lambda t: t[:2])
                            if c2 == c and part(w))
                    term = a * _fresh_power(u, c)
                    col = term if col is None else col + term
                if col is not None:
                    v = col * zk if v is None else v + col * zk
            tot = tot + v * _fresh_power(m, j)
        return tot

    num = ev(e.na)
    if not e.nb.is_zero():
        num = num + ev(e.nb) * s
    for f, k in e.den.items():
        num = num / _fresh_power(ev(f), k)
    return num


def test_power_tables_leave_every_float_unchanged():
    fm = flat_model()
    bump = bump_profile(5, center=((3, 2), 0, 0))
    integrands = [
        compile_integrand(fm.green * cr_laplacian(fm.structure, RatExpr(bump)),
                          singular_exponent=2),
        qprime_volume_integrand(),
        compile_integrand(fm.green, singular_exponent=2),
    ]
    # one shell of the off-center delta ball, which keeps clear of the pole;
    # phi = 0 gives a row with y = 0 exactly, where Im z^k is a signed zero
    psi = (np.pi / 2) * _gauss(40)[0]
    phi = 2 * np.pi * np.arange(16) / 16
    PSI, PHI = np.meshgrid(psi, phi, indexing="ij")
    r = 0.7 * np.sqrt(np.cos(PSI))
    shell = (1.5 + r * np.cos(PHI), r * np.sin(PHI), 0.49 * np.sin(PSI))
    assert np.all(shell[1][:, 0] == 0)
    # u does not depend on phi; the quadrature passes it as one column
    column = shell[:2] + (shell[2][:, :1],)
    for ci in integrands:
        want = reference_fn(ci.exact, *shell)
        assert np.array_equal(ci.fn(*shell), want), ci.label
        assert np.array_equal(ci.fn(*column), want), ci.label
        # one row of x and y broadcast against the column spans the grid
        row = (shell[0][:1], shell[1][:1], column[2])
        got = ci.fn(*row)
        assert got.shape == shell[0].shape
        assert np.array_equal(got, reference_fn(ci.exact, *row)), ci.label
        for point in ((0.5, -1.5, 0.75), (1.25, 0.25, -3.0)):
            for pi_value in (math.pi, 25 / 8):
                got = ci.fn(*point, pi_value=pi_value)
                want = reference_fn(ci.exact, *point, pi_value=pi_value)
                assert np.ndim(got) == 0
                assert np.array_equal(got, want), (ci.label, point, pi_value)


def test_terms_with_exponent_zero_factors_leave_every_float_unchanged():
    # a constant, pi-only terms, a u-only term and a pair z^2, zb^2 (a != b);
    # the powers with exponent 0 are the float 1.0, which multiplies exactly,
    # and three pi powers share one u^0 weight, which their order can change
    na = (Poly.const(G(Fraction(-9, 7))) + Poly.monomial(G(Fraction(-9, 7)), epi=1)
          + Poly.monomial(G(Fraction(2, 7)), epi=2) + Poly.monomial(G(-1), eu=3)
          + Poly.monomial(G(1, 2), ezb=2) + Poly.monomial(G(1, -2), ez=2))
    nb = Poly.monomial(G(1, -1), ez=1) + Poly.monomial(G(1, 1), ezb=1)
    e = RatExpr(na=na, nb=nb, den={CHART_DENOMINATOR: 2})
    fn = compile_integrand(e).fn
    psi = (np.pi / 2) * _gauss(8)[0]
    PSI, PHI = np.meshgrid(psi, 2 * np.pi * np.arange(6) / 6, indexing="ij")
    r = 0.9 * np.sqrt(np.cos(PSI))
    shell = (0.25 + r * np.cos(PHI), r * np.sin(PHI), -0.5 + 0.81 * np.sin(PSI))
    column = shell[:2] + (shell[2][:, :1],)
    row = (shell[0][:1], shell[1][:1], column[2])
    for args in (shell, column, row, (0.5, -1.5, 0.75), (0.0, 0.0, 0.0)):
        got = fn(*args)
        assert got.shape == np.broadcast(*args).shape
        assert np.array_equal(got, reference_fn(e, *args)), args


def test_compile_rejects_a_polynomial_that_is_not_real():
    # i z, and the chart denominator's unpaired factor D = 1 + z zb - iu
    with pytest.raises(ValueError, match="not real"):
        compile_integrand(Poly.monomial(G(0, 1), ez=1))
    d = P_ONE + Poly.var("z") * Poly.var("zb") - Poly.monomial(G(0, 1), eu=1)
    with pytest.raises(ValueError, match="not real"):
        compile_integrand(RatExpr(na=P_ONE, nb=Poly(), den={d: 1}))
    # the same test runs on the polynomials about a center
    with pytest.raises(ValueError, match="not real"):
        compile_integrand(Poly.monomial(G(0, 1), ez=1), center=((3, 2), 0, 0))


def test_every_integrand_returns_float64_of_the_broadcast_shape():
    grid = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    shapes = ((grid, grid, grid), (grid, grid, grid[:, :1]), (grid[:1], grid[:1], grid[:, :1]),
              (0.5, -1.5, 0.75))
    for ci in (compile_integrand(P_ONE), compile_integrand(7), qprime_volume_integrand()):
        for args in shapes:
            got = ci.fn(*args)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64, ci.label
            assert got.shape == np.broadcast(*args).shape, ci.label
    assert np.array_equal(compile_integrand(P_ONE).fn(grid, grid, grid[:, :1]),
                          np.ones(grid.shape))


# centers as bump_profile takes them: real, complex, and complex with a u offset
CENTERS = (((3, 2), 0, 0), ((3, 2), (-1, 4), 0), ((1, 2), (-3, 4), (5, 8)))


def _exact_center(center):
    xc, yc, uc = (_frac(c) for c in center)
    return G(xc, yc), G(uc)


def _delta_integrand(center):
    fm = flat_model()
    bump = bump_profile(5, center=center)
    return fm.green * cr_laplacian(fm.structure, RatExpr(bump))


@pytest.mark.parametrize("center", CENTERS)
def test_taylor_shift_is_exact(center):
    e = _delta_integrand(center)
    polys = (e.nb, *e.den, CHART_DENOMINATOR * Poly.monomial(G(2, -1), epi=3))
    zc, uc = _exact_center(center)
    shifted = _taylor_shift(polys, zc, uc)
    # zb is an independent variable here, not the conjugate of z
    w, wb, v = G(Fraction(2, 3), Fraction(-1, 5)), G(Fraction(-7, 4), Fraction(1, 2)), G(Fraction(3, 11))
    at_w = {"z": w, "zb": wb, "u": v, "pi": G(Fraction(355, 113))}
    at_z = {"z": w + zc, "zb": wb + zc.conj(), "u": v + uc, "pi": at_w["pi"]}
    for p, q in zip(polys, shifted):
        assert q.eval(at_w) == p.eval(at_z)
    if center == ((3, 2), 0, 0):
        # the off-center delta numerator and denominator about the ball center
        assert [len(q.terms) for q in shifted[:2]] == [80, 10]
        assert len(e.nb.terms) == 360
    assert _taylor_shift(polys, G(0), G(0)) == list(polys)


@pytest.mark.parametrize("center", CENTERS)
def test_centered_compile_is_the_reference_on_the_shifted_polynomials(center):
    e = _delta_integrand(center)
    ci = compile_integrand(e, singular_exponent=2, center=center)
    assert ci.exact is e
    zc, uc = _exact_center(center)
    na, nb, *den = _taylor_shift((e.na, e.nb, *e.den), zc, uc)
    shifted = types.SimpleNamespace(na=na, nb=nb, den=dict(zip(den, e.den.values())))
    xc, yc, uc = float(zc.re), float(zc.im), float(uc.re)

    def want(x, y, u, pi_value=math.pi):
        x, y, u = (np.asarray(a, dtype=float) for a in (x, y, u))
        s = np.sqrt((x * x + y * y) ** 2 + u * u)
        return reference_fn(shifted, x - xc, y - yc, u - uc, pi_value=pi_value, s=s)

    # one shell of the ball around the center, with u as one column
    psi = (np.pi / 2) * _gauss(40)[0]
    PSI, PHI = np.meshgrid(psi, 2 * np.pi * np.arange(16) / 16, indexing="ij")
    r = 0.7 * np.sqrt(np.cos(PSI))
    shell = (xc + r * np.cos(PHI), yc + r * np.sin(PHI), uc + 0.49 * np.sin(PSI))
    column = shell[:2] + (shell[2][:, :1],)
    # and as scalars: a point off the shell, and the center itself
    for args in (shell, column, (0.5, -1.5, uc + 0.7367346938775511), (xc, yc, uc)):
        for pi_value in (math.pi, 25 / 8):
            got = ci.fn(*args, pi_value=pi_value)
            assert got.shape == np.broadcast(*args).shape
            assert np.array_equal(got, want(*args, pi_value=pi_value)), (args, pi_value)


@pytest.mark.parametrize("center", CENTERS)
def test_centered_compile_matches_the_unshifted_exact_expression(center):
    ci = compile_integrand(_delta_integrand(center), singular_exponent=2, center=center)
    rep = probe_report(ci, "probe.centered", seed=5)
    assert rep.status == "pass"
    assert float(rep.residual) <= 1e-12


def test_centered_compile_keeps_the_origin_singularity_test():
    # the shifted denominator does not vanish at 0, the original one does
    green = flat_model().green
    with pytest.raises(ValueError, match="undeclared"):
        compile_integrand(green, center=((3, 2), 0, 0))
    ci = compile_integrand(green, singular_exponent=2, center=((3, 2), 0, 0))
    assert abs(complex(ci.fn(1.0, 0.0, 0.0)) - 1 / (2 * math.pi)) < 1e-15


def reference_shell_sum(ci, rho, wrho, config, center=(0.0, 0.0, 0.0), rotation=0.0):
    """The quadrature with u on the full (psi, phi) grid and fresh powers per term."""
    tp, wp = _gauss(config.n_angular)
    psi = (np.pi / 2) * tp
    wpsi = (np.pi / 2) * wp
    nphi = config.n_azimuthal
    phi = 2 * np.pi * np.arange(nphi) / nphi + rotation
    wphi = 2 * np.pi / nphi
    xc, yc, uc = center
    PSI, PHI = np.meshgrid(psi, phi, indexing="ij")
    partials = []
    for i in range(len(rho)):
        r = rho[i] * np.sqrt(np.cos(PSI))
        x = xc + r * np.cos(PHI)
        y = yc + r * np.sin(PHI)
        u = uc + rho[i] ** 2 * np.sin(PSI)
        v = reference_fn(ci.exact, x, y, u).real
        shell = float(np.einsum("ab,a->", v, wpsi)) * wphi
        partials.append(shell * rho[i] ** 3 * wrho[i])
    return math.fsum(partials)


def test_chart_and_ball_integrals_match_the_full_grid_reference():
    config = QuadratureConfig(n_radial=8, n_angular=8, n_azimuthal=6)
    t, w = _gauss(config.n_radial)

    ci = qprime_volume_integrand()
    tt, wt = (t + 1) / 2, w / 2
    rho, wrho = tt / (1 - tt), wt / (1 - tt) ** 2
    for rotation in (0.0, 0.7368):
        want = reference_shell_sum(ci, rho, wrho, config, rotation=rotation)
        assert integrate_chart(ci, config, rotation=rotation) == want, rotation

    fm = flat_model()
    for center in ((0.0, 0.0, 0.0), (1.5, 0.0, 0.0)):
        bump = bump_profile(5, center=(Fraction(center[0]), 0, 0))
        ci = compile_integrand(fm.green * cr_laplacian(fm.structure, RatExpr(bump)),
                               singular_exponent=2)
        want = reference_shell_sum(ci, (t + 1) / 2, w / 2, config, center=center)
        assert integrate_ball(ci, config, center=center) == want, center


def test_integral_reports_integrate_the_halved_grid_once(monkeypatch):
    configs = []

    def counting(ci, config, rotation=0.0):
        configs.append(config)
        return integrate_chart(ci, config, rotation=rotation)

    monkeypatch.setattr(sphere, "integrate_chart", counting)
    config = QuadratureConfig(n_radial=24, n_angular=12, n_azimuthal=8, tol=1e-3)
    reports = {r.check_id: r for r in sphere.integral_reports(config)}
    assert not has_failure(list(reports.values()))
    assert {"sphere.integral.linearity", "sphere.integral.rotation"} <= set(reports)
    # value, halved and doubled totals, then linearity and rotation on config
    assert configs.count(config.halved()) == 1
    assert configs.count(config) == 3
    assert len(configs) == 5


# -- Gauss-Legendre rules --------------------------------------------------------

# the rules of the halved, default and doubled grids and of the tests above,
# the floor of 4 and an odd size
RULE_SIZES = (4, 5, 8, 20, 40, 48, 80, 96, 192)


def test_gauss_rules_call_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Gauss rule called LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    _gauss.cache_clear()
    try:
        for n in RULE_SIZES:
            _gauss(n)
    finally:
        _gauss.cache_clear()


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_rule_is_ascending_symmetric_and_positive(n):
    x, w = _gauss(n)
    assert len(x) == len(w) == n
    assert -1 < x[0] and x[-1] < 1 and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and math.copysign(1, x[n // 2]) == 1
    assert np.all(w > 0)
    assert not x.flags.writeable and not w.flags.writeable


def _child_env(openblas_threads=None):
    """os.environ with crprime importable and OPENBLAS_NUM_THREADS as given."""
    src = str(Path(sphere.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # this process may carry the variable already, set by importing crprime.sphere
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def _blas_probe(openblas_threads):
    """OPENBLAS_NUM_THREADS and the thread count of a child that imported crprime.cli."""
    script = (
        "import os\n"
        "import crprime.cli\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(openblas_threads),
                          capture_output=True, text=True, check=True)
    value, threads = proc.stdout.split()
    return value, int(threads)


def test_importing_the_cli_starts_no_blas_worker_thread():
    value, threads = _blas_probe(None)
    assert value == "1"
    if not threads:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1


def test_a_blas_thread_count_already_set_is_kept():
    value, _ = _blas_probe("2")
    assert value == "2"


def test_sphere_report_does_not_depend_on_the_blas_pool():
    outputs = set()
    for openblas_threads in (None, "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "crprime", "run", "sphere", "--format", "json"],
            env=_child_env(openblas_threads), capture_output=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def _under_cpu_dispatch_settings(args):
    """stdout of a child running args under the default and two reduced numpy
    CPU feature sets, keyed by NPY_DISABLE_CPU_FEATURES; skips the test where
    numpy refuses a setting.

    The variable acts only on the process that reads it; on a machine without
    AVX-512 these settings change nothing.
    """
    env = _child_env()
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = {}
    for disabled in ("", "AVX512_SPR AVX512_ICL X86_V4",
                     "AVX512_SPR AVX512_ICL X86_V4 X86_V3"):
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, check=not disabled)
        if proc.returncode:
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}: "
                        f"{proc.stderr.decode(errors='replace')}")
        outputs[disabled] = proc.stdout
    return outputs


def test_gauss_rules_do_not_depend_on_numpy_cpu_dispatch():
    script = (
        "import sys\n"
        "from crprime.sphere import _gauss\n"
        f"for n in {RULE_SIZES!r}:\n"
        "    x, w = _gauss(n)\n"
        "    sys.stdout.buffer.write(x.tobytes() + w.tobytes())\n"
    )
    outputs = _under_cpu_dispatch_settings(["-c", script])
    assert len(outputs[""]) == 2 * 8 * sum(RULE_SIZES)
    assert len(set(outputs.values())) == 1


def test_sphere_report_does_not_depend_on_numpy_cpu_dispatch():
    # the compiled integrands use only + - * / and sqrt on float64, which
    # every SIMD kernel rounds the same
    outputs = _under_cpu_dispatch_settings(["-m", "crprime", "run", "sphere", "--format", "json"])
    assert b"sphere.delta.off_center" in outputs[""]
    assert len(set(outputs.values())) == 1


def test_gauss_rules_integrate_low_even_moments_to_a_few_eps():
    # every rule the halved, default and doubled grids use, and odd, small and
    # large ones, summed exactly; tens of eps here fail the node-doubling check
    config = QuadratureConfig()
    sizes = {
        n
        for c in (config.halved(), config, config.doubled())
        for n in (c.n_radial, c.n_angular)
    } | {4, 5, 7, 33, 384}
    eps = np.finfo(float).eps
    for n in sorted(sizes):
        t, w = _gauss(n)
        for k in range(3):
            exact = Fraction(2, 2 * k + 1)
            total = sum(Fraction(wi) * Fraction(ti) ** (2 * k) for ti, wi in zip(t, w))
            assert abs(total - exact) / exact <= 8 * eps, (n, k)


# -- the total integral ----------------------------------------------------------


def total_q_prime(config: QuadratureConfig = None):
    """The integral of Q' over the sphere and its halved-node error estimate.

    Raises ArithmeticError where integral_reports fails sphere.integral.total
    for want of convergence.
    """
    value, err, failure = _total(qprime_volume_integrand(), config or QuadratureConfig())
    if failure:
        raise ArithmeticError(f"quadrature did not converge: {failure}")
    return value, err


def test_total_q_prime_hits_sixteen_pi_squared():
    value, err = total_q_prime()
    assert abs(value - SIXTEEN_PI_SQ) / SIXTEEN_PI_SQ <= 1e-9
    assert err > 0


def test_total_q_prime_converges_under_node_doubling():
    config = QuadratureConfig()
    value, err = total_q_prime(config)
    dense, _ = total_q_prime(config.doubled())
    assert abs(dense - value) <= err


def test_total_q_prime_is_sixteen_pi_squared_to_a_few_eps_on_every_grid():
    config = QuadratureConfig()
    ci = qprime_volume_integrand()
    bound = 4 * np.finfo(float).eps * SIXTEEN_PI_SQ
    for grid in (config.halved(), config, config.doubled()):
        assert abs(integrate_chart(ci, grid) - SIXTEEN_PI_SQ) <= bound, grid


def test_total_q_prime_linearity_and_rotation():
    config = QuadratureConfig()
    ci = qprime_volume_integrand()
    value = integrate_chart(ci, config)
    twice = integrate_chart(qprime_volume_integrand(2), config)
    assert abs(twice - 2 * value) <= 1e-12 * abs(value)
    rotated = integrate_chart(ci, config, rotation=1.1)
    assert abs(rotated - value) <= 1e-8 * abs(value)


def test_total_q_prime_reports_budget_exhaustion():
    with pytest.raises(ArithmeticError, match="converge"):
        total_q_prime(QuadratureConfig(n_radial=8, n_angular=4, n_azimuthal=4, tol=1e-13))


def test_total_q_prime_has_no_estimate_on_the_floored_grid():
    # 4x4x4 halves to itself, so value - halved would be 0 and measure nothing
    floored = QuadratureConfig(n_radial=4, n_angular=4, n_azimuthal=4, tol=1)
    assert floored.halved() == floored
    with pytest.raises(ArithmeticError, match="halved grid equals the grid"):
        total_q_prime(floored)


# -- delta normalization ----------------------------------------------------------


def test_bump_profile_shape():
    b = bump_profile(3)
    origin = {"z": G(0), "zb": G(0), "u": G(0), "pi": G(1)}
    assert b.eval(origin) == G(1)
    edge = {"z": G(1), "zb": G(1), "u": G(0), "pi": G(1)}
    assert b.eval(edge) == G(0)
    with pytest.raises(ValueError):
        bump_profile(0)


def test_delta_constant_chart_and_standard():
    assert abs(delta_normalization(profile=5) - 8.0) < 1e-9
    assert abs(delta_normalization(profile=5, normalization="standard") - 16.0) < 1e-9
    with pytest.raises(ValueError):
        delta_normalization(normalization="levi")


def test_delta_profiles_agree():
    vals = [delta_normalization(profile=k) for k in (4, 6)]
    assert abs(vals[0] - vals[1]) / 8.0 < 0.005


def test_delta_off_center_bump_integrates_to_zero():
    v = delta_normalization(profile=5, center=((3, 2), 0, 0))
    assert abs(v) < 1e-3
    # compiled about the ball center, the integrand loses no digits near it
    assert abs(v) < 1e-7


def test_delta_reports_pass():
    reps = delta_reports()
    assert not has_failure(reps)
    by_id = {r.check_id: r for r in reps}
    assert by_id["sphere.delta.value"].status == "recorded"
    assert "16" in by_id["sphere.delta.value"].detail


def test_integrate_ball_volume():
    # integral of 1 over rho <= 1 is pi^2/2 * B(1/2, ...) -- fix by comparison:
    # dx dy du over the anisotropic ball equals 2*pi * int rho^3 [drho] * pi
    # = pi^2/2; check against the closed form.
    one = compile_integrand(P_ONE, label="one")
    v = integrate_ball(one, QuadratureConfig())
    assert abs(v - math.pi**2 / 2) < 1e-12


# -- the suite --------------------------------------------------------------------


def test_sphere_suite_is_green():
    reps = sphere_suite()
    assert not has_failure(reps)
    ids = [r.check_id for r in reps]
    assert len(ids) == len(set(ids))
    recorded_ids = {r.check_id for r in reps if r.status == "recorded"}
    assert recorded_ids == {
        "sphere.chart.curvature_value",
        "sphere.delta.value",
        "sphere.equality.correction_display",
    }
