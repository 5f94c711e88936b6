"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed, not calibrated at runtime.  C01-C04 and
C06-C09 run the criteria of `reports` (the code behind `verify`) on the
pinned draw plans of `PINNED`; C05, C10 and C11 have no `verify` check.
"""

import math

import numpy as np
import pytest

from annulus_harmonics import (
    evolution_lower_bound,
    extremal_map,
    quadratic_mean_mode,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    random_series,
    scale_rotate,
    theorem_gate,
    uniqueness_probe,
    variance_profile,
    winding_number,
)
from annulus_harmonics import reports
from annulus_harmonics.quadrature import dirichlet_energy
from annulus_harmonics.reports import DEFAULT_TOLERANCES, DrawPlan, _draw_config, sweep
from annulus_harmonics.sampling import normalize_inner
from annulus_harmonics.series import circle_grid_fields
from test_sampling import ensure_nonneg_speed

E = math.e
E32 = math.exp(1.5)
CRITICAL = extremal_map(1.0)

# (tag, criterion, plan).  C02: 334 series x 3 circles x 10 lambdas = 10020
# (series, circle, lambda) entries; C07b: max(1, 200 // 2) = 100 draws.
# Criteria on fixed grids ignore their plan.
PINNED = [
    ("C01", reports.extremal_annihilation, DrawPlan(1, 1)),
    ("C02", reports.circle_identities, DrawPlan(2, 334)),
    ("C03a", reports.endpoint_identity, DrawPlan(3, 200)),
    ("C03b", reports.extremal_k_zero, DrawPlan(3, 1)),
    ("C04a", reports.variance_subsolution, DrawPlan(4, 1000)),
    ("C04b", reports.equality_family, DrawPlan(4, 200)),
    ("C06a", reports.wide_certificate, DrawPlan(6, 1)),
    ("C06b", reports.mode_certificate, DrawPlan(6, 1)),
    ("C07a", reports.mode_form, DrawPlan(7, 1)),
    ("C07b", reports.variance_lower_bound, DrawPlan(7, 200)),
    ("C08a", reports.inner_circle_identity, DrawPlan(8, 200)),
    ("C08b", reports.inner_area_limit, DrawPlan(8, 1)),
    ("C09", reports.conformal_refinement, DrawPlan(9, 50)),
]


def report(tag: str, label: str, worst: float, tol: float) -> None:
    """Print and assert one criterion; a non-finite worst residual fails.

    The pinned criteria reduce their residuals in reports._check, and the
    loops here reduce theirs with np.max; both keep a NaN from any draw
    (Python's max and min drop one after the first).
    """
    ok = math.isfinite(worst) and worst <= tol
    print(f"[{tag}] {label}: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, tolerance {tol:.1e})")
    assert ok, f"{label}: worst residual {worst} exceeds {tol} or is not finite"


def accept(test_tag: str) -> None:
    """Run every pinned criterion of one test and report each of its checks;
    a tag that matches no row fails rather than passing with nothing run."""
    ran = 0
    for tag, criterion, plan in PINNED:
        if tag.startswith(test_tag):
            for c in criterion(plan, DEFAULT_TOLERANCES):
                report(tag, c.name, c.residual, c.tolerance)
                ran += 1
    assert ran, f"no pinned criterion has the tag {test_tag!r}"


def test_c01_extremal_annihilation():
    accept("C01")


def test_c02_circle_mean_identities():
    accept("C02")


def test_c03_weighted_integral_endpoint_identity():
    accept("C03")


def test_c04_variance_subsolution():
    accept("C04")


def test_c05_speed_bound_for_normalized_series():
    rng = np.random.default_rng(5)
    s_values = np.linspace(1.02, E32, 50)
    violations = []
    for _ in range(100):
        h = random_series(_draw_config(rng, 2, 8, 0.2))
        h = ensure_nonneg_speed(normalize_inner(h))
        for s in s_values:
            measured, bound = evolution_lower_bound(h, float(s))
            violations.append(bound - measured)
    report("C05a", "mean radius dominates the speed bound", np.max(violations), 1e-10)

    equality_gaps = []
    for lam in (-0.5, 0.0, 0.4, 1.0):
        h = scale_rotate(extremal_map(lam), np.exp(0.9j))
        for s in (1.3, 2.0, 3.1):
            measured, bound = evolution_lower_bound(h, s)
            equality_gaps.append(abs(measured - bound))
    report("C05b", "rotated extremal maps attain equality", np.max(equality_gaps), 1e-12)


def test_c06_certificates():
    accept("C06")


def test_c07_per_mode_form_and_variance_estimate():
    accept("C07")


def test_c08_inner_boundary_identity_and_area_limit():
    accept("C08")


def test_c09_conformal_refinement():
    accept("C09")


def test_c10_critical_configuration_and_uniqueness():
    margins = []
    for R in (1.5, E, E32):
        rep = theorem_gate(CRITICAL, R)
        assert rep.verdict == "pass"
        margins.append(abs(rep.margin))
    report("C10a", "critical configuration has zero margin", np.max(margins), 1e-12)

    probe = uniqueness_probe(E)
    assert np.min(probe.gaps) > 0.0, "perturbation gap must be strictly positive"
    slope_err = abs(probe.loglog_slope - 2.0)
    report("C10b", "perturbation gap grows quadratically (slope 2)",
           slope_err, 0.1)
    assert probe.const_term_breaks_class


def test_c11_oracle_agreement():
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(1000):
        h = random_series(_draw_config(rng, 8, 8, 0.4))
        rho = float(rng.uniform(1.0, 2.0))
        closed = float(quadratic_mean_profile(h).value(rho))
        gaps.append(abs(closed - quadratic_mean_numeric(h, rho)))
    report("C11a", "closed-form quadratic mean matches quadrature", np.max(gaps), 1e-12)

    energy_gaps = []
    for _ in range(5):
        h = random_series(_draw_config(rng, 6, 6, 0.3))
        U = quadratic_mean_profile(h)
        lhs = 1.8 * float(U.deriv1(1.8)) - 1.2 * float(U.deriv1(1.2))
        rhs = dirichlet_energy(h, 1.2, 1.8) / math.pi
        energy_gaps.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    U1 = quadratic_mean_profile(CRITICAL)
    lhs = 2.0 * float(U1.deriv1(2.0)) - 1.0 * float(U1.deriv1(1.0))
    rhs = dirichlet_energy(CRITICAL, 1.0, 2.0) / math.pi
    energy_gaps.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    report("C11b", "energy identity against closed-form derivative",
           np.max(energy_gaps), 1e-8)

    for lam in (-0.9, -0.3, 0.0, 0.6, 1.0):
        for rho in (1.2, 2.0, 3.5):
            assert winding_number(extremal_map(lam), rho) == 1
    print("[C11c] winding of extremal maps equals 1: PASS (exact)")

    rhos = rng.uniform(1.0, E32, size=100)
    expected = (rhos**4 - 1.0) / (4.0 * rhos**4)
    jac = circle_grid_fields(CRITICAL, rhos, 8).jacobian(rhos)
    report("C11d", "critical-map Jacobian matches closed form",
           np.max(np.abs(jac - expected[:, None])), 1e-12)


@pytest.mark.parametrize("seed", [40, 41, 42, 43])
def test_verify_all_passes_for_fresh_seeds(seed):
    """Every check of the full report passes on seeds no other test pins,
    with its residual/tolerance within its gate (reports.CHECKS)."""
    result = sweep([seed], 100)
    assert (result.failed, result.above_gate) == ([], []), result.worst


def test_mode_chain_matches_the_per_mode_sum():
    """The chain C04a compares with L_lam[V] is read off V's jet; a slip in
    that identity could only weaken the check, so pin it to the modes."""
    rng = np.random.default_rng(44)
    grid = np.linspace(1.01, 5.0, 200)
    gaps = []
    for _ in range(20):
        h = random_series(_draw_config(rng, 1, 10, 0.5))
        direct = sum((n * n - 1.0) * quadratic_mean_mode(h, n).value(grid)
                     for n in range(-h.N, h.N + 1) if n != 0) * 2.0 / grid**2
        chain = reports._mode_chain(h, grid, *variance_profile(h).jet(grid))
        gaps.append(np.max(np.abs(chain - direct) / (1.0 + np.abs(direct))))
    assert np.max(gaps) <= 1e-13


def test_accept_fails_an_unknown_tag():
    with pytest.raises(AssertionError, match="no pinned criterion"):
        accept("C99")


@pytest.mark.parametrize("worst", [math.nan, math.inf, -math.inf])
def test_report_fails_a_nonfinite_worst(worst):
    with pytest.raises(AssertionError, match="not finite"):
        report("X", "non-finite residual", worst, 1.0)


def test_nan_on_a_later_draw_fails_the_criterion(monkeypatch):
    """A NaN residual after the first draw survives to the report (C02's
    334 series x 3 circles x 10 lambdas, evaluated in chunks of series; the
    last member of the second chunk reads NaN on its last circle)."""
    real = reports.identity_residuals_stack
    entries = []

    def residuals(h, lam, rho):
        grad, ang = real(h, lam, rho)
        entries.append(grad.size)
        if len(entries) == 2:
            grad[-1, -1, -1] = math.nan
        return grad, ang

    monkeypatch.setattr(reports, "identity_residuals_stack", residuals)
    with pytest.raises(AssertionError, match="worst residual nan"):
        test_c02_circle_mean_identities()
    assert len(entries) > 2 and sum(entries) == 10_020
