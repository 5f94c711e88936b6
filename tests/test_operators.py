"""The lambda operators, their integral identities and the sharp bound."""

import math

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    LambdaOperator,
    ParameterDomainError,
    SpeedSignError,
    evolution_lower_bound,
    extremal_map,
    k_endpoint,
    k_quadrature,
    quadratic_mean_profile,
    variance_subsolution_min,
)
from annulus_harmonics.operators import identity_residuals
from annulus_harmonics.sampling import normalize_inner, perturb_extremal

E32 = math.exp(1.5)
CRITICAL = extremal_map(1.0)
IDENTITY = extremal_map(0.0)
GRID = np.linspace(1.01, 5.0, 200)


def equality_family_series(lam, alpha, beta, a0=0j, b0=0j):
    """Series whose variance the lam-operator annihilates."""
    return HarmonicSeries.from_coeffs(
        N=1,
        a={1: alpha / (1 + lam), -1: beta * lam / (1 + lam)},
        b={1: alpha * lam / (1 + lam), -1: beta / (1 + lam)},
        a0=a0, b0=b0,
    )


# ---------------------------------------------------------------------------
# operator basics
# ---------------------------------------------------------------------------

def test_operator_domain():
    with pytest.raises(ParameterDomainError):
        LambdaOperator(-1.0)
    with pytest.raises(ParameterDomainError):
        LambdaOperator(1.5)


def test_operator_singular_point():
    op = LambdaOperator(-0.5)
    with pytest.raises(ParameterDomainError):
        op.apply(quadratic_mean_profile(IDENTITY), 0.5)  # rho^2 + lam < 0


@pytest.mark.parametrize("lam", [1.0, 0.0, 0.3, -0.5, 0.9])
def test_operator_annihilates_extremal_mean(lam):
    op = LambdaOperator(lam)
    P = quadratic_mean_profile(extremal_map(lam))
    rho = np.linspace(1.001, E32, 300)
    assert float(np.max(np.abs(op.apply(P, rho)))) < 1e-11


def test_divergence_form_agrees(tame_series):
    h = tame_series(seed=41, N=6, decay=0.3)
    P = quadratic_mean_profile(h)
    op = LambdaOperator(0.4)
    coarse = op.divergence_form_residual(P, 1.8, step=2e-3)
    fine = op.divergence_form_residual(P, 1.8, step=1e-3)
    assert coarse < 1e-4
    assert fine <= coarse / 3.0 + 1e-9  # truncation shrinks with the step


@pytest.mark.parametrize("seed", [2, 3, 8, 23, 37])
def test_divergence_form_agreement_holds_for_fragile_seeds(seed):
    # Seeds whose worst unextrapolated residual exceeded the 1e-5 tolerance.
    from annulus_harmonics.reports import DEFAULT_TOLERANCES, run_suite

    checks = {c.name: c for c in run_suite("identities", seed, 100)}
    div = checks["divergence-form-agreement"]
    assert div.tolerance == DEFAULT_TOLERANCES["divergence"] == 1e-5
    assert div.passed and div.residual <= 1e-7
    assert all(c.passed for c in checks.values())


def test_divergence_form_identity_map_exact():
    residual = LambdaOperator(1e-12).divergence_form_residual(
        quadratic_mean_profile(IDENTITY), 2.0, step=1e-3
    )
    assert residual < 1e-9


# ---------------------------------------------------------------------------
# circle-mean identities
# ---------------------------------------------------------------------------

def test_identities_critical_map():
    g, a = identity_residuals(CRITICAL, 1.0, 1.7)
    assert g < 1e-12 and a < 1e-12


def test_identities_identity_map():
    g, a = identity_residuals(IDENTITY, 1e-12, 2.0)
    assert g < 1e-12 and a < 1e-12


def test_identities_random(tame_series, rng):
    for seed in range(20):
        h = tame_series(seed=seed, N=10, decay=0.2)
        lam = rng.uniform(-0.9, 1.0)
        rho = rng.uniform(1.05, E32)
        g, a = identity_residuals(h, lam, rho)
        assert g < 1e-9
        assert a < 1e-9


# ---------------------------------------------------------------------------
# the weighted integral and its endpoint form
# ---------------------------------------------------------------------------

def test_endpoint_identity_map_frozen_value():
    # Direct substitution: (8/5)*4 - 2*5/4 - (3/2)*2 = 0.9, confirmed by
    # independent quadrature of the weighted operator below.
    assert k_endpoint(IDENTITY, 1.0, 2.0) == pytest.approx(0.9, abs=1e-12)
    assert k_quadrature(IDENTITY, 1.0, 2.0) == pytest.approx(0.9, abs=1e-9)


@pytest.mark.parametrize("lam", [-0.9, -0.3, 0.0, 0.5, 1.0])
def test_k_vanishes_on_extremal(lam):
    h = extremal_map(lam)
    assert abs(k_endpoint(h, lam, 2.5)) < 1e-11
    assert abs(k_quadrature(h, lam, 2.5)) < 1e-8


def test_k_constant_map():
    b0 = 1.5 - 2j
    h = HarmonicSeries.from_coeffs(N=1, b0=b0)
    R = 2.0
    want = abs(b0) ** 2 * (2 * R**2 / (R**2 + 1) - (R**2 + 1) / 2)
    assert k_endpoint(h, 1.0, R) == pytest.approx(want, rel=1e-13)


def test_k_quadrature_matches_endpoint(tame_series, rng):
    for seed in range(20):
        h = tame_series(seed=seed, N=8, decay=0.2)
        lam = rng.uniform(-0.9, 1.0)
        R = rng.uniform(1.1, E32)
        ke = k_endpoint(h, lam, R)
        kq = k_quadrature(h, lam, R)
        assert abs(kq - ke) <= 1e-6 * (1 + abs(ke))


# ---------------------------------------------------------------------------
# variance subsolution
# ---------------------------------------------------------------------------

def test_variance_subsolution_random(tame_series, rng):
    for seed in range(25):
        h = tame_series(seed=seed, N=10, decay=0.15)
        lam = rng.uniform(-0.9, 1.0)
        assert variance_subsolution_min(h, lam, GRID) >= -1e-10


def test_variance_subsolution_equality_family(rng):
    for _ in range(10):
        lam = rng.uniform(-0.9, 1.0)
        h = equality_family_series(
            lam,
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            a0=complex(rng.normal(), rng.normal()),
            b0=complex(rng.normal(), rng.normal()),
        )
        op = LambdaOperator(lam)
        from annulus_harmonics import variance_profile

        worst = float(np.max(np.abs(op.apply(variance_profile(h), GRID))))
        assert worst < 1e-11


def test_variance_subsolution_constant_map():
    h = HarmonicSeries.from_coeffs(N=1, b0=4.0)
    assert variance_subsolution_min(h, 0.7, GRID) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# sharp lower bound for the evolution of circles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.6, 1.0])
def test_evolution_bound_equality_for_extremal(lam):
    h = extremal_map(lam)
    for s in (1.2, 2.0, 3.5):
        measured, bound = evolution_lower_bound(h, s)
        assert measured == pytest.approx(bound, abs=1e-13)


def test_evolution_bound_strict_for_perturbation():
    h = perturb_extremal(1.0, 2, 1e-3, renormalize=True)
    measured, bound = evolution_lower_bound(h, 2.0)
    assert measured > bound
    assert measured - bound < 1e-4  # second-order gap


def test_evolution_bound_near_inner_circle():
    h = extremal_map(0.5)
    measured, bound = evolution_lower_bound(h, 1.0 + 1e-9)
    assert measured == pytest.approx(1.0, abs=1e-8)
    assert bound == pytest.approx(1.0, abs=1e-8)


def test_evolution_bound_preconditions(tame_series):
    shifted = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=1.0)
    with pytest.raises(ParameterDomainError):
        evolution_lower_bound(shifted, 2.0)  # b0 != 0
    with pytest.raises(ParameterDomainError):
        evolution_lower_bound(HarmonicSeries.from_coeffs(a={1: 2.0}), 2.0)  # U(1)=4
    sinking = normalize_inner(HarmonicSeries.from_coeffs(a={-1: 1.0}))
    with pytest.raises(SpeedSignError):
        evolution_lower_bound(sinking, 2.0)  # speed -1


# ---------------------------------------------------------------------------
# drawn-coefficient properties
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(a1=coeff, b1=coeff, a2=coeff, b2=coeff,
       lam=st.floats(-0.9, 1.0), rho=st.floats(1.05, 4.0))
def test_identity_residuals_property(a1, b1, a2, b2, lam, rho):
    h = HarmonicSeries.from_coeffs(a={1: a1, 2: a2}, b={1: b1, -2: b2})
    g, a = identity_residuals(h, lam, rho)
    assert g < 1e-10
    assert a < 1e-10


@settings(max_examples=40, deadline=None)
@given(a1=coeff, b2=coeff, lam=st.floats(-0.9, 1.0), R=st.floats(1.1, 4.0))
def test_endpoint_identity_property(a1, b2, lam, R):
    h = HarmonicSeries.from_coeffs(a={1: a1}, b={2: b2}, a0=0.2j, b0=0.1)
    ke = k_endpoint(h, lam, R)
    kq = k_quadrature(h, lam, R)
    assert abs(kq - ke) <= 1e-7 * (1.0 + abs(ke))
