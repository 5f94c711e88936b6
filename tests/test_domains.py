"""Domain rules: an outer radius R, a lambda or a circle radius rho outside
its domain, NaN and infinity included, or circle angles other than a grid
circle_angles(M), raises ParameterDomainError instead of returning NaN or
failing inside the arithmetic."""

import math

import numpy as np
import pytest

from annulus_harmonics import (
    LambdaOperator,
    ParameterDomainError,
    circular_mean,
    dirichlet_energy,
    enclosed_area,
    evolution_lower_bound,
    extremal_map,
    injectivity_probe,
    k_endpoint,
    k_functional,
    k_quadrature,
    lambda_from_radii,
    mean_outer_radius,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    radial_integrate,
    winding_number,
)
from annulus_harmonics.bounds import gz_weight, variance_k_bound
from annulus_harmonics.means import variance_deriv2_termwise
from annulus_harmonics.operators import identity_residuals, speed_bound
from annulus_harmonics.reports import MAX_TRIALS, DrawPlan
from annulus_harmonics.series import (
    circle_angles,
    circle_fields,
    circle_grid_fields,
    require_lambda,
    require_outer,
    require_radii,
)

NAN, INF = math.nan, math.inf
H = extremal_map(0.5)
U = quadratic_mean_profile(H)

CASES = {
    "circle_fields-inf": lambda: circle_fields(H, INF, circle_angles(8)),
    "circle_fields-off-grid": lambda: circle_fields(H, 1.5, np.array([0.3, 1.1])),
    "circle_fields-empty": lambda: circle_fields(H, 1.5, np.empty(0)),
    "circle_grid_fields-inf": lambda: circle_grid_fields(H, [1.5, INF], 8),
    "lambda_from_radii-R-inf": lambda: lambda_from_radii(INF, 2.0),
    "lambda_from_radii-R_star-nan": lambda: lambda_from_radii(2.0, NAN),
    "LambdaOperator.apply-inf": lambda: LambdaOperator(0.5).apply(U, INF),
    "LambdaOperator.apply_jet-inf":
        lambda: LambdaOperator(0.5).apply_jet(INF, 1.0, 1.0, 1.0),
    "identity_residuals-inf": lambda: identity_residuals(H, 0.5, INF),
    "k_functional-inf": lambda: k_functional(U, 0.5, INF),
    "k_quadrature-inf": lambda: k_quadrature(H, 0.5, INF),
    "k_endpoint-inf": lambda: k_endpoint(H, 0.5, INF),
    "evolution_lower_bound-nan": lambda: evolution_lower_bound(H, NAN),
    "circular_mean-inf": lambda: circular_mean(H, INF),
    "quadratic_mean_numeric-inf": lambda: quadratic_mean_numeric(H, INF),
    "enclosed_area-inf": lambda: enclosed_area(H, INF),
    "winding_number-nan": lambda: winding_number(H, NAN),
    "radial_integrate-inf": lambda: radial_integrate(np.ones_like, 1.0, INF),
    "dirichlet_energy-inf": lambda: dirichlet_energy(H, 1.0, INF),
    "injectivity_probe-inf": lambda: injectivity_probe(H, INF),
    "mean_outer_radius-nan": lambda: mean_outer_radius(H, NAN),
    "variance_k_bound-inf": lambda: variance_k_bound(H, INF),
    "gz_weight-R-nan": lambda: gz_weight(NAN, 0.5, 1.5),
    "gz_weight-lambda-5": lambda: gz_weight(2.0, 5.0, 1.5),
    "gz_weight-rho-nan": lambda: gz_weight(2.0, 0.5, [1.5, NAN]),
    "speed_bound-rho-inf": lambda: speed_bound(INF, 0.5),
    "speed_bound-lambda--1": lambda: speed_bound(1.5, -1.0),
    "variance_deriv2_termwise-nan": lambda: variance_deriv2_termwise(H, NAN),
    "require_lambda-array": lambda: require_lambda(np.array([0.5, 1.5])),
    "require_outer-array": lambda: require_outer(np.array([2.0, 1.0])),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_is_rejected(call):
    with pytest.raises(ParameterDomainError):
        call()


@pytest.mark.parametrize("R", [1.0, 0.5, -2.0, NAN, INF, -INF])
def test_require_outer_rejects(R):
    with pytest.raises(ParameterDomainError, match="R must satisfy"):
        require_outer(R)


@pytest.mark.parametrize("lam", [-1.0, 1.5, NAN, INF, -INF])
def test_require_lambda_rejects(lam):
    with pytest.raises(ParameterDomainError, match="lambda must lie"):
        require_lambda(lam)


@pytest.mark.parametrize("rho", [0.0, -1.0, NAN, INF, 0, np.float64(NAN),
                                 np.array(INF), np.array([1.0, 0.0]),
                                 [2.0, NAN], np.array([[1.0], [INF]])])
def test_require_radii_rejects(rho):
    with pytest.raises(ParameterDomainError, match="rho must be positive"):
        require_radii(rho)


@pytest.mark.parametrize("rho", [1e-300, 1.0, 3, np.float64(2.0),
                                 np.array(2.0), [1.0, 2.0], np.empty(0)])
def test_require_radii_accepts(rho):
    require_radii(rho)


def test_domain_edges_are_accepted():
    require_outer(1.0 + 1e-15)
    require_lambda(1.0)
    require_lambda(-1.0 + 2e-9)


@pytest.mark.parametrize("trials", [0, -3, MAX_TRIALS + 1, 10**18])
def test_draw_plan_rejects_trials_outside_its_range(trials):
    with pytest.raises(ParameterDomainError, match=f"trials must lie in 1..{MAX_TRIALS}"):
        DrawPlan(0, trials)


def test_draw_plan_accepts_its_range():
    assert MAX_TRIALS == 10_000
    for trials in (1, MAX_TRIALS):
        assert DrawPlan(0, trials).trials == trials
