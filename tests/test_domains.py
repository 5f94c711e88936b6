"""Input rules: an outer radius R, a lambda or a circle radius rho outside
its domain, NaN and infinity included, an integer past the float range, an
array where one number is expected, a mode number or truncation order that
is not an integer, coefficients that are not finite numbers of the right
shape, sampler arguments its rule refuses, or circle angles other than a
grid circle_angles(M), raises ParameterDomainError instead of returning NaN
or failing inside the arithmetic; finite arguments whose result overflows
raise NumericOverflowError."""

import ast
import cmath
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    LambdaOperator,
    NumericOverflowError,
    ParameterDomainError,
    RadialProfile,
    ToolkitError,
    circular_mean,
    dirichlet_energy,
    enclosed_area,
    evolution_lower_bound,
    extremal_map,
    initial_speed,
    injectivity_probe,
    k_endpoint,
    k_functional,
    k_quadrature,
    kalaj_bound,
    mean_outer_radius,
    nitsche_bound,
    normalize_inner,
    perturb_extremal,
    quadratic_mean_mode,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    radial_integrate,
    scale_rotate,
    schottky_check,
    theorem_gate,
    uniqueness_probe,
    variance_profile,
    weitsman_bound,
    wide_annulus_certificate,
)
from annulus_harmonics.bounds import (
    condition_modulus,
    gz_weight,
    gzbar_gate_margin,
    inner_circle_identity_residual,
    mode_energy_excess,
    mode_form_certificate,
    mode_form_certificate_expanded,
    mode_form_coeffs,
    mode_quadratic_form_residual,
    variance_k_bound,
)
from annulus_harmonics.means import variance_deriv2_termwise
from annulus_harmonics.operators import (
    _denominator,
    _on_jet,
    identity_residuals,
    identity_residuals_stack,
    lambda_from_speed,
    speed_bound,
    variance_subsolution_min,
)
from annulus_harmonics.reports import MAX_TRIALS, DrawPlan, run_suite
from annulus_harmonics.sampling import SamplerConfig, random_series, random_series_stack
from annulus_harmonics.series import (
    SeriesStack,
    _in_float_range,
    from_json_dict,
    circle_angles,
    circle_fields,
    circle_grid_fields,
    require_lambda,
    require_outer,
    require_radii,
)
from test_series import lambda_from_radii

NAN, INF = math.nan, math.inf
H = extremal_map(0.5)
U = quadratic_mean_profile(H)
HUGE = 10**400  # a Python int past the float range
G = random_series(SamplerConfig(seed=1, N=4))
PAIR = random_series_stack([1, 2], [4, 4], 0.6)
VAST = scale_rotate(H, 1e200)  # |a_1|^2 = 1e400: U overflows on every circle

CASES = {
    "circle_fields-inf": lambda: circle_fields(H, INF, circle_angles(8)),
    "circle_fields-off-grid": lambda: circle_fields(H, 1.5, np.array([0.3, 1.1])),
    "circle_fields-empty": lambda: circle_fields(H, 1.5, np.empty(0)),
    "circle_fields-grid-copy": lambda: circle_fields(H, 1.5, circle_angles(8).copy()),
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
    # the scalar circle means and identities take one radius, not an array
    "circular_mean-array": lambda: circular_mean(H, np.array([1.5, 2.0])),
    "quadratic_mean_numeric-array": lambda: quadratic_mean_numeric(H, np.array([1.5])),
    "enclosed_area-array": lambda: enclosed_area(H, np.array([1.5, 2.0])),
    "identity_residuals-rho-array": lambda: identity_residuals(H, 0.5, np.array([1.5, 2.0])),
    "identity_residuals-lambda-array": lambda: identity_residuals(H, np.array([0.5]), 1.5),
    # so do the Schottky entry points and the energy (an array R broadcast
    # against the modes, or failed inside numpy)
    "schottky_check-R-array": lambda: schottky_check(extremal_map(0.0), np.array([1.5, 2.0])),
    "injectivity_probe-R-array": lambda: injectivity_probe(extremal_map(0.0), np.array([2.0])),
    "theorem_gate-R-array": lambda: theorem_gate(H, np.array([3.0, 4.0])),
    "uniqueness_probe-R-array": lambda: uniqueness_probe(np.array([3.0, 4.0])),
    "dirichlet_energy-rho1-array": lambda: dirichlet_energy(H, np.array([1.5, 2.0]), 1.8),
    "dirichlet_energy-rho2-array": lambda: dirichlet_energy(H, 1.2, np.array([1.5])),
    "radial_integrate-inf": lambda: radial_integrate(np.ones_like, 1.0, INF, 1),
    # a degree is a finite number >= 0, not a bool, and lambda lies in (-1, 1]
    **{f"radial_integrate-degree-{name}": (
        lambda degree=degree: radial_integrate(np.ones_like, 1.0, 2.0, degree))
       for name, degree in [("nan", NAN), ("inf", INF), ("str", "x"), ("huge", HUGE),
                            ("-1", -1), ("bool", True), ("array--1", np.array([1, -1]))]},
    "radial_integrate-lambda-2": lambda: radial_integrate(np.ones_like, 1.0, 2.0, 1, 2.0),
    "radial_integrate-lambda-nan": lambda: radial_integrate(np.ones_like, 1.0, 2.0, 1, NAN),
    "dirichlet_energy-inf": lambda: dirichlet_energy(H, 1.0, INF),
    "dirichlet_energy-rho1-nan": lambda: dirichlet_energy(H, NAN, 2.0),
    "dirichlet_energy-rho1-0": lambda: dirichlet_energy(H, 0.0, 2.0),
    "dirichlet_energy-rho1--1": lambda: dirichlet_energy(H, -1.0, 2.0),
    "dirichlet_energy-equal-radii": lambda: dirichlet_energy(H, 1.5, 1.5),
    "dirichlet_energy-reversed-radii": lambda: dirichlet_energy(H, 2.0, 1.5),
    "injectivity_probe-inf": lambda: injectivity_probe(H, INF),
    "mean_outer_radius-nan": lambda: mean_outer_radius(H, NAN),
    "variance_k_bound-inf": lambda: variance_k_bound(H, INF),
    "gz_weight-R-nan": lambda: gz_weight(NAN, 0.5, 1.5),
    "gz_weight-lambda-5": lambda: gz_weight(2.0, 5.0, 1.5),
    "gz_weight-rho-nan": lambda: gz_weight(2.0, 0.5, [1.5, NAN]),
    "speed_bound-rho-inf": lambda: speed_bound(INF, 0.5),
    "speed_bound-lambda--1": lambda: speed_bound(1.5, -1.0),
    "variance_deriv2_termwise-nan": lambda: variance_deriv2_termwise(H, NAN),
    "variance_subsolution_min-empty-grid": lambda: variance_subsolution_min(H, 0.5, []),
    "wide_annulus_certificate-inf": lambda: wide_annulus_certificate(INF),
    "wide_annulus_certificate--1": lambda: wide_annulus_certificate(-1.0),
    "require_lambda-array": lambda: require_lambda(np.array([0.5, 1.5])),
    "require_outer-array": lambda: require_outer(np.array([2.0, 1.0])),
    # an integer past the float range is in no domain
    "nitsche_bound-int-1e400": lambda: nitsche_bound(HUGE),
    "weitsman_bound-int-1e400": lambda: weitsman_bound(HUGE),
    "kalaj_bound-int-1e400": lambda: kalaj_bound(HUGE),
    "mean_outer_radius-int-1e400": lambda: mean_outer_radius(H, HUGE),
    "circular_mean-int-1e400": lambda: circular_mean(H, HUGE),
    "speed_bound-int-1e400": lambda: speed_bound(HUGE, 0.5),
    "theorem_gate-int-1e400": lambda: theorem_gate(H, HUGE),
    "require_lambda-list-int-1e400": lambda: require_lambda([0.5, -HUGE]),
    "require_radii-list-int-1e400": lambda: require_radii([1.5, HUGE]),
    # an int too long for str: the message names it without printing it
    "require_outer-int-1e5000": lambda: require_outer(10**5000),
    "require_outer-int--1e5000": lambda: require_outer(-10**5000),
    "require_lambda-int-1e5000": lambda: require_lambda(10**5000),
    "require_lambda-int--1e5000": lambda: require_lambda(-10**5000),
    "require_radii-int-1e5000": lambda: require_radii(10**5000),
    "require_radii-int--1e5000": lambda: require_radii(-10**5000),
    # a mode number is an integer
    "quadratic_mean_mode-float": lambda: quadratic_mean_mode(H, 1.0),
    "quadratic_mean_mode-bool": lambda: quadratic_mean_mode(H, True),
    "quadratic_mean_mode-stack-floats": lambda: quadratic_mean_mode(PAIR, np.array([1.0, 2.0])),
    "perturb_extremal-float": lambda: perturb_extremal(0.5, 1.0, 1e-3),
    "perturb_extremal-numpy-bool": lambda: perturb_extremal(0.5, np.bool_(True), 1e-3),
    "mode_form_coeffs-float": lambda: mode_form_coeffs(1.5, 2.0),
    "mode_form_certificate-float": lambda: mode_form_certificate(2.5, 2.0),
    "mode_form_certificate_expanded-float": lambda: mode_form_certificate_expanded(2.5, 2.0),
    "mode_form_certificate-array-floats":
        lambda: mode_form_certificate(np.array([2.0, 2.5]), 3.0),
    "mode_form_coeffs-0": lambda: mode_form_coeffs(0, 2.0),
    # the scalar bounds take one number (numpy TypeError or ValueError, or an
    # array returned, before they read it through the number rule)
    "nitsche_bound-array": lambda: nitsche_bound(np.array([2.0, 3.0])),
    "weitsman_bound-array": lambda: weitsman_bound(np.array([2.0, 3.0])),
    "kalaj_bound-array": lambda: kalaj_bound(np.array([2.0, 3.0])),
    "condition_modulus-array": lambda: condition_modulus(np.array([2.0, 3.0])),
    "gzbar_gate_margin-R-array": lambda: gzbar_gate_margin(np.array([2.0, 3.0]), 0.5),
    "gzbar_gate_margin-lambda-array": lambda: gzbar_gate_margin(2.0, np.array([0.5, 1.0])),
    "gzbar_gate_margin-lambda-5": lambda: gzbar_gate_margin(2.0, 5.0),
    "speed_bound-rho-array": lambda: speed_bound(np.array([1.5, 2.0]), 0.5),
    "speed_bound-lambda-array": lambda: speed_bound(1.5, np.array([0.5, 0.2])),
    "lambda_from_speed-array": lambda: lambda_from_speed(np.array([0.5, 1.0])),
    "extremal_map-array": lambda: extremal_map(np.array([0.5, 0.2])),
    "evolution_lower_bound-s-array": lambda: evolution_lower_bound(H, np.array([1.5, 2.0])),
    # a truncation order is an integer (not a bool) >= 0, and >= 1 to draw
    "HarmonicSeries-N-1.5": lambda: HarmonicSeries(N=1.5),
    "HarmonicSeries-N-2.0": lambda: HarmonicSeries(N=2.0, a=np.zeros(4), b=np.zeros(4)),
    "HarmonicSeries-N-bool": lambda: HarmonicSeries(N=True),
    "HarmonicSeries-N--1": lambda: HarmonicSeries(N=-1),
    "from_coeffs-N--1": lambda: HarmonicSeries.from_coeffs(N=-1),
    "SeriesStack-N-1.5": lambda: SeriesStack(N=1.5, a=np.zeros((1, 3)), b=np.zeros((1, 3)),
                                             a0=[0j], b0=[0j]),
    "SeriesStack-N-bool": lambda: SeriesStack(N=True, a=np.zeros((1, 2)), b=np.zeros((1, 2)),
                                              a0=[0j], b0=[0j]),
    "SeriesStack-N--1": lambda: SeriesStack(N=-1, a=np.zeros((1, 0)), b=np.zeros((1, 0)),
                                            a0=[0j], b0=[0j]),
    "SamplerConfig-N-bool": lambda: SamplerConfig(seed=1, N=True),
    "SamplerConfig-N-float": lambda: SamplerConfig(seed=1, N=4.0),
    "SamplerConfig-N-float64": lambda: SamplerConfig(seed=1, N=np.float64(4.0)),
    "SamplerConfig-decay-array": lambda: SamplerConfig(seed=1, decay=np.array([0.5, 0.6])),
    "SamplerConfig-decay-array-of-one": lambda: SamplerConfig(seed=1, decay=np.array([0.5])),
    "from_json_dict-no-N": lambda: from_json_dict({}),
    # coefficients are finite numbers, and mode 0 and modes past N have none
    "HarmonicSeries-a-strings": lambda: HarmonicSeries(N=1, a=["x", "y"]),
    "HarmonicSeries-a0-nan": lambda: HarmonicSeries(N=1, a0=NAN),
    "from_coeffs-mode-0": lambda: HarmonicSeries.from_coeffs(a={0: 1.0}),
    "from_coeffs-mode-past-N": lambda: HarmonicSeries.from_coeffs(N=1, a={2: 1.0}),
    # a mode key is an integer (numpy IndexError for 1.5 and 1.0, and True
    # read as mode 1, before require_mode), and a0, b0 are complex numbers
    # (ValueError, TypeError or OverflowError from complex() before)
    "from_coeffs-mode-1.5": lambda: HarmonicSeries.from_coeffs(N=2, a={1.5: 1.0}),
    "from_coeffs-mode-1.0": lambda: HarmonicSeries.from_coeffs(N=2, a={1.0: 1.0}),
    "from_coeffs-mode-bool": lambda: HarmonicSeries.from_coeffs(a={True: 1.0}),
    "from_coeffs-b-mode-float": lambda: HarmonicSeries.from_coeffs(N=2, b={-1.5: 1.0}),
    # one mode per key (TypeError from abs() before: require_mode takes a
    # tuple of integers as an array of modes)
    "from_coeffs-mode-tuple": lambda: HarmonicSeries.from_coeffs(a={(1, 2): 1.0}),
    "HarmonicSeries-a0-str": lambda: HarmonicSeries(N=1, a0="x"),
    "HarmonicSeries-a0-None": lambda: HarmonicSeries(N=1, a0=None),
    "HarmonicSeries-a0-array": lambda: HarmonicSeries(N=1, a0=np.array([1, 2])),
    "HarmonicSeries-b0-str": lambda: HarmonicSeries(N=1, b0="x"),
    "HarmonicSeries-b0-int-1e400": lambda: HarmonicSeries(N=1, b0=10**400),
    # a seed and a trial count are integers, not floats, strings or bools
    "run_suite-seed-float": lambda: run_suite("all", 1.5, 1),
    "run_suite-seed-str": lambda: run_suite("all", "3", 1),
    "run_suite-seed-bool": lambda: run_suite("schottky", True, 1),
    "run_suite-trials-float": lambda: run_suite("all", 0, 2.5),
    "run_suite-trials-bool": lambda: run_suite("all", 0, True),
    # a profile's radii pass require_radii ('1.5' was parsed and True read as
    # 1; -2.0 and 0.0 warned in np.log), a count and a mode number are
    # integers, and the variance estimate's R is a real number (TypeError
    # from numpy before, for all but the profile rows)
    "RadialProfile.value-str": lambda: U.value("1.5"),
    "RadialProfile.value-bool": lambda: U.value(True),
    "RadialProfile.value--2": lambda: U.value(-2.0),
    "RadialProfile.deriv1-nan": lambda: U.deriv1(NAN),
    "RadialProfile.deriv2-array-0": lambda: U.deriv2(np.array([1.0, 0.0])),
    "RadialProfile.jet-0": lambda: U.jet(0.0),
    "RadialProfile.jet-stack-str": lambda: quadratic_mean_profile(PAIR).jet("1.5"),
    "circle_grid_fields-M-float": lambda: circle_grid_fields(H, 1.5, 8.0),
    "circle_grid_fields-M-0": lambda: circle_grid_fields(H, 1.5, 0),
    "HarmonicSeries.coeff-str": lambda: H.coeff("1"),
    "SeriesStack.coeff-floats": lambda: PAIR.coeff(np.array([1.0, 2.0])),
    "variance_k_bound-str": lambda: variance_k_bound(H, "3.0"),
    # a stack's per-member arguments hold one value or one per member (numpy's
    # broadcast ValueError before, or a TypeError from a list of radii)
    "SeriesStack.coeff-no-modes": lambda: PAIR.coeff([]),
    "SeriesStack.coeff-3-modes": lambda: PAIR.coeff([1, 2, 3]),
    "quadratic_mean_mode-stack-3-modes": lambda: quadratic_mean_mode(PAIR, [1, 2, 3]),
    "mode_quadratic_form_residual-stack-3-modes":
        lambda: mode_quadratic_form_residual(PAIR, [1, 2, 3], 2.0),
    "mode_quadratic_form_residual-stack-3-R":
        lambda: mode_quadratic_form_residual(PAIR, 2, np.array([2.0, 3.0, 4.0])),
    "mean_outer_radius-stack-3-R": lambda: mean_outer_radius(PAIR, [2.0, 3.0, 4.0]),
    "variance_k_bound-stack-3-R": lambda: variance_k_bound(PAIR, [3.0, 3.5, 4.0]),
    # and so do those of a stack's profile, its jet one row per member
    "k_functional-stack-3-R":
        lambda: k_functional(quadratic_mean_profile(PAIR), 0.5, np.array([2.0, 3.0, 4.0])),
    "k_functional-stack-3-lambdas":
        lambda: k_functional(quadratic_mean_profile(PAIR), np.array([0.5, 0.2, 0.1]), 2.0),
    "k_endpoint-stack-3-R":
        lambda: k_endpoint(quadratic_mean_profile(PAIR), 0.5, np.array([2.0, 3.0, 4.0])),
    "k_endpoint-stack-3-lambdas": lambda: k_endpoint(PAIR, np.array([0.5, 0.2, 0.1]), 2.0),
    "LambdaOperator.apply-stack-3-lambdas":
        lambda: LambdaOperator(np.array([0.5, 0.2, 0.1])).apply(quadratic_mean_profile(PAIR), 2.0),
    "LambdaOperator.apply-stack-3x1-lambdas": lambda: LambdaOperator(
        np.array([[0.5], [0.2], [0.1]])).apply(quadratic_mean_profile(PAIR), np.array([2.0, 3.0])),
    # rho and lambda pair by one rule (operators._denominator): shapes that
    # do not broadcast, or radii whose rows are not the stack's members
    # (numpy's broadcast ValueError before), and for the divergence form a
    # stack's lambda of shape (B, 1) (a (B, B) array before)
    "LambdaOperator.apply-3-lambdas-2-radii": lambda: LambdaOperator(
        np.array([0.5, 0.2, 0.1])).apply(U, np.array([1.5, 2.0])),
    "LambdaOperator.apply-stack-3-rows-of-radii":
        lambda: LambdaOperator(0.5).apply(quadratic_mean_profile(PAIR), np.full((3, 2), 1.5)),
    # rows that broadcast against the members, which the jet, read unchecked
    # inside the rule, no longer refuses itself
    "LambdaOperator.apply-stack-1-row-of-radii":
        lambda: LambdaOperator(0.5).apply(quadratic_mean_profile(PAIR), np.full((1, 2), 1.5)),
    "LambdaOperator.apply-stack-3-d-radii":
        lambda: LambdaOperator(0.5).apply(quadratic_mean_profile(PAIR), np.full((2, 1, 1), 1.5)),
    "divergence_form_residual-stack-1-radius": lambda: LambdaOperator(
        0.5).divergence_form_residual(quadratic_mean_profile(PAIR), np.array([1.5])),
    "divergence_form_residual-3-lambdas-2-radii": lambda: LambdaOperator(
        np.array([0.5, 0.2, 0.1])).divergence_form_residual(U, np.array([1.5, 2.0])),
    "divergence_form_residual-stack-3-radii": lambda: LambdaOperator(
        0.5).divergence_form_residual(quadratic_mean_profile(PAIR), np.array([1.5, 2.0, 2.5])),
    "divergence_form_residual-stack-2x1-lambdas": lambda: LambdaOperator(
        np.full((2, 1), 0.5)).divergence_form_residual(quadratic_mean_profile(PAIR),
                                                        np.array([1.5, 2.0])),
    "identity_residuals_stack-3-members-of-lambdas": lambda: identity_residuals_stack(
        PAIR, np.full((3, 1, 3), 0.5), np.full((2, 1), 2.0)),
    "identity_residuals_stack-3-circles-of-lambdas": lambda: identity_residuals_stack(
        PAIR, np.full((2, 3, 3), 0.5), np.full((2, 2), 2.0)),
    # radii of one row per member, or the residuals of a member never
    # evaluated (1 row: 2.156) and a bare IndexError (3 rows)
    "identity_residuals_stack-1-row-of-radii": lambda: identity_residuals_stack(
        PAIR, np.full((2, 1, 3), 0.5), np.full((1, 1), 2.0)),
    "identity_residuals_stack-3-rows-of-radii": lambda: identity_residuals_stack(
        PAIR, np.full((3, 1, 3), 0.5), np.full((3, 1), 2.0)),
    "identity_residuals_stack-1-d-radii": lambda: identity_residuals_stack(
        PAIR, np.full((2, 1, 3), 0.5), np.full(2, 2.0)),
    "identity_residuals_stack-2-d-lambdas": lambda: identity_residuals_stack(
        PAIR, np.full((2, 1), 0.5), np.full((2, 1), 2.0)),
    # a stack's 2-d radii hold one row per member (numpy's ValueError before)
    "circle_grid_fields-stack-3-rows": lambda: circle_grid_fields(PAIR, np.full((3, 1), 2.0), 8),
    "circle_grid_fields-stack-3-d": lambda: circle_grid_fields(PAIR, np.full((2, 1, 1), 2.0), 8),
    "RadialProfile.jet-stack-3-rows": lambda: quadratic_mean_profile(PAIR).jet(np.full((3, 1), 2.0)),
    "RadialProfile.jet-stack-3-d": lambda: quadratic_mean_profile(PAIR).jet(np.full((2, 1, 1), 2.0)),
    "radial_integrate-2-radii-3-degrees":
        lambda: radial_integrate(np.ones_like, 1.0, [2.0, 3.0], [2.0, 2.0, 2.0]),
    "radial_integrate-2-radii-3-lambdas":
        lambda: radial_integrate(np.ones_like, 1.0, np.array([2.0, 3.0]), 2, [0.5, 0.5, 0.5]),
    "scale_rotate-stack-3-alphas": lambda: scale_rotate(PAIR, [1, 2, 3]),
    # a list of numbers is refused as its array is, by the domain rules
    "gz_weight-R-list": lambda: gz_weight([2.0, 1.0], 0.5, 1.5),
    "gz_weight-lambda-list": lambda: gz_weight(2.0, [0.5, 5.0], 1.5),
    "mode_form_certificate_expanded-R-list": lambda: mode_form_certificate_expanded(2, [3.0, 1.0]),
    "variance_k_bound-R-list": lambda: variance_k_bound(H, [3.0, 2.0]),
    "mode_quadratic_form_residual-R-list": lambda: mode_quadratic_form_residual(H, 1, [2.0, NAN]),
    "k_endpoint-lambda-list": lambda: k_endpoint(H, [0.5, -1.0], [2.0, 3.0]),
    "LambdaOperator-lambda-list": lambda: LambdaOperator([0.5, 1.5]),
    # numpy parsed the strings and read the bools as numbers before
    "HarmonicSeries-strings-and-bools":
        lambda: HarmonicSeries(N=1, a=["1", "2"], b=[True, False], a0="1"),
    "HarmonicSeries-b-bools": lambda: HarmonicSeries(N=1, b=[True, False]),
    "from_coeffs-value-str": lambda: HarmonicSeries.from_coeffs(a={1: "1"}),
    # the whole Richardson stencil, rho - 2 step .. rho + 2 step, lies in the
    # domain: below 0 (was NaN), across the pole rho^2 = -lambda (was 2.3e7)
    "divergence_form_residual-stencil-below-0": lambda: LambdaOperator(
        0.5).divergence_form_residual(quadratic_mean_profile(G), 1.5e-3),
    "divergence_form_residual-stencil-across-pole": lambda: LambdaOperator(
        -0.9).divergence_form_residual(quadratic_mean_profile(G), 0.949),
    "divergence_form_residual-stack-member-across-pole": lambda: LambdaOperator(
        np.array([0.5, -0.9])).divergence_form_residual(quadratic_mean_profile(PAIR),
                                                         np.array([2.0, 0.949])),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_is_rejected(call):
    with pytest.raises(ParameterDomainError):
        call()


# Every stack entry point that takes a per-member argument or radii with a
# row per member, given one of three for the two members of PAIR: one rule
# (series._per_member, series.require_radii, with the stack's or its
# profile's .members) refuses each, in its own words.  The divergence form
# takes one radius per member, and its refusals name the caller's shape,
# not that of its nine-point stencil.
ONE_OR_B = "must be one value or 2, got \\(3,"
B_ROWS = "a stack's radii need 2 rows, got \\(3,"
THREE = np.array([2.0, 3.0, 4.0])
THREE_ROWS = np.full((3, 1), 2.0)
PAIR_U = quadratic_mean_profile(PAIR)
MISFITS = {
    "SeriesStack.coeff-n": (lambda: PAIR.coeff([1, 2, 3]), ONE_OR_B),
    "quadratic_mean_mode-n": (lambda: quadratic_mean_mode(PAIR, [1, 2, 3]), ONE_OR_B),
    "mode_quadratic_form_residual-n":
        (lambda: mode_quadratic_form_residual(PAIR, [1, 2, 3], 2.0), ONE_OR_B),
    "mode_quadratic_form_residual-R":
        (lambda: mode_quadratic_form_residual(PAIR, 2, THREE), ONE_OR_B),
    "mean_outer_radius-R": (lambda: mean_outer_radius(PAIR, THREE), ONE_OR_B),
    "variance_k_bound-R": (lambda: variance_k_bound(PAIR, THREE + 1.0), ONE_OR_B),
    "scale_rotate-alpha": (lambda: scale_rotate(PAIR, [1, 2, 3]), ONE_OR_B),
    "k_functional-lambda": (lambda: k_functional(PAIR_U, THREE / 8.0, 2.0), ONE_OR_B),
    "k_functional-R": (lambda: k_functional(PAIR_U, 0.5, THREE), ONE_OR_B),
    "k_quadrature-R": (lambda: k_quadrature(PAIR, 0.5, THREE), ONE_OR_B),
    "k_endpoint-lambda": (lambda: k_endpoint(PAIR, THREE / 8.0, 2.0), ONE_OR_B),
    "k_endpoint-R": (lambda: k_endpoint(PAIR_U, 0.5, THREE), ONE_OR_B),
    "LambdaOperator.apply-lambda":
        (lambda: LambdaOperator(THREE / 8.0).apply(PAIR_U, 1.5), ONE_OR_B),
    "LambdaOperator.apply-lambda-column": (lambda: LambdaOperator(THREE[:, None] / 8.0).apply(
        PAIR_U, np.array([1.5, 2.0])), ONE_OR_B),
    "divergence_form_residual-lambda":
        (lambda: LambdaOperator(THREE / 8.0).divergence_form_residual(PAIR_U, 1.5), ONE_OR_B),
    "circle_grid_fields-rho": (lambda: circle_grid_fields(PAIR, THREE_ROWS, 8), B_ROWS),
    "RadialProfile.jet-rho": (lambda: PAIR_U.jet(THREE_ROWS), B_ROWS),
    "RadialProfile.value-rho": (lambda: variance_profile(PAIR).value(THREE_ROWS), B_ROWS),
    "variance_deriv2_termwise-rho":
        (lambda: variance_deriv2_termwise(PAIR, THREE_ROWS), B_ROWS),
    "LambdaOperator.apply-rho": (lambda: LambdaOperator(0.5).apply(PAIR_U, THREE_ROWS), B_ROWS),
    "divergence_form_residual-rho": (lambda: LambdaOperator(0.5).divergence_form_residual(
        PAIR_U, THREE), "rho must be one value or 2, got \\(3,\\)$"),
    "divergence_form_residual-rho-rows": (lambda: LambdaOperator(0.5).divergence_form_residual(
        PAIR_U, np.full((2, 2), 2.0)), "rho must be one value or 2, got \\(2, 2\\)$"),
    "identity_residuals_stack-rho":
        (lambda: identity_residuals_stack(PAIR, np.full((3, 1, 2), 0.5), THREE_ROWS), B_ROWS),
}


@pytest.mark.parametrize("call, message", MISFITS.values(), ids=MISFITS.keys())
def test_a_misfit_per_member_argument_gets_one_refusal(call, message):
    """Before they read the rule, a stack's variance_deriv2_termwise raised
    numpy's broadcast ValueError on three rows of radii, and
    identity_residuals_stack refused them in words of its own;
    divergence_form_residual named the stencil's shape, (3, 9) or
    (2, 2, 9)."""
    with pytest.raises(ParameterDomainError, match=message):
        call()


def member_shape(node) -> str | None:
    """The member argument of a call of _per_member, or of require_radii
    with one, as source text; None for any other node."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("_per_member", "require_radii")):
        return None
    shape = node.args[1:2] or [k.value for k in node.keywords if k.arg == "members"]
    return ast.unparse(shape[0]) if shape else None


def test_every_member_check_reads_members():
    """Under src/, every call of _per_member, and of require_radii with a
    member argument, passes a `.members` attribute (a series', a stack's
    or a profile's), or in operators._denominator its own `members`
    parameter: no function works a member count out of a shape or a type."""
    assert found_in_src(lambda node: member_shape(node) == "members") == [
        "operators._denominator", "operators._denominator"]
    assert found_in_src(lambda node: member_shape(node) not in (None, "members")
                        and not member_shape(node).endswith(".members")) == []


# several numbers as a list compute as the same numbers in an array (each
# call raised TypeError from the arithmetic on the list before)
SEVERAL = {
    "mode_form_coeffs": lambda many: mode_form_coeffs(2, many([2.0, 3.0])),
    "mode_form_certificate": lambda many: mode_form_certificate(2, many([3.0, 4.0])),
    "mode_form_certificate_expanded":
        lambda many: mode_form_certificate_expanded(2, many([3.0, 4.0])),
    "gz_weight-R": lambda many: gz_weight(many([2.0, 3.0]), 0.5, 1.5),
    "gz_weight-lambda": lambda many: gz_weight(2.0, many([0.5, 0.2]), 1.5),
    "variance_k_bound": lambda many: variance_k_bound(G, many([3.0, 4.0])),
    "mode_quadratic_form_residual": lambda many: mode_quadratic_form_residual(
        G, 2, many([2.0, 3.0])),
    "mode_quadratic_form_residual-stack": lambda many: mode_quadratic_form_residual(
        PAIR, 2, many([2.0, 3.0])),
    "k_endpoint": lambda many: k_endpoint(G, many([0.5, 0.2]), many([2.0, 3.0])),
    "LambdaOperator.apply": lambda many: LambdaOperator(many([0.5, 0.2])).apply(U, 2.0),
}


@pytest.mark.parametrize("call", SEVERAL.values(), ids=SEVERAL.keys())
def test_a_list_of_numbers_computes_as_its_array(call):
    got, want = np.asarray(call(list)), np.asarray(call(np.array))
    assert got.shape[-1] == 2 and got.tobytes() == want.tobytes()


# finite arguments whose result overflows: a typed error, never a NaN
OVERFLOWS = {
    "dirichlet_energy-rho2-1e308": lambda: dirichlet_energy(H, 1.2, 1e308),
    "variance_subsolution_min-1e308": lambda: variance_subsolution_min(H, 0.5, [1e308]),
    "variance_deriv2_termwise-1e308": lambda: variance_deriv2_termwise(H, 1e308),
    "variance_deriv2_termwise-stack-member-1e200":
        lambda: variance_deriv2_termwise(PAIR, np.array([[1.5], [1e200]])),
    "circular_mean-1e308": lambda: circular_mean(H, 1e308),
    "quadratic_mean_numeric-1e308": lambda: quadratic_mean_numeric(H, 1e308),
    "enclosed_area-1e308": lambda: enclosed_area(H, 1e308),
    "identity_residuals-means-1e300": lambda: identity_residuals(H, 0.5, 1e300),
    # finite means, but rho^4 of U's jet overflows (times |a_2|^2 = 1e-400)
    "identity_residuals-jet-1e100": lambda: identity_residuals(
        HarmonicSeries.from_coeffs(a={1: 1.0, 2: 1e-200}), 0.5, 1e100),
    # finite terms, but Python's float ** overflows in the identities
    "identity_residuals-pair-1e150": lambda: identity_residuals(H, 0.5, 1e150),
    # rho^2 of the stack's pairing overflows (numpy warned)
    "identity_residuals_stack-1e200": lambda: identity_residuals_stack(
        PAIR, np.full((2, 1, 3), 0.5), np.full((2, 1), 1e200)),
    "wide_annulus_certificate-1e200": lambda: wide_annulus_certificate(1e200),
    "wide_annulus_certificate-array-1e200":
        lambda: wide_annulus_certificate(np.array([2.0, 1e200])),
    # an int speed past the float range has no float lambda
    "lambda_from_speed-int-1e400": lambda: lambda_from_speed(HUGE),
    # the closed forms of bounds: Python's float ** raises OverflowError,
    # its * rounds to inf in silence, numpy's arithmetic warns
    "mode_form_coeffs-1e154": lambda: mode_form_coeffs(2, 1e154),
    "mode_form_coeffs-n-200": lambda: mode_form_coeffs(200, 10.0),
    "mode_form_coeffs-array-1e154": lambda: mode_form_coeffs(2, np.array([2.0, 1e154])),
    "mode_form_certificate-1e154": lambda: mode_form_certificate(2, 1e154),
    "mode_form_certificate-float64-1e154": lambda: mode_form_certificate(2, np.float64(1e154)),
    "mode_form_certificate_expanded-1e154": lambda: mode_form_certificate_expanded(2, 1e154),
    "schottky_check-1e154": lambda: schottky_check(extremal_map(0.0), 1e154),
    "schottky_check-1e200": lambda: schottky_check(extremal_map(0.0), 1e200),
    # a finite area bound and a mode sum near 1e58, but the certified
    # member's R^12 overflows: schottky_check reports it as an overflow
    "schottky_check-mode-sum-1e29": lambda: schottky_check(
        HarmonicSeries.from_coeffs(a={1: 1.0, 6: 1e-150}), 1e29),
    "gz_weight-1e154": lambda: gz_weight(1e154, 0.5, 1.5),
    "gz_weight-array-1e200": lambda: gz_weight(np.array([2.0, 1e200]), 0.5, 1.5),
    "gzbar_gate_margin-1e154": lambda: gzbar_gate_margin(1e154, 0.5),
    "gzbar_gate_margin-1e200": lambda: gzbar_gate_margin(1e200, 0.5),
    # V's jet at R = 1e60 overflows R^(2N) for N = 4 (numpy warned)
    "variance_k_bound-1e60": lambda: variance_k_bound(G, 1e60),
    "variance_k_bound-stack-member-1e60": lambda: variance_k_bound(PAIR, np.array([3.0, 1e60])),
    # the radial quadrature of K, the twin of k_endpoint (numpy warned)
    "k_quadrature-1e60": lambda: k_quadrature(G, 0.5, 1e60),
    "k_quadrature-stack-member-1e60": lambda: k_quadrature(PAIR, 0.5, np.array([3.0, 1e60])),
    # U(1) = inf, where 1/sqrt(U(1)) is 0 and the speed NaN
    "normalize_inner-1e200": lambda: normalize_inner(VAST),
    "initial_speed-1e200": lambda: initial_speed(VAST),
    # |a_1|^2 = 1e400 in the weight table of every profile of VAST (numpy
    # warned), whatever the radius the profile is later evaluated at
    "quadratic_mean_profile-1e200": lambda: quadratic_mean_profile(VAST),
    "quadratic_mean_profile-stack-member-1e200":
        lambda: quadratic_mean_profile(scale_rotate(PAIR, np.array([1.0, 1e200]))),
    "variance_profile-1e200": lambda: variance_profile(VAST),
    "quadratic_mean_mode-1e200": lambda: quadratic_mean_mode(VAST, 1),
    "k_endpoint-coefficients-1e200": lambda: k_endpoint(VAST, 0.5, 2.0),
    "k_quadrature-coefficients-1e200": lambda: k_quadrature(VAST, 0.5, 2.0),
    "theorem_gate-1e200": lambda: theorem_gate(VAST, 2.0),
    "evolution_lower_bound-1e200": lambda: evolution_lower_bound(VAST, 1.5),
}


@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflowing_result_is_a_typed_error(call):
    with pytest.raises(NumericOverflowError):
        call()


@pytest.mark.parametrize("call, what", [
    (lambda: LambdaOperator(0.5).apply(U, 1e200), "L_lam of the profile"),
    (lambda: LambdaOperator(0.5).divergence_form_residual(U, 1e200),
     "the divergence-form residual")], ids=["apply", "divergence_form_residual"])
def test_an_overflow_of_L_lam_names_the_callers_radius(call, what):
    """The jet is read inside the caller's rule, so the error names the
    radius passed, not the jet's (the divergence form's nine-point stencil)."""
    with pytest.raises(NumericOverflowError, match=rf"^{what} at rho=1e\+200 is not finite$"):
        call()


# U(1) = 3e307 + 1.69e308 leaves the float range; U(0.5) = 1.765e308 does not
BRINK = HarmonicSeries.from_coeffs(a={1: math.sqrt(3e307)}, b0=1.3e154)


def test_L_lam_reads_the_profile_only_at_the_callers_radius():
    """L_lam at rho = 0.5 is finite, and the divergence form's overflow
    names 0.5: neither evaluates the profile at rho = 1 to learn how many
    members it has (each raised "U's jet at rho=1.0 is not finite" before
    the profile carried its .members)."""
    U_brink = quadratic_mean_profile(BRINK)
    with pytest.raises(NumericOverflowError, match=r"at rho=1\.0 is not finite"):
        U_brink.jet(1.0)
    rho, lam, den = _denominator(0.5, 1e-9, None)
    got = LambdaOperator(1e-9).apply(U_brink, 0.5)
    assert got == _on_jet(lam, rho, den, *U_brink.jet(0.5)) == -2.163199982206247e+301
    op, tame = LambdaOperator(1e-9), extremal_map(0.5)
    pair = op.apply(quadratic_mean_profile(SeriesStack.of([BRINK, tame])), 0.5)
    assert pair == pytest.approx([got, op.apply(quadratic_mean_profile(tame), 0.5)], rel=1e-14)
    with pytest.raises(NumericOverflowError,
                       match=r"^the divergence-form residual at rho=0\.5 is not finite$"):
        LambdaOperator(1e-9).divergence_form_residual(U_brink, 0.5)


def test_overflow_rule_has_one_path():
    """numpy arithmetic on Python floats runs quietly and raises the typed
    error, a division by 0 too; Python's OverflowError counts as inf; each
    value of a tuple is checked, a complex one as well; a finite value
    comes back as it is."""
    with pytest.raises(NumericOverflowError, match=r"R\^2 at R=1e\+200 is not finite"):
        _in_float_range("R^2 at R", 1e200, lambda R: np.float64(R) ** 2, 1e200)
    with pytest.raises(NumericOverflowError):
        _in_float_range("R^-2 at R", 1e-200, lambda R: 1.0 / np.float64(R) ** 2, 1e-200)
    with pytest.raises(NumericOverflowError):
        _in_float_range("R^2 at R", 1e200, lambda R: R**2, 1e200)
    with pytest.raises(NumericOverflowError):
        _in_float_range("the pair at R", 2.0, lambda R: (R, np.array([R, np.inf])), 2.0)
    with pytest.raises(NumericOverflowError):
        _in_float_range("the means at R", 2.0, lambda R: (complex(R, math.inf), R), 2.0)
    out = _in_float_range("R^2 at R", 3.0, lambda R: R**2, 3.0)
    assert out == 9.0 and type(out) is float


def test_overflowing_circles_never_enter_the_memos():
    """A circle whose means overflow raises on every call: the second call
    misses the memo again, as nothing was stored."""
    from annulus_harmonics.quadrature import _circle_means

    h = extremal_map(0.25)
    for call in (lambda: circular_mean(h, 1e300), lambda: identity_residuals(h, 0.5, 1e300)):
        hits = _circle_means.cache_info().hits
        for _ in range(2):
            with pytest.raises(NumericOverflowError):
                call()
        assert _circle_means.cache_info().hits == hits


def test_a_jet_past_the_float_range_fails_only_the_identities():
    """On C_rho, rho = 1e40, h = z + 1e-100 z^5 has finite means and U(rho)
    = rho^2 + 1e-200 rho^10 = 1e200, but the closed form's rho^10 leaves
    the float range: the three quadrature means return, and
    identity_residuals raises on every call, from the memoised circle."""
    from annulus_harmonics.quadrature import _circle_means

    h = HarmonicSeries.from_coeffs(a={1: 1.0, 5: 1e-100})
    _circle_means.cache_clear()
    assert quadratic_mean_numeric(h, 1e40) == pytest.approx(1e200, rel=1e-12)
    assert math.isfinite(enclosed_area(h, 1e40)) and cmath.isfinite(circular_mean(h, 1e40))
    for _ in range(2):
        with pytest.raises(NumericOverflowError, match="U's jet at rho=1e"):
            identity_residuals(h, 0.5, 1e40)
    assert _circle_means.cache_info()[:2] == (4, 1)  # hits, misses
    # |a_2|^2 = 1e320 leaves U's weight table past the float range, not the
    # means at rho = 1e-10, where |a_2 rho^2|^2 = 1e280
    h = HarmonicSeries.from_coeffs(a={2: 1e160})
    assert quadratic_mean_numeric(h, 1e-10) == pytest.approx(1e280, rel=1e-12)
    with pytest.raises(NumericOverflowError, match="U's jet at rho=1e"):
        identity_residuals(h, 0.5, 1e-10)


def found_in_src(found) -> list[str]:
    """module.function of each node of src/ that found(node) accepts, by
    the name of the innermost function around it, sorted."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if found(node):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    package = Path(__file__).resolve().parents[1] / "src" / "annulus_harmonics"
    return sorted(f"{path.stem}.{where}" for path in package.glob("*.py")
                  for where in visit(ast.parse(path.read_text()), None))


def builds_an_overflow_error(node) -> bool:
    """Whether node builds or raises NumericOverflowError."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "NumericOverflowError"
            or isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
            and node.exc.id == "NumericOverflowError")


def test_one_overflow_rule_builds_the_overflow_errors():
    """Under src/, NumericOverflowError is built by series._in_float_range
    and by two exceptions: lambda_from_speed's guard band (a finite
    lambda too near -1) and identity_residuals (U's memoised jet, and
    Python's OverflowError).  A closed
    form that tests its own overflow fails here; it returns through the
    rule instead."""
    assert found_in_src(builds_an_overflow_error) == [
        "operators.identity_residuals", "operators.identity_residuals",
        "operators.lambda_from_speed", "series._in_float_range"]


def reads_the_radial_bound(node) -> bool:
    """Whether node reads _RADIAL_RHOS or _weight_bound by name."""
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in ("_RADIAL_RHOS", "_weight_bound"))


def test_one_sizer_states_the_radial_bound():
    """Under src/, only quadrature._rule_size reads the Bernstein ladder
    _RADIAL_RHOS and the weight bound _weight_bound: a single rule, each
    panel of a split one and each member of a stack are sized there.  A
    second statement of the bound (an array sizer, say) fails here."""
    assert set(found_in_src(reads_the_radial_bound)) == {"quadrature._rule_size"}


# The closed-form kernels of operators.py, which tests/test_derivations.py
# calls on sympy symbols.
PURE_KERNELS = ("_on_jet", "_identity_pair", "_endpoint_form")


def decides_or_evaluates(node) -> bool:
    """Whether node raises, tests a type or a domain (isinstance,
    _is_scalar, np.asarray, require_*) or evaluates a profile (.jet,
    .value)."""
    if isinstance(node, ast.Raise):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(
        func, ast.Attribute) else ""
    return (name in ("isinstance", "_is_scalar", "jet", "value") or name.startswith("require_")
            or name == "asarray" and isinstance(func, ast.Attribute))


def test_the_closed_form_kernels_are_arithmetic_only():
    """_on_jet, _identity_pair and _endpoint_form neither raise, nor test a
    type or a domain, nor evaluate a profile: the (rho, lambda) rule
    operators._denominator and their callers do, so the kernels also take
    sympy symbols."""
    path = Path(__file__).resolve().parents[1] / "src" / "annulus_harmonics" / "operators.py"
    kernels = {node.name: node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name in PURE_KERNELS}
    assert sorted(kernels) == sorted(PURE_KERNELS)
    found = [(name, ast.unparse(node)) for name, kernel in kernels.items()
             for node in ast.walk(kernel) if decides_or_evaluates(node)]
    assert found == []


def converts_by_shape(node) -> bool:
    """Whether node is a conditional expression that tests a shape (.shape,
    .ndim or np.ndim(...)) and converts in a branch (float(...),
    bool(...) or .item(...))."""
    if not isinstance(node, ast.IfExp):
        return False
    return (any(isinstance(n, ast.Attribute) and n.attr in ("shape", "ndim")
                for n in ast.walk(node.test))
            and any(isinstance(n, ast.Call) and (
                        isinstance(n.func, ast.Name) and n.func.id in ("float", "bool")
                        or isinstance(n.func, ast.Attribute) and n.func.attr == "item")
                    for branch in (node.body, node.orelse) for n in ast.walk(branch)))


def test_one_result_rule_decides_what_a_result_is():
    """Under src/, a result that numpy may leave 0-d becomes a Python number
    through series._result (series.py is not searched), and through one
    exception: a profile's one-radius jet in means (`at`, inside
    `column`), which reads one entry of its 1-d table with .item(d) on
    radial-profile's hot path.  A function that converts by its own shape
    test fails here; it returns through the rule instead."""
    found = [where for where in found_in_src(converts_by_shape)
             if not where.startswith("series.")]
    assert found == ["means.at"]


# R = 1e160 overflows Python's float R**2, R = 1e60 only U(R) = O(R^10);
# the numpy scalar and the stack take numpy's arithmetic
@pytest.mark.parametrize("R", [1e160, 1e60, np.float64(1e160), np.array(1e60)],
                         ids=["float-R2", "float-U", "float64", "0-d"])
def test_k_endpoint_overflow_is_a_typed_error(R):
    h = random_series(SamplerConfig(seed=1, N=5, decay=0.5))
    with pytest.raises(NumericOverflowError):
        k_endpoint(h, 0.5, R)


def test_k_endpoint_overflow_of_one_stack_member_is_a_typed_error():
    stack = random_series_stack([1, 2], [5, 5], 0.5)
    with pytest.raises(NumericOverflowError):
        k_endpoint(stack, 0.5, np.array([2.0, 1e200]))
    finite = k_endpoint(stack, 0.5, np.array([2.0, 3.0]))
    assert np.isfinite(finite).all() and finite.shape == (2,)


def test_k_endpoint_keeps_a_float_at_a_float_radius():
    h = random_series(SamplerConfig(seed=1, N=5, decay=0.5))
    assert type(k_endpoint(h, 0.5, 2.0)) is float


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


@pytest.mark.parametrize("rule, value", [(require_outer, 2), (require_lambda, 1),
                                         (require_radii, 3)], ids=["R", "lambda", "rho"])
def test_the_domain_rules_return_what_they_accept(rule, value):
    """One number comes back as given, several as one float64 array."""
    for one in (value, float(value), np.float64(value), np.int64(value), np.array(value)):
        assert rule(one) is one
    for several in ([value, float(value)], (value, value), np.array([value, value])):
        got = rule(several)
        assert got.dtype == np.float64 and got.tolist() == [value, value]
    twice = np.array([float(value)] * 2)
    assert rule(twice) is twice


def test_domain_edges_are_accepted():
    require_outer(1.0 + 1e-15)
    require_lambda(1.0)
    require_lambda(-1.0 + 2e-9)


@pytest.mark.parametrize("n", [2, -1, np.int64(3), np.int32(-2)], ids=repr)
def test_integer_mode_numbers_are_accepted(n):
    assert quadratic_mean_mode(G, n).value(1.5) > 0.0
    assert perturb_extremal(0.5, n, 1e-3).coeff(n)[0] != 0.0


def test_integer_mode_arrays_are_accepted_by_the_mode_forms():
    """The mode forms take a Python or numpy integer, or an integer array
    broadcast against R; each entry of an array is the scalar's value."""
    ns, R = np.arange(2, 6), np.array([[2.0], [3.0]])
    for form in (mode_form_coeffs, mode_form_certificate, mode_form_certificate_expanded):
        batch = np.asarray(form(ns, R))
        for j, n in enumerate(ns.tolist()):
            for i, r in enumerate(R[:, 0].tolist()):
                want = np.asarray(form(n, r))
                assert np.array_equal(np.asarray(form(np.int64(n), r)), want)
                assert np.array_equal(batch[..., i, j], want)


def test_stack_mode_numbers_are_integers_and_too_high_a_mode_is_an_index_error():
    for n in (np.array([1, -4]), [2, 3], 2):
        assert quadratic_mean_mode(PAIR, n).value(np.array([[1.5], [2.0]])).shape == (2, 1)
    with pytest.raises(IndexError):
        quadratic_mean_mode(G, 5)
    with pytest.raises(IndexError):
        quadratic_mean_mode(PAIR, np.array([1, 5]))


def test_divergence_stencil_at_the_domain_edge_is_accepted():
    """A stencil that stays inside the domain is evaluated, also next to
    its edge: rho = 2 step + 1e-6 at lambda 0.5, and 1e-6 past the pole
    at lambda = -0.9."""
    P = quadratic_mean_profile(G)
    for lam, rho in ((0.5, 2e-3 + 1e-6), (-0.9, math.sqrt(0.9) + 2e-3 + 1e-6)):
        assert math.isfinite(LambdaOperator(lam).divergence_form_residual(P, rho))


@pytest.mark.parametrize("trials", [0, -3, MAX_TRIALS + 1, 10**18])
def test_draw_plan_rejects_trials_outside_its_range(trials):
    refused = rf"trials must be >= 1|trials=\d+ exceeds {MAX_TRIALS}"
    with pytest.raises(ParameterDomainError, match=refused):
        DrawPlan(0, trials)


def test_draw_plan_accepts_its_range():
    assert MAX_TRIALS == 10_000
    for trials in (1, MAX_TRIALS):
        assert DrawPlan(0, trials).trials == trials


# ---------------------------------------------------------------------------
# One table over __all__ and the functions `verify` calls: an example call of
# every exported callable that takes a number and of each of those
# functions, and each malformed value put into each numeric argument in
# turn.
# ---------------------------------------------------------------------------

CONFORMAL = extremal_map(0.0)
# Functions of bounds, means and operators that `verify` calls, with an
# example whether or not they take a number, so the result-kind table below
# covers them.
VERIFIED = {f.__name__: f for f in (
    gz_weight, initial_speed, inner_circle_identity_residual, mode_energy_excess,
    mode_quadratic_form_residual, variance_deriv2_termwise, variance_k_bound)}
EXAMPLES = {
    "HarmonicSeries": dict(N=1, a=np.array([1.0 + 0j, 0j]), b=np.array([0.5 + 0j, 0j]),
                           a0=0.5 + 0j, b0=0.25 + 0j),
    "LambdaOperator": dict(lam=0.5),
    "RadialProfile": dict(label="U", value=U.value, deriv1=U.deriv1, deriv2=U.deriv2, degree=2,
                          members=(), _jet=U._jet),
    "SamplerConfig": dict(seed=1, N=4, decay=0.6),
    "circular_mean": dict(h=H, rho=1.5),
    "dirichlet_energy": dict(h=H, rho1=1.2, rho2=1.8),
    "enclosed_area": dict(h=H, rho=1.5),
    "evolution_lower_bound": dict(h=H, s=2.0),
    "extremal_map": dict(lam=0.5),
    "gz_weight": dict(R=2.0, lam=0.5, rho=1.5),
    "initial_speed": dict(h=H),
    "injectivity_probe": dict(h=H, R=2.0),
    "inner_circle_identity_residual": dict(h=G),
    "k_endpoint": dict(h=H, lam=0.5, R=2.0),
    "k_functional": dict(P=U, lam=0.5, R=2.0),
    "k_quadrature": dict(h=H, lam=0.5, R=2.0),
    "kalaj_bound": dict(R=2.0),
    "lambda_from_speed": dict(speed=0.5),
    "mean_outer_radius": dict(h=H, R=2.0),
    "mode_energy_excess": dict(h=G),
    "mode_form_certificate": dict(n=2, R=3.0),
    "mode_form_coeffs": dict(n=2, R=3.0),
    "mode_quadratic_form_residual": dict(h=G, n=2, R=3.0),
    "nitsche_bound": dict(R=2.0),
    "perturb_extremal": dict(lam=0.5, n=2, eps=1e-3 + 0j),
    "quadratic_mean_mode": dict(h=H, n=1),
    "quadratic_mean_numeric": dict(h=H, rho=1.5),
    "radial_integrate": dict(g=np.ones_like, a=1.0, b=2.0, degree=2, lam=0.5),
    "scale_rotate": dict(h=H, alpha=2.0 + 0j),
    "schottky_check": dict(h=CONFORMAL, R=2.0),
    "speed_bound": dict(rho=1.5, lam=0.5),
    "theorem_gate": dict(h=H, R=2.0),
    "uniqueness_probe": dict(R=2.0),
    "variance_deriv2_termwise": dict(h=G, rho=1.5),
    "variance_k_bound": dict(h=G, R=3.0),
    "variance_subsolution_min": dict(h=H, lam=0.5, rho_grid=np.linspace(1.0, 2.0, 5)),
    "weitsman_bound": dict(R=2.0),
    "wide_annulus_certificate": dict(R=3.0),
}
# The arguments that are not numbers: a series, a profile, an integrand, a
# config, a path, JSON data, a label, the profile's callables and a flag.
NOT_NUMBERS = {"h", "P", "g", "config", "path", "data", "label", "value", "deriv1",
               "deriv2", "_jet", "renormalize"}
# Result records: the package builds them from checked values, and their
# fields are outputs, not arguments.
RECORDS = {"BoundReport", "SchottkyReport", "UniquenessReport"}
# Values that are not numbers: each is refused with ParameterDomainError
# (2+0j is a number where the argument takes coefficients).
MALFORMED = ["2.0", b"2", True, np.True_, 2 + 0j, None, ["1.5"]]
# Real values: each returns or raises a ToolkitError.
REALS = [NAN, INF, -INF, -1, 0, 1e308, HUGE, np.array([1.5, 2.0]), [1.5, 2.0], np.empty(0)]


def _exports() -> dict:
    """Every callable of __all__ but the error classes, and VERIFIED, by
    name."""
    import annulus_harmonics

    return {name: obj for name in annulus_harmonics.__all__
            if callable(obj := getattr(annulus_harmonics, name))
            and not (isinstance(obj, type) and issubclass(obj, BaseException))} | VERIFIED


def _numeric_parameters(call) -> list[str]:
    return [p for p in inspect.signature(call).parameters if p not in NOT_NUMBERS]


def test_every_export_with_a_numeric_argument_has_an_example():
    """An export with a numeric argument and no example fails here, and an
    example names every numeric argument of its export."""
    exports = _exports()
    assert {name for name, call in exports.items()
            if _numeric_parameters(call) or name in VERIFIED} - RECORDS == set(EXAMPLES)
    for name, example in EXAMPLES.items():
        assert set(_numeric_parameters(exports[name])) <= set(example), name
        exports[name](**example)


@pytest.mark.parametrize("name, param", [
    (name, param) for name, example in EXAMPLES.items()
    for param in _numeric_parameters(_exports()[name])])
def test_each_numeric_argument_refuses_what_is_not_a_number(name, param):
    """Values that are not numbers raise ParameterDomainError; real values
    return or raise a ToolkitError, IndexError only for a mode above the
    series' order; nothing raises ValueError, TypeError or OverflowError,
    or warns (RuntimeWarning is an error here)."""
    call, example = _exports()[name], EXAMPLES[name]
    default = inspect.signature(call).parameters[param].default
    coefficients = np.iscomplexobj(example[param])
    wrong = []
    for value in MALFORMED + REALS:
        if value is None and default is None:  # the argument's own default
            continue
        number = not any(value is v for v in MALFORMED) or (
            coefficients and isinstance(value, complex))
        try:
            call(**{**example, param: value})
        except ParameterDomainError:
            pass
        except ToolkitError as exc:
            if not number:
                wrong.append((value, exc))
        except IndexError as exc:
            if not (param == "n" and isinstance(value, int) and abs(value) > example["h"].N):
                wrong.append((value, exc))
        except Exception as exc:  # ValueError, TypeError, OverflowError, a warning
            wrong.append((value, exc))
        else:
            if not number:
                wrong.append((value, "returned"))
    assert wrong == []


def test_the_rules_stay_in_series():
    """Under src/, only series.py tests a dtype kind or excludes a bool: the
    other modules reach the number, integer and coefficient rules."""
    pattern = re.compile(r"\.dtype\.kind|isinstance\([^)]*\bbool\b|\bis (not )?bool\b")
    package = Path(__file__).resolve().parents[1] / "src" / "annulus_harmonics"
    found = [f"{path.name}:{i}" for path in sorted(package.glob("*.py")) if path.name != "series.py"
             for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert found == []


# ---------------------------------------------------------------------------
# One rule per result kind (series._result): a series at a float radius gets
# Python numbers, and a stack arrays with the member axis first.
# ---------------------------------------------------------------------------

# Package objects an example builds: a series, an operator, a profile or a
# config, not the result of a computation.
BUILT = (HarmonicSeries, LambdaOperator, RadialProfile, SamplerConfig)
# The results of the methods that `verify` calls on a series' profile.
SERIES_METHODS = {
    "LambdaOperator.apply": lambda: LambdaOperator(0.5).apply(U, 1.5),
    "LambdaOperator.apply_jet": lambda: LambdaOperator(0.5).apply_jet(1.5, *U.jet(1.5)),
    "LambdaOperator.divergence_form_residual":
        lambda: LambdaOperator(0.5).divergence_form_residual(U, 1.5),
    "RadialProfile.jet": lambda: U.jet(1.5),
    "RadialProfile.value": lambda: U.value(1.5),
}
# The same kinds for the two-member PAIR (for gz_weight, one R per member).
STACK_RESULTS = {
    "gz_weight": lambda: gz_weight(np.array([2.0, 3.0]), 0.5, 1.5),
    "initial_speed": lambda: initial_speed(PAIR),
    "injectivity_probe": lambda: injectivity_probe(PAIR, 2.0),
    "inner_circle_identity_residual": lambda: inner_circle_identity_residual(PAIR),
    "k_endpoint": lambda: k_endpoint(PAIR, 0.5, 2.0),
    "k_functional": lambda: k_functional(quadratic_mean_profile(PAIR), 0.5, 2.0),
    "k_quadrature": lambda: k_quadrature(PAIR, 0.5, 2.0),
    "mean_outer_radius": lambda: mean_outer_radius(PAIR, 2.0),
    "mode_energy_excess": lambda: mode_energy_excess(PAIR),
    "mode_quadratic_form_residual": lambda: mode_quadratic_form_residual(PAIR, 2, 3.0),
    "schottky_check": lambda: schottky_check(PAIR, 2.0),
    "variance_deriv2_termwise": lambda: variance_deriv2_termwise(PAIR, 1.5),
    "variance_k_bound": lambda: variance_k_bound(PAIR, 3.0),
    "LambdaOperator.apply":
        lambda: LambdaOperator(0.5).apply(quadratic_mean_profile(PAIR), 1.5),
    "LambdaOperator.apply_jet":
        lambda: LambdaOperator(0.5).apply_jet(1.5, *quadratic_mean_profile(PAIR).jet(1.5)),
    "LambdaOperator.divergence_form_residual":
        lambda: LambdaOperator(0.5).divergence_form_residual(quadratic_mean_profile(PAIR), 1.5),
    "RadialProfile.jet": lambda: quadratic_mean_profile(PAIR).jet(1.5),
}
# The fields of a stack's SchottkyReport that hold one value for all members.
ONE_FOR_ALL = {"R", "area_bound"}


def _python_numbers(out) -> bool:
    """Whether out is Python values: a float, complex, bool, int or str, or
    a tuple, NamedTuple or report of them."""
    if dataclasses.is_dataclass(out):
        return all(_python_numbers(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, tuple):
        return all(_python_numbers(v) for v in out)
    return type(out) in (float, complex, bool, int, str)


def _member_arrays(out) -> bool:
    """Whether out is arrays with PAIR's two members first, or a tuple,
    NamedTuple or report of them (a report's ONE_FOR_ALL fields aside)."""
    if dataclasses.is_dataclass(out):
        return all(_member_arrays(getattr(out, f.name)) for f in dataclasses.fields(out)
                   if f.name not in ONE_FOR_ALL)
    if isinstance(out, tuple):
        return all(_member_arrays(v) for v in out)
    return isinstance(out, np.ndarray) and out.shape[:1] == (len(PAIR),)


@pytest.mark.parametrize("name", [*EXAMPLES, *SERIES_METHODS])
def test_a_series_gets_python_numbers(name):
    """No example call returns a numpy scalar or 0-d array: each returns a
    Python number, a tuple, NamedTuple or report of them, or an object of
    the package."""
    out = (SERIES_METHODS[name]() if name in SERIES_METHODS
           else _exports()[name](**EXAMPLES[name]))
    assert isinstance(out, BUILT) or _python_numbers(out), (name, out)


@pytest.mark.parametrize("name", STACK_RESULTS)
def test_a_stack_gets_member_arrays(name):
    out = STACK_RESULTS[name]()
    assert _member_arrays(out), (name, out)
