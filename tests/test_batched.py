"""Stacks of series: the batched kernel, jets and criteria agree with the
one-series code, keep a NaN in any draw, and keep memory flat."""

import math
import tracemalloc

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    NumericOverflowError,
    ParameterDomainError,
    bounds,
    injectivity_probe,
    quadratic_mean_profile,
    reports,
    variance_profile,
)
from annulus_harmonics.means import RadialProfile, variance_deriv2_termwise
from annulus_harmonics.operators import k_endpoint, k_functional
from annulus_harmonics.quadrature import DEFAULT_CONFIG
from annulus_harmonics.sampling import (
    SamplerConfig,
    random_conformal_perturbation,
    random_series,
    random_series_stack,
)
from annulus_harmonics.series import SeriesStack, circle_grid_fields

ORDERS = (1, 3, 7, 12)
CONFIGS = [SamplerConfig(seed=40 + N, N=N, decay=0.4) for N in ORDERS]
MEMBERS = [random_series(cfg) for cfg in CONFIGS]
STACK = SeriesStack.of(MEMBERS)
RADII = np.array([0.7, 1.0, 1.9, 3.3])


def test_drawn_stack_holds_the_single_draws():
    stack = random_series_stack(CONFIGS)
    assert stack.N == max(ORDERS) and len(stack) == len(ORDERS)
    for name in ("a", "b", "a0", "b0"):
        assert np.array_equal(getattr(stack, name), getattr(STACK, name))
    for i, h in enumerate(MEMBERS):
        member = stack.series(i)
        assert member.N == stack.N and np.array_equal(member.a.reshape(2, -1)[:, :h.N],
                                                      h.a.reshape(2, -1))


def test_conformal_stack_holds_the_single_draws():
    seeds = [3, 404, 2**61 + 7]
    stack = random_conformal_perturbation(seeds)
    for i, seed in enumerate(seeds):
        h = random_conformal_perturbation(seed)
        assert np.array_equal(stack.a[i], h.a) and np.array_equal(stack.b[i], h.b)


@pytest.mark.parametrize("rho", [1.4, RADII, np.stack([RADII * (1 + 0.1 * i)
                                                       for i in range(len(ORDERS))])])
def test_stack_fields_equal_each_series_alone(rho):
    """Zero-padded modes add exact zeros, so the fields are identical."""
    batch = circle_grid_fields(STACK, rho, 64)
    for i, h in enumerate(MEMBERS):
        own = np.asarray(rho)[i] if np.ndim(rho) == 2 else rho
        single = circle_grid_fields(h, own, 64)
        for got, want in zip(batch, single):
            assert np.array_equal(got[i], want)


def test_stack_fields_select_rows():
    full = circle_grid_fields(STACK, RADII, 32)
    part = circle_grid_fields(STACK, RADII, 32, ("d_theta", "values"))
    assert part.d_rho is None
    assert np.array_equal(part.values, full.values)
    assert np.array_equal(part.d_theta, full.d_theta)


def term_magnitude(h, rho):
    """A bound on the terms summed in U, U' and U'' at rho: the sum of the
    absolute terms of U, times the largest factor (2N + 1)^2 / rho^2 that
    differentiation brings."""
    ns = h.mode_numbers.astype(np.float64)
    r = np.asarray(rho, dtype=np.float64)
    terms = (np.abs(h.a) ** 2 * r[..., None] ** (2 * ns)
             + np.abs(h.b) ** 2 * r[..., None] ** (-2 * ns)
             + 2 * np.abs(h.a * h.b)).sum(axis=-1)
    terms += (abs(h.a0) * np.abs(np.log(r)) + abs(h.b0)) ** 2
    return (1.0 + terms) * (2 * h.N + 1) ** 2 / np.minimum(r, 1.0) ** 2


@pytest.mark.parametrize("rho", [1.4, RADII, np.stack([RADII + i for i in range(len(ORDERS))])])
def test_stack_jet_matches_each_series_alone(rho):
    for profile in (quadratic_mean_profile, variance_profile):
        batch = profile(STACK).jet(rho)
        for i, h in enumerate(MEMBERS):
            own = np.asarray(rho)[i] if np.ndim(rho) == 2 else rho
            scale = term_magnitude(h, own)
            for got, want in zip(batch, profile(h).jet(own)):
                assert np.all(np.abs(got[i] - want) <= 1e-13 * scale)
    d2 = variance_deriv2_termwise(STACK, rho)
    for i, h in enumerate(MEMBERS):
        own = np.asarray(rho)[i] if np.ndim(rho) == 2 else rho
        want = variance_deriv2_termwise(h, own)
        assert np.all(np.abs(d2[i] - want) <= 1e-13 * term_magnitude(h, own))


def test_stack_of_one_runs_like_its_series():
    h = random_conformal_perturbation(404)
    report = bounds.schottky_check(h, 2.0)
    assert report.passed and report == bounds.schottky_check(SeriesStack.of([h]), 2.0)[0]
    probe = injectivity_probe(h, 2.0)
    assert isinstance(probe.jacobian_min, float) and isinstance(probe.windings_ok, bool)
    mixed = bounds.schottky_check(SeriesStack.of([MEMBERS[2], h]), 2.0)
    assert [r.reason for r in mixed] == ["series is not conformal (some b_n != 0)", ""]


def test_stack_checks_shapes_and_finiteness():
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=np.zeros((2, 2)), b=np.zeros((2, 3)), a0=[0, 0], b0=[0, 0])
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=[[math.nan, 0]], b=[[0, 0]], a0=[0], b0=[0])
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=np.zeros(2), b=np.zeros(2), a0=0, b0=0)


def test_integer_parameters_stay_on_the_scalar_path():
    U = quadratic_mean_profile(MEMBERS[1])
    for got in (k_functional(U, 1, 2), k_endpoint(MEMBERS[1], 0, 2)):
        assert isinstance(got, float)
    assert k_functional(U, 1, 2) == k_functional(U, 1.0, 2.0)


def test_probe_raises_a_typed_error_when_the_jacobian_overflows():
    huge = HarmonicSeries.from_coeffs(a={1: 1e308})
    with pytest.raises(NumericOverflowError):
        injectivity_probe(huge, 20.0)


# ---------------------------------------------------------------------------
# A NaN in one draw of a batched criterion fails its check.  Each case
# replaces a function the criterion calls once per chunk by a wrapper that
# spoils one member of the second chunk.
# ---------------------------------------------------------------------------

def nan_member(x, member=1):
    out = np.array(x, dtype=np.float64)
    out[member] = math.nan
    return out


def spoil_profile(profile):
    def jet(rho):
        table = np.array(profile._jet(rho))
        table[1] = math.nan
        return table
    return RadialProfile(profile.label, profile.value, profile.deriv1,
                         profile.deriv2, _jet=jet)


def spoil_pair(pair):
    lhs, rhs = pair
    return nan_member(lhs), rhs


def spoil_reports(reps):
    return [reps[0], bounds.SchottkyReport(**{**reps[1].to_dict(), "mean_radius": math.nan}),
            *reps[2:]]


CASES = [
    (reports.divergence_form, reports, "quadratic_mean_profile", spoil_profile,
     ["divergence-form-agreement"]),
    (reports.variance_subsolution, reports, "variance_profile", spoil_profile,
     ["variance-floor", "mode-chain", "variance-deriv2-match"]),
    (reports.equality_family, reports, "variance_profile", spoil_profile,
     ["equality-family"]),
    (reports.endpoint_identity, reports, "k_endpoint", nan_member, ["endpoint-match"]),
    (reports.variance_lower_bound, bounds, "variance_k_bound", spoil_pair,
     ["variance-lower-bound"]),
    (reports.inner_circle_identity, bounds, "inner_circle_identity_residual", nan_member,
     ["inner-circle-identity"]),
    (reports.conformal_refinement, bounds, "schottky_check", spoil_reports,
     ["outer-radius-bound"]),
    (reports.conformal_refinement, reports, "initial_speed", nan_member,
     ["unit-initial-speed"]),
]


@pytest.mark.parametrize("criterion, owner, name, spoil, failing", CASES,
                         ids=[f"{c[0].__name__}-{c[2]}" for c in CASES])
def test_nan_in_one_draw_fails_the_batched_check(monkeypatch, criterion, owner, name,
                                                 spoil, failing):
    real = getattr(owner, name)
    calls = []

    def spoiled(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return spoil(result) if len(calls) == 2 else result

    monkeypatch.setattr(owner, name, spoiled)
    checks = {c.name: c for c in criterion(reports.DrawPlan(5, 40), DEFAULT_CONFIG,
                                           reports.DEFAULT_TOLERANCES)}
    assert len(calls) >= 2
    for check in failing:
        assert math.isnan(checks[check].residual) and not checks[check].passed
    assert all(c.passed for n, c in checks.items() if n not in failing)


def test_nan_in_one_certificate_entry_fails_the_check(monkeypatch):
    real = bounds.mode_form_certificate
    monkeypatch.setattr(bounds, "mode_form_certificate",
                        lambda n, R: nan_member(real(n, R), member=(7, 0)))
    checks = {c.name: c for c in reports.mode_certificate(
        reports.DrawPlan(0, 1), DEFAULT_CONFIG, reports.DEFAULT_TOLERANCES)}
    assert all(math.isnan(c.residual) and not c.passed for c in checks.values())


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_all_memory_stays_flat(seed):
    """The chunked evaluation keeps the traced peak of a full run small
    (0.34-0.42 MiB when every draw was evaluated on its own)."""
    reports.run_suite("all", 0, 2)  # imports and lazy set-up
    tracemalloc.start()
    try:
        reports.run_suite("all", seed, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
