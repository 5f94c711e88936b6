"""The lambda operators, their integral identities and the sharp bound."""

import dataclasses
import math

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    LambdaOperator,
    NumericOverflowError,
    ParameterDomainError,
    SamplerConfig,
    SpeedSignError,
    evolution_lower_bound,
    extremal_map,
    k_endpoint,
    k_quadrature,
    quadratic_mean_profile,
    random_series,
    variance_subsolution_min,
)
from annulus_harmonics import operators, quadrature, reports
from annulus_harmonics.operators import identity_residuals, k_functional, speed_bound
from annulus_harmonics.quadrature import angular_count
from annulus_harmonics.sampling import normalize_inner, perturb_extremal, random_series_stack
from annulus_harmonics.series import (
    SERIES_PER_CHUNK,
    SeriesStack,
    circle_grid_fields,
)
from test_sampling import draw_config

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


@pytest.mark.parametrize("call", [
    lambda op: op.apply(quadratic_mean_profile(extremal_map(0.3)), math.nan),
    lambda op: op.apply(quadratic_mean_profile(extremal_map(0.3)),
                        np.array([1.5, math.nan])),
    lambda op: op.apply_jet(math.nan, 1.0, 1.0, 1.0),
], ids=["apply", "apply-array", "apply-jet"])
def test_operator_rejects_a_nan_radius(call):
    with pytest.raises(ParameterDomainError):
        call(LambdaOperator(0.5))


def test_apply_jet_equals_apply():
    U = quadratic_mean_profile(extremal_map(0.3))
    grid = np.linspace(1.01, 5.0, 50)
    op = LambdaOperator(-0.4)
    assert np.array_equal(op.apply_jet(grid, *U.jet(grid)), op.apply(U, grid))


def test_a_rebuilt_stack_profile_keeps_its_members_and_bits():
    """The benchmark's tracer rebuilds each profile with dataclasses.replace
    and wrapped value, deriv1 and deriv2: the members field, which has no
    default, comes along, and L_lam of the rebuilt profile has the bits of
    the original's, at one radius, (m,) radii and (B, m) radii."""
    P = quadratic_mean_profile(random_series_stack([3, 4], [5, 3], 0.6))
    rebuilt = dataclasses.replace(P, value=lambda r: P.value(r),
                                  deriv1=lambda r: P.deriv1(r), deriv2=lambda r: P.deriv2(r))
    assert rebuilt.members == P.members == (2,)
    op = LambdaOperator(np.array([0.5, -0.3]))
    for rho in (1.5, np.array([1.2, 1.7, 2.5]), np.array([[1.2, 1.7], [2.5, 3.0]])):
        assert op.apply(rebuilt, rho).tobytes() == op.apply(P, rho).tobytes()
    assert (op.divergence_form_residual(rebuilt, 1.5).tobytes()
            == op.divergence_form_residual(P, 1.5).tobytes())


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
    # the extrapolated differences err at the rounding level of the nested
    # differences, about 3e-10 here, far below verify's tolerance 1e-5
    assert abs(float(op.apply(P, 1.8))) > 0.1
    assert op.divergence_form_residual(P, 1.8) < 1e-8


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
        quadratic_mean_profile(IDENTITY), 2.0
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


def pointwise_identity_residuals(h, lam, rho):
    """The identities as means of the pointwise integrands, with the
    magnitude of the largest term: the reference for identity_residuals."""
    lhs = float(LambdaOperator(lam).apply(quadratic_mean_profile(h), rho))
    f = circle_grid_fields(h, rho, angular_count(2 * h.N))
    habs2 = np.abs(f.values) ** 2
    grad_sq = np.abs(f.d_rho) ** 2 + np.abs(f.d_theta) ** 2 / rho**2
    den = rho**2 + lam
    w = (rho**2 - lam) / den
    w_prime = 4.0 * lam * rho / den**2
    radial_flux = w_prime * habs2 + 2.0 * w * (np.conj(f.values) * f.d_rho).real
    rhs_gradient = 2.0 * float(np.mean(grad_sq - radial_flux / rho))
    stretched = f.values + rho * f.d_rho - 2.0 * rho**2 * f.values / den
    angular = np.abs(f.d_theta) ** 2 - habs2 + np.abs(stretched) ** 2
    rhs_angular = (2.0 / rho**2) * float(np.mean(angular))
    scale = max(abs(lhs), 2.0 * float(np.mean(grad_sq + np.abs(radial_flux) / rho)),
                (2.0 / rho**2) * float(np.mean(np.abs(f.d_theta) ** 2 + habs2
                                               + np.abs(stretched) ** 2)))
    return abs(lhs - rhs_gradient), abs(lhs - rhs_angular), scale


def fresh_identity_residuals(h, lam, rho):
    """identity_residuals on an empty circle memo (a cache miss)."""
    quadrature._circle_means.cache_clear()
    return identity_residuals(h, lam, rho)


@pytest.mark.parametrize("N", [0, 1, 4, 16, 128])
def test_four_means_match_pointwise_reference(N):
    rng = np.random.default_rng(100 + N)
    if N == 0:
        h = HarmonicSeries(N=0, a0=0.3 - 0.7j, b0=1.1 + 0.2j)
    else:
        h = random_series(SamplerConfig(seed=N, N=N, decay=0.2))
    for lam in (-0.95, -0.5, 0.0, 0.4, 1.0):
        for rho in rng.uniform(1.02, E32, size=4):
            g, a = identity_residuals(h, lam, float(rho))
            g_ref, a_ref, scale = pointwise_identity_residuals(h, lam, float(rho))
            assert abs(g - g_ref) <= 1e-13 * scale
            assert abs(a - a_ref) <= 1e-13 * scale


def test_four_means_of_a_mixed_stack_match_pointwise_reference():
    """The batched identities on a stack of orders 0, 1, 4, 16 and 128,
    zero-padded to 128, against each member's pointwise reference."""
    members = [HarmonicSeries(N=0, a0=0.3 - 0.7j, b0=1.1 + 0.2j)] + [
        random_series(SamplerConfig(seed=N, N=N, decay=0.2)) for N in (1, 4, 16, 128)]
    rng = np.random.default_rng(99)
    rhos = rng.uniform(1.02, E32, size=(len(members), 2))
    lams = np.broadcast_to([-0.95, -0.5, 0.0, 0.4, 1.0], rhos.shape + (5,))
    grad, ang = operators.identity_residuals_stack(SeriesStack.of(members), lams, rhos)
    assert grad.shape == ang.shape == lams.shape
    for i, h in enumerate(members):
        for j, rho in enumerate(rhos[i].tolist()):
            for k, lam in enumerate(lams[i, j].tolist()):
                g_ref, a_ref, scale = pointwise_identity_residuals(h, lam, rho)
                assert abs(grad[i, j, k] - g_ref) <= 1e-13 * scale
                assert abs(ang[i, j, k] - a_ref) <= 1e-13 * scale


def test_batched_c02_draws_and_residuals_equal_scalar_calls(monkeypatch):
    """C02 draws what a draw-by-draw loop draws (N, seed, 3 rho, then 3 x 10
    lambda per series) and its batched residuals equal identity_residuals
    on each (series, rho, lambda) draw."""
    real = reports.identity_residuals_stack
    calls = []

    def record(h, lam, rho):
        out = real(h, lam, rho)
        calls.append((h, lam, rho, out))
        return out

    monkeypatch.setattr(reports, "identity_residuals_stack", record)
    plan = reports.DrawPlan(3, SERIES_PER_CHUNK + 3)
    reports.circle_identities(plan, reports.DEFAULT_TOLERANCES)
    rng = np.random.default_rng((plan.seed, 1))
    assert [len(h) for h, *_ in calls] == [SERIES_PER_CHUNK, 3]
    for stack, lams, rhos, (grad, ang) in calls:
        for i in range(len(stack)):
            h = random_series(draw_config(rng, 4, 16, 0.2))
            padded = np.zeros((2, 2, stack.N), dtype=np.complex128)
            padded[:, :, :h.N] = np.reshape((h.a, h.b), (2, 2, h.N))
            assert np.array_equal(padded.reshape(2, -1), (stack.a[i], stack.b[i]))
            assert (h.a0, h.b0) == (stack.a0[i], stack.b0[i])
            assert np.array_equal(rhos[i], rng.uniform(1.02, E32, size=3))
            for j, rho in enumerate(rhos[i].tolist()):
                assert np.array_equal(lams[i, j], rng.uniform(-0.95, 1.0, size=10))
                for k, lam in enumerate(lams[i, j].tolist()):
                    g, a = identity_residuals(h, lam, rho)
                    *_, scale = pointwise_identity_residuals(h, lam, rho)
                    assert abs(grad[i, j, k] - g) <= 1e-13 * scale
                    assert abs(ang[i, j, k] - a) <= 1e-13 * scale


def test_stack_profile_takes_one_lambda_or_one_per_member():
    """L_lam, K and its endpoint form on a stack's profile take lam as one
    number, a 0-d array too, or one per member, shape (B,) or (B, 1), at
    one float radius, at (m,) radii for m = B and m != B, and at (B, m)
    radii: each member's value is the one it has with its own lambda
    alone."""
    U = quadratic_mean_profile(random_series_stack([1, 2, 3], [4, 4, 4], 0.6))
    lams = np.array([-0.5, 0.2, 0.9])
    for rho in (1.5, np.array([1.5, 2.0, 2.5]), np.array([1.5, 2.0]),
                np.array([[1.5, 2.0], [2.5, 3.0], [1.2, 4.0]])):
        each = np.stack([LambdaOperator(lam).apply(U, rho)[i] for i, lam in enumerate(lams)])
        assert each.shape == (3,) + np.shape(rho)[-1:]
        for per_member in (lams, lams[:, None]):
            assert np.array_equal(LambdaOperator(per_member).apply(U, rho), each), rho
        assert np.array_equal(LambdaOperator(np.array(0.5)).apply(U, rho),
                              LambdaOperator(0.5).apply(U, rho))
    for K in (k_endpoint, k_functional):
        per_member = K(U, lams, 2.5)
        assert [K(U, lam, 2.5)[i] for i, lam in enumerate(lams)] == pytest.approx(
            per_member, rel=1e-14)


def test_stack_identities_domain_errors():
    stack = SeriesStack.of([IDENTITY, CRITICAL])
    rhos = np.full((2, 1), 2.0)
    for lam, rho in [(-1.0, rhos), (1.5, rhos), (-0.5, np.full((2, 1), 0.6)),
                     (0.5, np.array([[2.0], [math.nan]]))]:
        with pytest.raises(ParameterDomainError):
            operators.identity_residuals_stack(stack, np.full((2, 1, 3), lam), rho)


def test_memoised_circle_terms_in_both_loop_orders(tame_series):
    h = tame_series(seed=7, N=12)
    lams = [-0.9, -0.3, 0.0, 0.25, 0.7, 1.0]
    rhos = [1.05, 1.7, 2.9, 4.1]
    want = {(lam, rho): fresh_identity_residuals(h, lam, rho)
            for lam in lams for rho in rhos}
    quadrature._circle_means.cache_clear()
    for lam in lams:
        for rho in rhos:
            assert identity_residuals(h, lam, rho) == want[lam, rho]
    for rho in rhos:
        for lam in lams:
            assert identity_residuals(h, lam, rho) == want[lam, rho]
    info = quadrature._circle_means.cache_info()
    assert info.misses == len(rhos)
    assert info.hits == 2 * len(lams) * len(rhos) - len(rhos)


def test_memo_keys_on_series_identity(tame_series):
    h = tame_series(seed=8, N=6)
    twin = tame_series(seed=8, N=6)  # equal coefficients, another object
    quadrature._circle_means.cache_clear()
    first = identity_residuals(h, 0.5, 2.0)
    assert identity_residuals(twin, 0.5, 2.0) == first
    identity_residuals(h, 0.3, 2.0)
    info = quadrature._circle_means.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("lam,rho", [
    (-1.0, 2.0), (1.5, 2.0),         # lambda outside (-1, 1]
    (-0.5, 0.6),                      # rho^2 + lambda < 0
    (0.5, 0.0), (0.5, -1.5),          # rho not positive
])
def test_identity_domain_errors_on_miss_and_hit(lam, rho):
    quadrature._circle_means.cache_clear()
    with pytest.raises(ParameterDomainError):  # nothing memoised yet
        identity_residuals(IDENTITY, lam, rho)
    if rho > 0.0:
        identity_residuals(IDENTITY, 0.5, rho)  # memoise this circle
        assert quadrature._circle_means.cache_info().currsize == 1
    with pytest.raises(ParameterDomainError):
        identity_residuals(IDENTITY, lam, rho)


def test_circle_term_memo_stays_bounded():
    h = HarmonicSeries.from_coeffs(a={1: 1.0}, b={-1: 0.2})
    quadrature._circle_means.cache_clear()
    for rho in np.linspace(1.01, 3.0, 1000):
        identity_residuals(h, 0.3, float(rho))
    info = quadrature._circle_means.cache_info()
    assert info.misses == 1000
    assert info.currsize <= info.maxsize == 32


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


def test_k_endpoint_takes_the_profile_in_place_of_the_series(tame_series):
    members = [tame_series(seed=s, N=N, decay=0.2) for s, N in enumerate((2, 5, 9))]
    stack = SeriesStack.of(members)
    lams, Rs = np.array([-0.5, 0.2, 1.0]), np.array([1.3, 2.0, E32])
    for h, lam, R in ((members[1], 0.3, 2.2), (stack, lams, Rs)):
        want = k_endpoint(h, lam, R)
        np.testing.assert_array_equal(k_endpoint(quadratic_mean_profile(h), lam, R), want)


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


@pytest.mark.parametrize("lam", [-0.9, 0.0, 0.37, 1.0])
def test_speed_bound_formula(lam):
    # exact equality: the bounds of evolve, theorem_gate and
    # evolution_lower_bound must not move by a bit
    for rho in (1.0, 1.3, 2.0, math.e):
        assert speed_bound(rho, lam) == (rho**2 + lam) / ((1.0 + lam) * rho)
    assert speed_bound(1.0, lam) == 1.0


@pytest.mark.parametrize("rho", [1e155, 1e200, 1e300])
def test_speed_bound_overflow_is_a_typed_error(rho):
    with pytest.raises(NumericOverflowError):
        speed_bound(rho, 0.5)


def test_evolution_bound_overflow_is_a_typed_error():
    with pytest.raises(NumericOverflowError):
        evolution_lower_bound(extremal_map(0.5), 1e200)


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
