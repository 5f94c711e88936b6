"""Closed-form mean profiles, class flags, speeds and the energy identity."""

import numpy as np
import pytest

from annulus_harmonics import (
    DegenerateSeriesError,
    HarmonicSeries,
    LambdaOperator,
    RadialProfile,
    SamplerConfig,
    extremal_map,
    initial_speed,
    inner_mean,
    is_class_D,
    is_class_N,
    mean_outer_radius,
    normal_mean_coeff,
    quadratic_mean_mode,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    random_series,
    variance_profile,
)
from annulus_harmonics import means
from annulus_harmonics.means import variance_deriv2_termwise
from annulus_harmonics.quadrature import circle_angles
from annulus_harmonics.series import grad_norm_sq_circle

CRITICAL = extremal_map(1.0)
IDENTITY = extremal_map(0.0)
GRID = np.linspace(1.0, 3.0, 33)


# ---------------------------------------------------------------------------
# single-mode profiles
# ---------------------------------------------------------------------------

def test_mode_profile_critical():
    P = quadratic_mean_mode(CRITICAL, 1)
    want = ((GRID**2 + 1) / (2 * GRID)) ** 2
    np.testing.assert_allclose(P.value(GRID), want, rtol=1e-14)


def test_mode_profile_constant():
    h = HarmonicSeries.from_coeffs(N=1, b0=3 - 4j)
    P = quadratic_mean_mode(h, 0)
    np.testing.assert_allclose(P.value(GRID), 25.0, rtol=1e-14)
    np.testing.assert_allclose(P.deriv1(GRID), 0.0, atol=1e-14)


def test_mode_profile_vs_quadrature(rng):
    n = 3
    h = HarmonicSeries.from_coeffs(
        a={n: 0.4 - 0.1j}, b={n: complex(rng.normal(), rng.normal()) * 0.2}
    )
    P = quadratic_mean_mode(h, n)
    for rho in (1.0, 1.3, 2.1):
        assert float(P.value(rho)) == pytest.approx(
            quadratic_mean_numeric(h, rho), abs=1e-13
        )


def test_mode_profile_index_error(tame_series):
    with pytest.raises(IndexError):
        quadratic_mean_mode(tame_series(seed=0, N=4), 5)


# ---------------------------------------------------------------------------
# full profiles
# ---------------------------------------------------------------------------

def test_quadratic_mean_identity_map():
    np.testing.assert_allclose(
        quadratic_mean_profile(IDENTITY).value(GRID), GRID**2, rtol=1e-14
    )


@pytest.mark.parametrize("lam", [-0.5, 0.3, 0.9, 1.0])
def test_quadratic_mean_extremal_closed_form(lam):
    P = quadratic_mean_profile(extremal_map(lam))
    want = ((GRID**2 + lam) / ((1 + lam) * GRID)) ** 2
    np.testing.assert_allclose(P.value(GRID), want, rtol=1e-13)


def test_quadratic_mean_profile_vs_quadrature(tame_series, rng):
    for seed in range(10):
        h = tame_series(seed=seed, N=9, decay=0.4)
        rho = rng.uniform(1.0, 2.0)
        assert float(quadratic_mean_profile(h).value(rho)) == pytest.approx(
            quadratic_mean_numeric(h, rho), abs=1e-12
        )


def test_profile_derivatives_match_finite_differences(tame_series):
    h = tame_series(seed=31, N=7, decay=0.3)
    P = quadratic_mean_profile(h)
    rho, step = 1.7, 1e-5
    fd1 = (float(P.value(rho + step)) - float(P.value(rho - step))) / (2 * step)
    fd2 = (float(P.deriv1(rho + step)) - float(P.deriv1(rho - step))) / (2 * step)
    assert fd1 == pytest.approx(float(P.deriv1(rho)), abs=1e-8)
    assert fd2 == pytest.approx(float(P.deriv2(rho)), abs=1e-8)


# ---------------------------------------------------------------------------
# the profile jet against the termwise formulas
# ---------------------------------------------------------------------------

def reference_jet(ns, a, b, a0, b0, rho):
    """[(U, size), (U', size), (U'', size)] for the profile
    sum_n |a_n rho^n + b_n rho^-n|^2 + |a0 log(rho) + b0|^2, by the termwise
    formulas; each size is the summed magnitude of the terms added."""
    r = np.asarray(rho, dtype=np.float64)
    rr = r[..., None]
    n2 = 2.0 * np.asarray(ns, dtype=np.float64)
    up = np.abs(a) ** 2 * rr**n2
    down = np.abs(b) ** 2 * rr**-n2
    cross = np.broadcast_to(2.0 * (a * np.conj(b)).real, up.shape)
    c = a0 * np.log(r) + b0
    g = 2.0 * (np.conj(a0) * c).real
    size = abs(a0) * np.abs(np.log(r)) + abs(b0)   # |c| before cancellation
    orders = (
        ((up, down, cross), np.abs(c) ** 2, size**2),
        ((n2 * up / rr, -n2 * down / rr), g / r, 2 * abs(a0) * size / r),
        ((n2 * (n2 - 1) * up / rr**2, n2 * (n2 + 1) * down / rr**2),
         (2 * abs(a0) ** 2 - g) / r**2, 2 * abs(a0) * (abs(a0) + size) / r**2),
    )
    return [(sum(t.sum(-1) for t in terms) + log_term,
             sum(np.abs(t).sum(-1) for t in terms) + log_size)
            for terms, log_term, log_size in orders]


def jet_cases():
    """(id, series N) for the orders pinned: none, one, a few, the benchmark's
    largest, and beyond it."""
    for N in (0, 1, 4, 12, 40):
        if N == 0:
            h = HarmonicSeries(N=0, a0=0.7 - 0.2j, b0=-0.4 + 0.9j)
        else:
            h = random_series(SamplerConfig(seed=300 + N, N=N, decay=0.6))
        ns, a, b = h.mode_numbers, h.a, h.b
        yield f"U-N{N}", quadratic_mean_profile(h), (ns, a, b, h.a0, h.b0)
        yield f"V-N{N}", variance_profile(h), (ns, a, b, 0j, 0j)
        yield f"U_0-N{N}", quadratic_mean_mode(h, 0), ([], [], [], h.a0, h.b0)
        for n in {1, -N} if N else ():
            a_n, b_n = h.coeff(n)
            yield (f"U_{n}-N{N}", quadratic_mean_mode(h, n),
                   ([n], np.array([a_n]), np.array([b_n]), 0j, 0j))


JET_CASES = list(jet_cases())
JET_RADII = {
    "scalar": 1.7,
    "1d": np.linspace(0.6, 4.5, 13),
    "2d": np.geomspace(0.7, 4.0, 12).reshape(3, 4),
}


@pytest.mark.parametrize("shape", sorted(JET_RADII))
@pytest.mark.parametrize("case", JET_CASES, ids=[c[0] for c in JET_CASES])
def test_profile_jet_matches_termwise_reference(case, shape):
    _, P, terms = case
    rho = JET_RADII[shape]
    ref = reference_jet(*terms, rho)
    jet = P.jet(rho)
    fields = (P.value(rho), P.deriv1(rho), P.deriv2(rho))
    for got, field, (want, magnitude) in zip(jet, fields, ref):
        assert np.shape(got) == np.shape(rho)
        assert isinstance(got, float) == np.isscalar(rho)
        assert np.array_equal(got, field)
        assert np.all(np.abs(got - want) <= 1e-13 * magnitude)


@pytest.mark.parametrize("lam", [-0.9, -0.2, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("case", JET_CASES[::3], ids=[c[0] for c in JET_CASES[::3]])
def test_operator_apply_matches_reference_composition(case, lam):
    _, P, terms = case
    rho = np.linspace(1.0, 4.5, 29)
    (v, v_mag), (d1, d1_mag), (d2, d2_mag) = reference_jet(*terms, rho)
    op = LambdaOperator(lam)
    drift, zero = op.drift(rho), op.zero_order(rho)
    want = d2 + drift * d1 + zero * v
    magnitude = d2_mag + np.abs(drift) * d1_mag + np.abs(zero) * v_mag
    assert np.all(np.abs(op.apply(P, rho) - want) <= 1e-13 * magnitude)


def test_profile_from_callables_serves_jet_through_them():
    P = RadialProfile("rho^3", lambda r: r**3, lambda r: 3 * r**2, lambda r: 6 * r)
    assert P.jet(2.0) == (8.0, 12.0, 12.0)
    assert LambdaOperator(0.0).apply(P, 2.0) == pytest.approx(12.0 - 12.0 / 2.0)


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def test_variance_of_constant_vanishes():
    h = HarmonicSeries.from_coeffs(N=1, b0=5 + 2j)
    np.testing.assert_allclose(variance_profile(h).value(GRID), 0.0, atol=1e-14)


def test_variance_of_critical_equals_mean():
    np.testing.assert_allclose(
        variance_profile(CRITICAL).value(GRID),
        quadratic_mean_profile(CRITICAL).value(GRID),
        rtol=1e-14,
    )


def test_variance_second_derivative_positive(tame_series):
    for seed in range(8):
        h = tame_series(seed=seed, N=6, decay=0.4)
        assert float(np.min(variance_deriv2_termwise(h, GRID))) > 0.0


def test_variance_deriv2_termwise_matches_profile(tame_series):
    h = tame_series(seed=17, N=8, decay=0.3)
    np.testing.assert_allclose(
        variance_deriv2_termwise(h, GRID),
        variance_profile(h).deriv2(GRID),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# inner-circle data and class flags
# ---------------------------------------------------------------------------

def test_inner_means_of_critical_map():
    assert inner_mean(CRITICAL) == 0j
    assert normal_mean_coeff(CRITICAL) == 0j


def test_inner_mean_reads_constant():
    h = HarmonicSeries.from_coeffs(N=1, b0=2 + 1j)
    assert inner_mean(h) == 2 + 1j


def test_inner_mean_limit_by_quadrature():
    h = HarmonicSeries.from_coeffs(a={1: 1.0}, a0=0.5j, b0=2 + 1j)
    from annulus_harmonics import circular_mean

    for eps in (1e-3, 1e-5, 1e-7):
        got = circular_mean(h, 1.0 + eps)
        assert abs(got - h.b0) < abs(h.a0) * 2 * eps + 1e-12


@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0])
def test_extremal_maps_are_in_both_classes(lam):
    h = extremal_map(lam)
    assert is_class_D(h) and is_class_N(h)


def test_class_flags_split():
    log_plus_z = HarmonicSeries.from_coeffs(a={1: 1.0}, a0=1.0)
    assert is_class_D(log_plus_z) and not is_class_N(log_plus_z)
    shifted = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=1.0)
    assert not is_class_D(shifted) and is_class_N(shifted)


# ---------------------------------------------------------------------------
# initial speed and mean outer radius
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.4, 1.0])
def test_initial_speed_extremal(lam):
    want = (1 - lam) / (1 + lam)
    assert initial_speed(extremal_map(lam)) == pytest.approx(want, abs=1e-14)


def test_initial_speed_degenerate():
    pure_log = HarmonicSeries.from_coeffs(N=1, a0=1.0)
    with pytest.raises(DegenerateSeriesError):
        initial_speed(pure_log)


def test_mean_outer_radius_examples():
    assert mean_outer_radius(CRITICAL, 2.0) == pytest.approx(1.25)
    assert mean_outer_radius(IDENTITY, 3.7) == pytest.approx(3.7)
    assert mean_outer_radius(extremal_map(0.6), 3.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the base subsolution operator: (1/rho) d/drho (rho dU/drho) = 2 mean |Dh|^2
# ---------------------------------------------------------------------------

def test_base_operator_matches_gradient_mean(tame_series):
    h = tame_series(seed=23, N=6, decay=0.3)
    U = quadratic_mean_profile(h)
    thetas = circle_angles(256)
    for rho in (1.1, 1.6, 2.4):
        lhs = float(U.deriv2(rho)) + float(U.deriv1(rho)) / rho
        rhs = 2.0 * float(np.mean(grad_norm_sq_circle(h, rho, thetas)))
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs > 0.0


# ---------------------------------------------------------------------------
# drawn-coefficient properties
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(a1=coeff, b1=coeff, a3=coeff, a0=coeff, b0=coeff, rho=st.floats(1.0, 3.0))
def test_closed_mean_matches_quadrature_property(a1, b1, a3, a0, b0, rho):
    h = HarmonicSeries.from_coeffs(a={1: a1, -3: a3}, b={1: b1}, a0=a0, b0=b0)
    closed = float(quadratic_mean_profile(h).value(rho))
    assert closed == pytest.approx(quadratic_mean_numeric(h, rho), abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(a2=coeff, b1=coeff, rho=st.floats(1.1, 3.0))
def test_variance_deriv2_positive_property(a2, b1, rho):
    h = HarmonicSeries.from_coeffs(a={2: a2}, b={1: b1})
    if abs(a2) + abs(b1) == 0.0:
        return
    assert float(variance_deriv2_termwise(h, rho)) >= 0.0


def test_quadratic_mean_profile_is_memoised_per_series():
    h = random_series(SamplerConfig(seed=3, N=5))
    twin = random_series(SamplerConfig(seed=3, N=5))
    U = quadratic_mean_profile(h)
    assert quadratic_mean_profile(h) is U
    assert quadratic_mean_profile(twin) is not U
    assert np.array_equal(quadratic_mean_profile(twin).jet(1.7), U.jet(1.7))
    for seed in range(100):
        quadratic_mean_profile(random_series(SamplerConfig(seed=seed, N=2)))
    info = means._memo_quadratic_mean_profile.cache_info()
    assert info.currsize <= info.maxsize == 32
