"""Sampling determinism, normalization, perturbations and the probe."""

import numpy as np
import pytest

from annulus_harmonics import (
    DegenerateSeriesError,
    HarmonicSeries,
    ParameterDomainError,
    SamplerConfig,
    extremal_map,
    initial_speed,
    injectivity_probe,
    is_class_D,
    normalize_inner,
    perturb_extremal,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    random_series,
)
from annulus_harmonics.sampling import ensure_nonneg_speed, random_conformal_perturbation
from annulus_harmonics.series import MAX_JSON_ORDER, dumps_series


def test_same_seed_identical_series():
    cfg = SamplerConfig(seed=1234, N=6, decay=0.5)
    assert dumps_series(random_series(cfg)) == dumps_series(random_series(cfg))


def test_different_seeds_differ():
    a = random_series(SamplerConfig(seed=1, N=4))
    b = random_series(SamplerConfig(seed=2, N=4))
    assert dumps_series(a) != dumps_series(b)


def test_decay_bounds_magnitudes():
    h = random_series(SamplerConfig(seed=77, N=10, decay=0.5))
    for n, a, b in h.modes():
        assert abs(a) <= 0.5 ** abs(n) + 1e-15
        assert abs(b) <= 0.5 ** abs(n) + 1e-15


def test_sampler_config_validation():
    with pytest.raises(Exception):
        SamplerConfig(seed=0, N=0)
    with pytest.raises(Exception):
        SamplerConfig(seed=0, decay=1.5)


def test_sampler_order_bound():
    assert SamplerConfig(seed=0, N=MAX_JSON_ORDER).N == MAX_JSON_ORDER
    for N in (MAX_JSON_ORDER + 1, 10**12):
        with pytest.raises(ParameterDomainError):
            SamplerConfig(seed=0, N=N)


def test_flags_suppress_log_and_const():
    h = random_series(SamplerConfig(seed=5, N=3, include_log=False,
                                    include_const=False))
    assert h.a0 == 0j and h.b0 == 0j


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_critical_unchanged():
    h = normalize_inner(extremal_map(1.0))
    a1, b1 = h.coeff(1)
    assert a1 == pytest.approx(0.5) and b1 == pytest.approx(0.5)


def test_normalize_scales_to_unit():
    h = normalize_inner(HarmonicSeries.from_coeffs(a={1: 2.0}))
    assert h.coeff(1)[0] == pytest.approx(1.0)


def test_normalize_random_verified_by_quadrature(tame_series):
    for seed in range(10):
        h = normalize_inner(tame_series(seed=seed, N=8, decay=0.4))
        assert is_class_D(h)
        assert abs(float(quadratic_mean_profile(h).value(1.0)) - 1.0) <= 1e-14
        assert quadratic_mean_numeric(h, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_normalize_degenerate_rejected():
    pure_const = HarmonicSeries.from_coeffs(N=1, b0=2.0)
    with pytest.raises(DegenerateSeriesError):
        normalize_inner(pure_const)


def test_ensure_nonneg_speed():
    sinking = HarmonicSeries.from_coeffs(a={-1: 1.0}, b={2: 0.1})
    fixed = ensure_nonneg_speed(sinking)
    u_before = float(quadratic_mean_profile(sinking).value(1.0))
    u_after = float(quadratic_mean_profile(fixed).value(1.0))
    assert u_after == pytest.approx(u_before)
    assert initial_speed(normalize_inner(fixed)) >= 0.0


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_perturb_zero_is_extremal():
    h = perturb_extremal(0.4, 2, 0.0)
    g = extremal_map(0.4)
    assert h.coeff(1) == g.coeff(1)
    assert h.coeff(2) == (0j, 0j)


def test_perturb_mode_two_preserves_class():
    h = perturb_extremal(1.0, 2, 1e-3)
    assert is_class_D(h)


def test_perturb_constant_breaks_class():
    h = perturb_extremal(1.0, 0, 1e-3)
    assert not is_class_D(h)


def test_perturb_renormalizes():
    h = perturb_extremal(1.0, 2, 0.1, renormalize=True)
    assert float(quadratic_mean_profile(h).value(1.0)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# injectivity probe
# ---------------------------------------------------------------------------

def test_probe_extremal_positive():
    probe = injectivity_probe(extremal_map(0.5), 2.0)
    assert probe.jacobian_min > 0.0
    assert probe.windings_ok


def test_probe_critical_degenerates_at_inner_circle():
    coarse = injectivity_probe(extremal_map(1.0), 2.0, rho_samples=8)
    fine = injectivity_probe(extremal_map(1.0), 2.0, rho_samples=64)
    assert 0.0 < fine.jacobian_min < coarse.jacobian_min
    assert fine.windings_ok


def test_probe_flags_reflection():
    zbar = HarmonicSeries.from_coeffs(b={-1: 1.0})
    probe = injectivity_probe(zbar, 2.0)
    assert not probe.windings_ok
    assert probe.jacobian_min < 0.0


def test_conformal_perturbation_family():
    h = random_conformal_perturbation(404)
    assert float(np.max(np.abs(h.b))) == 0.0
    assert h.a0 == 0j and h.b0 == 0j
    from annulus_harmonics.quadrature import circle_angles
    from annulus_harmonics.series import circle_fields

    vals = circle_fields(h, 1.0, circle_angles(1024)).values
    assert float(np.max(np.abs(np.abs(vals) - 1.0))) <= 1e-6
