"""Circle means, winding numbers, areas and radial integration."""

import math

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    NumericOverflowError,
    ParameterDomainError,
    QuadratureConfig,
    ZeroOnCircleError,
    circular_mean,
    dirichlet_energy,
    enclosed_area,
    extremal_map,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    radial_integrate,
    winding_number,
)
from annulus_harmonics.quadrature import (
    DEFAULT_CONFIG,
    MAX_ANGULAR_NODES,
    MAX_RADIAL_NODES_PER_UNIT,
    _RADIAL_NODE_BUDGET,
    circle_angles,
    winding_from_fields,
)
from annulus_harmonics.series import MAX_JSON_ORDER
from annulus_harmonics.series import circle_fields

CRITICAL = extremal_map(1.0)
IDENTITY = extremal_map(0.0)


# ---------------------------------------------------------------------------
# circular_mean
# ---------------------------------------------------------------------------

def test_mean_of_log_mode_is_exact():
    h = HarmonicSeries.from_coeffs(N=1, a0=2 + 1j, b0=0.3 - 0.2j)
    for rho in (1.0, 1.7, 2.9):
        want = (2 + 1j) * math.log(rho) + (0.3 - 0.2j)
        assert circular_mean(h, rho) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [1, 3, -2])
def test_mean_of_pure_oscillation_vanishes(n):
    h = HarmonicSeries.from_coeffs(a={n: 1.0})
    assert abs(circular_mean(h, 1.4)) < 1e-14


def test_mean_of_critical_modulus_squared():
    def f(rho, thetas):
        vals = circle_fields(CRITICAL, rho, thetas).values
        return np.abs(vals) ** 2

    assert circular_mean(f, 2.0).real == pytest.approx(1.5625, abs=1e-13)


def test_mode_orthogonality_table(rng):
    # Cross-mode means vanish; same-mode means equal |a rho^n + b rho^-n|^2.
    cfg = QuadratureConfig()
    for _ in range(40):
        n = int(rng.integers(-6, 7))
        m = int(rng.integers(-6, 7))
        if n == 0 or m == 0:
            continue
        a_n = complex(rng.normal(), rng.normal())
        b_n = complex(rng.normal(), rng.normal())
        a_m = complex(rng.normal(), rng.normal())
        b_m = complex(rng.normal(), rng.normal())
        hn = HarmonicSeries.from_coeffs(a={n: a_n}, b={n: b_n})
        hm = HarmonicSeries.from_coeffs(a={m: a_m}, b={m: b_m})
        rho = rng.uniform(1.0, 2.5)
        thetas = circle_angles(cfg.angular_count(2 * max(abs(n), abs(m))))
        vn = circle_fields(hn, rho, thetas).values
        vm = circle_fields(hm, rho, thetas).values
        prod = np.mean(vn * np.conj(vm))
        scale = 1.0 + float(np.mean(np.abs(vn) * np.abs(vm)))
        if n != m:
            assert abs(prod) < 1e-13 * scale
        else:
            want = abs(a_n * rho**n + b_n * rho**-n) * abs(
                a_m * rho**m + b_m * rho**-m
            )
            # mean(h_n conj(h_m)) for n = m has modulus |c_n(rho)| |c_m(rho)|.
            assert abs(prod) == pytest.approx(want, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# quadratic mean
# ---------------------------------------------------------------------------

def test_quadratic_mean_identity():
    assert quadratic_mean_numeric(IDENTITY, 3.0) == pytest.approx(9.0)


def test_quadratic_mean_critical():
    assert quadratic_mean_numeric(CRITICAL, 2.0) == pytest.approx(1.5625)


def test_quadratic_mean_matches_closed_form(tame_series, rng):
    for seed in range(25):
        h = tame_series(seed=seed, N=8, decay=0.4)
        rho = rng.uniform(1.0, 2.0)
        closed = float(quadratic_mean_profile(h).value(rho))
        assert quadratic_mean_numeric(h, rho) == pytest.approx(closed, abs=1e-12)


def test_circle_means_share_one_evaluation_and_keep_their_sums(tame_series, monkeypatch):
    """After identity_residuals has evaluated a circle, the quadratic mean,
    the enclosed area and the circular mean of that circle read the memo:
    no second evaluation, and the same trapezoid sums to the last bit."""
    from annulus_harmonics import quadrature
    from annulus_harmonics.operators import identity_residuals

    h = tame_series(seed=31, N=9, decay=0.3)
    rho = 1.73
    f = circle_fields(h, rho, circle_angles(256))
    want = (float(np.mean(np.abs(f.values) ** 2)),
            float(np.pi * np.mean((np.conj(f.values) * f.d_theta).imag)),
            complex(np.mean(f.values)))
    calls = []
    real = quadrature.circle_fields
    monkeypatch.setattr(quadrature, "circle_fields",
                        lambda *args: calls.append(args) or real(*args))
    identity_residuals(h, 0.4, rho)
    got = (quadratic_mean_numeric(h, rho), enclosed_area(h, rho), circular_mean(h, rho))
    assert got == want
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# winding number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_winding_extremal_is_one(lam, rho):
    assert winding_number(extremal_map(lam), rho) == 1


def test_winding_reflection_is_minus_one():
    zbar = HarmonicSeries.from_coeffs(b={-1: 1.0})
    assert winding_number(zbar, 1.0) == -1


def test_winding_squared_mode_is_two():
    zsq = HarmonicSeries.from_coeffs(a={2: 1.0})
    assert winding_number(zsq, 1.0) == 2


def test_winding_rejects_zero_on_circle():
    # z - 3/2 vanishes at theta = 0 on the circle of radius 3/2.
    h = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-1.5)
    with pytest.raises(ZeroOnCircleError):
        winding_number(h, 1.5)


def test_winding_of_overflowing_fields_is_a_numeric_fault():
    # a_1 rho = 1e309 overflows, so the fields on C_10 are not finite
    h = HarmonicSeries.from_coeffs(a={1: 1e308})
    with pytest.raises(NumericOverflowError):
        winding_number(h, 10.0)
    with pytest.raises(NumericOverflowError):
        winding_from_fields(np.array([1.0, math.nan]), np.array([1j, 1j]), 1.0)


# ---------------------------------------------------------------------------
# enclosed area
# ---------------------------------------------------------------------------

def test_area_identity_disk():
    assert enclosed_area(IDENTITY, 2.0) == pytest.approx(4 * math.pi)


def test_area_critical_near_inner_circle():
    assert enclosed_area(CRITICAL, 1.0 + 1e-5) == pytest.approx(math.pi, abs=1e-8)


def test_area_critical_at_two():
    assert enclosed_area(CRITICAL, 2.0) == pytest.approx(math.pi * 1.5625, abs=1e-12)


def test_area_derivative_matches_jacobian_flux(tame_series):
    # d/drho of the enclosed-area mean equals 2 rho mean(J) for harmonic h.
    h = tame_series(seed=21, N=6, decay=0.4)
    rho, step = 1.6, 1e-4
    fd = (enclosed_area(h, rho + step) - enclosed_area(h, rho - step)) / (2 * step)
    thetas = circle_angles(256)
    jac = circle_fields(h, rho, thetas).jacobian(rho)
    flux = 2 * math.pi * rho * float(np.mean(jac))
    assert fd == pytest.approx(flux, abs=1e-6)


# ---------------------------------------------------------------------------
# dirichlet energy and the energy identity
# ---------------------------------------------------------------------------

def test_energy_identity_map():
    assert dirichlet_energy(IDENTITY, 1.0, 2.0) == pytest.approx(6 * math.pi)


def test_energy_critical_closed_form():
    # pi (R^4 - 1) / (2 R^2), from integrating the ring density of the
    # closed-form mean: rho dU/drho = (rho^4 - 1)/(2 rho^2).
    R = 2.0
    want = math.pi * (R**4 - 1) / (2 * R**2)
    assert dirichlet_energy(CRITICAL, 1.0, R) == pytest.approx(want, rel=1e-10)


def test_energy_identity_random(tame_series):
    for seed in (2, 4, 8):
        h = tame_series(seed=seed, N=6, decay=0.3)
        U = quadratic_mean_profile(h)
        lhs = 1.8 * float(U.deriv1(1.8)) - 1.2 * float(U.deriv1(1.2))
        rhs = dirichlet_energy(h, 1.2, 1.8) / math.pi
        assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

def test_radial_constant():
    assert radial_integrate(lambda r: np.ones_like(r), 1.0, 2.0) == pytest.approx(1.0)


def test_radial_log_weight():
    assert radial_integrate(lambda r: 1.0 / r, 1.0, math.e) == pytest.approx(1.0)


def test_radial_cubic():
    assert radial_integrate(lambda r: r**3, 1.0, 2.0) == pytest.approx(15.0 / 4.0)


def test_radial_rejects_bad_interval():
    with pytest.raises(ParameterDomainError):
        radial_integrate(lambda r: r, 2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        radial_integrate(lambda r: r, -1.0, 1.0)


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(angular_nodes=2)
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(radial_nodes_per_unit=8)
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(refinement=1)


@pytest.mark.parametrize("field, top", [("angular_nodes", MAX_ANGULAR_NODES),
                                        ("radial_nodes_per_unit", MAX_RADIAL_NODES_PER_UNIT)])
def test_config_bounds_the_node_counts(field, top):
    assert getattr(QuadratureConfig(**{field: top}), field) == top
    for count in (top + 1, 10**13):
        with pytest.raises(ParameterDomainError, match=field):
            QuadratureConfig(**{field: count})


def test_angular_bound_covers_the_largest_series_from_json():
    assert DEFAULT_CONFIG.angular_count(2 * MAX_JSON_ORDER) <= MAX_ANGULAR_NODES


@pytest.mark.parametrize("cfg, b", [
    (QuadratureConfig(refinement=10**9), 2.0),                  # the first refinement
    (QuadratureConfig(rel_tol=0.0, refinement=10**6), 2.0),     # nothing converges
    (QuadratureConfig(radial_nodes_per_unit=MAX_RADIAL_NODES_PER_UNIT), 1e300),  # level 0
    (DEFAULT_CONFIG, np.full(2000, 1e300)),                      # a wide stack
])
def test_radial_levels_past_the_node_budget_raise_before_evaluating(cfg, b):
    from annulus_harmonics import QuadratureConvergenceError

    sizes = []

    def g(r):
        sizes.append(r.size)
        return np.ones_like(r)

    with pytest.raises(QuadratureConvergenceError, match="budget"):
        radial_integrate(g, 1.0, b, cfg)
    assert max(sizes, default=0) <= _RADIAL_NODE_BUDGET


def test_winding_near_pole_is_not_integer():
    # A zero of h just off the circle leaves |h| above the zero guard but
    # ruins the contour integral, which must be reported, not rounded.
    from annulus_harmonics import WindingNotIntegerError

    h = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-1.5001)
    with pytest.raises(WindingNotIntegerError):
        winding_number(h, 1.5)


def test_radial_nonconvergence_raises():
    from annulus_harmonics import QuadratureConvergenceError

    with pytest.raises(QuadratureConvergenceError):
        radial_integrate(lambda r: np.sin(1e6 * r * r), 1.0, 2.0)
