"""Series evaluation, derivatives, Jacobian, extremal family and JSON I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_harmonics import (
    HarmonicSeries,
    ParameterDomainError,
    extremal_map,
    from_json_dict,
    mean_outer_radius,
    quadratic_mean_profile,
    scale_rotate,
    theorem_gate,
    to_json_dict,
)
from annulus_harmonics.quadrature import angular_count
from annulus_harmonics.sampling import SamplerConfig, perturb_extremal, random_series
from annulus_harmonics.series import (
    circle_angles,
    circle_fields,
    circle_grid_fields,
    dumps_series,
    require_lambda,
    require_outer,
)

CRITICAL = extremal_map(1.0)
IDENTITY = extremal_map(0.0)


def mp_sum(h, rho, theta):
    """Independent extended-precision termwise summation (40 digits)."""
    from mpmath import mp

    mp.dps = 40
    r = mp.mpf(rho)
    val = mp.mpc(h.a0) * mp.log(r) + mp.mpc(h.b0)
    for n, a, b in zip(h.mode_numbers.tolist(), h.a, h.b):
        radial = mp.mpc(a) * r**n + mp.mpc(b) * r**(-n)
        val += radial * mp.exp(mp.mpc(0, n * theta))
    return complex(val)


def on_grid(h, rho, M=8):
    """The kernel's fields of h on the circle_angles(M) of C_rho."""
    return circle_grid_fields(h, rho, M)


def wirtinger(fields, rho):
    """(h_z, h_zbar) on circle_angles(M) from the polar derivatives of one
    circle, or of one circle per row with `rho` the array of radii:

        h_z    = exp(-i theta) (h_rho - i h_theta / rho) / 2
        h_zbar = exp(+i theta) (h_rho + i h_theta / rho) / 2
    """
    r = np.asarray(rho, dtype=np.float64)[..., None]
    phase = np.exp(1j * circle_angles(fields.d_rho.shape[-1]))
    hz = 0.5 * (fields.d_rho - 1j * fields.d_theta / r) / phase
    hzbar = 0.5 * (fields.d_rho + 1j * fields.d_theta / r) * phase
    return hz, hzbar


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_evaluate_critical_map_on_unit_circle():
    assert on_grid(CRITICAL, 1.0).values[0] == pytest.approx(1.0 + 0j)


def test_evaluate_identity_map():
    val = on_grid(IDENTITY, 2.0, M=4).values[1]  # theta = pi / 2
    assert val == pytest.approx(2j, abs=1e-14)


def test_evaluate_matches_extended_precision_sum(tame_series):
    h = tame_series(seed=7, N=5, decay=0.5)
    got = on_grid(h, 1.7, M=16).values
    for theta, value in zip(circle_angles(16).tolist(), got):
        want = mp_sum(h, 1.7, theta)
        assert abs(value - want) <= 1e-13 * (1 + abs(want))


def test_evaluate_rejects_nonpositive_radius():
    with pytest.raises(ParameterDomainError):
        on_grid(IDENTITY, 0.0)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivatives_identity_is_conformal():
    hz, hzbar = wirtinger(on_grid(IDENTITY, 1.3), 1.3)
    assert np.max(np.abs(hz - 1.0)) <= 1e-14
    assert np.max(np.abs(hzbar)) <= 1e-14


def test_derivatives_critical_map_hand_values():
    # d/dz of (z + 1/conj(z))/2 is 1/2; d/dzbar is -1/(2 conj(z)^2).
    hz, hzbar = wirtinger(on_grid(CRITICAL, 2.0), 2.0)
    assert hz[0] == pytest.approx(0.5, abs=1e-14)
    assert hzbar[0] == pytest.approx(-0.125, abs=1e-14)


def test_derivatives_match_finite_differences(tame_series):
    """Central differences with step 2 pi / M, across radii rho +- step and
    between the grid neighbours j +- 1."""
    h = tame_series(seed=11, N=8, decay=0.4)
    rho = 1.6

    def fd_error(M):
        step = 2 * math.pi / M
        f = on_grid(h, rho, M)
        fd_rho = (on_grid(h, rho + step, M).values
                  - on_grid(h, rho - step, M).values) / (2 * step)
        fd_theta = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * step)
        return max(np.max(np.abs(fd_rho - f.d_rho)),
                   np.max(np.abs(fd_theta - f.d_theta)))

    M = round(2 * math.pi / 1e-3)
    coarse, fine = fd_error(M), fd_error(2 * M)
    assert coarse < 1e-5
    assert fine <= coarse / 3.0 + 1e-12  # quadratic convergence


# ---------------------------------------------------------------------------
# jacobian and gradient norm
# ---------------------------------------------------------------------------

def test_jacobian_critical_vanishes_on_inner_circle():
    jac = on_grid(CRITICAL, 1.0).jacobian(1.0)
    assert np.max(np.abs(jac)) <= 1e-14


def test_jacobian_critical_closed_form():
    # (|z|^4 - 1) / (4 |z|^4) at |z|^4 = 4 is 3/16, derived by hand and
    # cross-checked below at random radii.
    rho = math.sqrt(2)
    jac = on_grid(CRITICAL, rho).jacobian(rho)
    assert np.max(np.abs(jac - 0.1875)) <= 1e-13


def test_jacobian_identity_is_one():
    assert on_grid(IDENTITY, 2.4).jacobian(2.4) == pytest.approx(np.ones(8))


def test_jacobian_critical_formula_random_points(rng):
    rhos = rng.uniform(1.0, math.exp(1.5), size=100)
    expected = (rhos**4 - 1) / (4 * rhos**4)
    jac = circle_grid_fields(CRITICAL, rhos, 8).jacobian(rhos)
    assert np.max(np.abs(jac - expected[:, None])) <= 1e-12


def test_grad_norm_identity():
    assert on_grid(IDENTITY, 1.9).grad_norm_sq(1.9) == pytest.approx(np.full(8, 2.0))


def test_grad_norm_critical_inner_circle():
    # h_z = 1/2 and |h_zbar| = 1/2 on rho = 1, so 2(1/4 + 1/4) = 1.
    assert on_grid(CRITICAL, 1.0).grad_norm_sq(1.0) == pytest.approx(np.ones(8))


def test_wirtinger_consistency_random(tame_series):
    """The polar forms of the kernel's Jacobian and gradient norm against
    the Wirtinger forms |h_z|^2 - |h_zbar|^2 and 2 (|h_z|^2 + |h_zbar|^2),
    to 1e-12 relative to the gradient."""
    for seed in range(20):
        h = tame_series(seed=seed, N=6, decay=0.4)
        rhos = np.random.default_rng(seed).uniform(0.5, 3.0, size=50)
        f = circle_grid_fields(h, rhos, 16)
        hz, hzbar = (np.abs(d) ** 2 for d in wirtinger(f, rhos))
        jac, grad = f.jacobian(rhos), f.grad_norm_sq(rhos)
        assert np.all(np.abs(hz - hzbar - jac) <= 1e-12 * np.maximum(1.0, hz + hzbar))
        assert np.all(np.abs(2.0 * (hz + hzbar) - grad) <= 1e-12 * np.maximum(1.0, grad))


# ---------------------------------------------------------------------------
# harmonicity (structural): discrete polar Laplacian -> 0 at O(step^2)
# ---------------------------------------------------------------------------

def discrete_laplacian(h, rho, M):
    """Worst five-point polar Laplacian on circle_angles(M) of C_rho, with
    step 2 pi / M across radii and between grid neighbours."""
    step = 2 * math.pi / M
    val = on_grid(h, rho, M).values
    up = on_grid(h, rho + step, M).values
    down = on_grid(h, rho - step, M).values
    left, right = np.roll(val, 1), np.roll(val, -1)
    radial = (up - 2 * val + down) / step**2 + (up - down) / (2 * step * rho)
    angular = (right - 2 * val + left) / (rho**2 * step**2)
    return np.max(np.abs(radial + angular))


def test_discrete_laplacian_vanishes_quadratically(tame_series):
    h = tame_series(seed=3, N=7, decay=0.4)
    M = round(2 * math.pi / 1e-2)
    coarse = discrete_laplacian(h, 1.4, M)
    fine = discrete_laplacian(h, 1.4, 2 * M)
    assert coarse < 1e-2
    assert fine <= coarse / 3.0 + 1e-10


# ---------------------------------------------------------------------------
# extremal family
# ---------------------------------------------------------------------------

def test_extremal_map_zero_is_identity():
    h = extremal_map(0.0)
    a1, b1 = h.coeff(1)
    assert (a1, b1) == (1.0, 0.0)


def test_extremal_map_critical_halves():
    a1, b1 = CRITICAL.coeff(1)
    assert a1 == pytest.approx(0.5)
    assert b1 == pytest.approx(0.5)


def test_extremal_map_half():
    a1, b1 = extremal_map(0.5).coeff(1)
    assert a1 == pytest.approx(2.0 / 3.0)
    assert b1 == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("lam", [-1.0, -1.5, 1.0 + 1e-9, 2.0])
def test_extremal_map_domain(lam):
    with pytest.raises(ParameterDomainError):
        extremal_map(lam)


def lambda_from_radii(R: float, R_star: float) -> float:
    """Parameter lam with mean outer radius R_star for h^lam on A(1, R).

    lam = (R^2 - R*R_star) / (R*R_star - 1).  Requires R > 1 and R_star at
    or above the sharp lower bound (R + 1/R)/2, where lam = 1 is attained.
    """
    require_outer(R)
    critical = 0.5 * (R + 1.0 / R)
    lam = (R * R - R * R_star) / (R * R_star - 1.0)
    if lam > 1.0 + 1e-12:
        raise ParameterDomainError(
            f"R_star={R_star} lies below the admissible minimum {critical}"
        )
    lam = min(lam, 1.0)
    require_lambda(lam)  # an R_star too large for R, or not finite
    return lam


def test_lambda_from_radii_examples():
    assert lambda_from_radii(2.0, 1.25) == pytest.approx(1.0)
    assert lambda_from_radii(2.0, 2.0) == pytest.approx(0.0)
    assert lambda_from_radii(3.0, 2.0) == pytest.approx(0.6)


def test_lambda_from_radii_roundtrip():
    for lam in (-0.7, -0.2, 0.3, 0.9, 1.0):
        for R in (1.4, 2.0, 4.0):
            r_star = mean_outer_radius(extremal_map(lam), R)
            assert lambda_from_radii(R, r_star) == pytest.approx(lam, abs=1e-12)


def test_lambda_from_radii_rejects_below_bound():
    with pytest.raises(ParameterDomainError):
        lambda_from_radii(2.0, 1.2)  # below (R + 1/R)/2 = 1.25
    with pytest.raises(ParameterDomainError):
        lambda_from_radii(0.9, 2.0)


# ---------------------------------------------------------------------------
# scale_rotate
# ---------------------------------------------------------------------------

def test_scale_rotate_one_is_identity(tame_series):
    h = tame_series(seed=5)
    g = scale_rotate(h, 1.0)
    assert np.array_equal(g.a, h.a) and np.array_equal(g.b, h.b)
    assert g.a0 == h.a0 and g.b0 == h.b0


def test_scale_rotate_by_i():
    g = scale_rotate(IDENTITY, 1j)
    assert g.coeff(1)[0] == pytest.approx(1j)


def test_unimodular_rotation_preserves_quadratic_mean(tame_series):
    h = tame_series(seed=9)
    g = scale_rotate(h, np.exp(0.77j))
    grid = np.linspace(1.0, 3.0, 17)
    np.testing.assert_allclose(
        quadratic_mean_profile(g).value(grid),
        quadratic_mean_profile(h).value(grid),
        rtol=1e-13,
    )


# ---------------------------------------------------------------------------
# types and JSON
# ---------------------------------------------------------------------------

def test_annulus_modulus():
    assert theorem_gate(CRITICAL, math.e).modulus == pytest.approx(1.0)
    with pytest.raises(ParameterDomainError):
        theorem_gate(CRITICAL, 1.0)


def test_coeff_index_errors(tame_series):
    h = tame_series(seed=1, N=3)
    with pytest.raises(IndexError):
        h.coeff(0)
    with pytest.raises(IndexError):
        h.coeff(4)


def test_series_fields_are_the_two_mode_arrays():
    assert [f.name for f in dataclasses.fields(HarmonicSeries)] == [
        "N", "a", "b", "a0", "b0"]
    h = HarmonicSeries.from_coeffs(N=2, a={1: 1.0, -2: 2j}, b={2: 3.0, -1: 4.0})
    assert h.a.tolist() == [1.0, 0j, 0j, 2j]       # modes 1, 2, -1, -2
    assert h.b.tolist() == [0j, 3.0, 4.0, 0j]
    assert h.mode_numbers.tolist() == [1, 2, -1, -2]
    assert h.coeff(-2) == (2j, 0j) and h.coeff(2) == (0j, 3.0 + 0j)


@pytest.mark.parametrize("a,b", [
    (np.ones(3), None),                     # not 2N entries
    (None, np.ones(5)),
    (np.ones((2, 2)), None),                # right size, not 1-d
    ([1.0, math.nan, 0.0, 0.0], None),
    (None, [0.0, 0.0, complex(0.0, math.inf), 0.0]),
    (None, [0.0, -math.inf, 0.0, 0.0]),
])
def test_constructor_rejects_bad_coefficient_arrays(a, b):
    with pytest.raises(ParameterDomainError):
        HarmonicSeries(N=2, a=a, b=b)


def test_constructor_copies_into_read_only_arrays():
    a = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
    b = np.zeros(4)
    h = HarmonicSeries(N=2, a=a, b=b)
    a[:] = 7.0
    b[:] = 7.0
    assert h.a.tolist() == [1.0, 2.0, 3.0, 4.0] and not h.b.any()
    for arr in (h.a, h.b, h.mode_numbers):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    g = HarmonicSeries(N=1)
    assert g.a.tolist() == [0j, 0j] and g.b.tolist() == [0j, 0j]


def test_growing_N_keeps_every_coefficient_at_its_mode():
    h = extremal_map(0.5)
    p = perturb_extremal(0.5, 3, 1e-3)
    assert p.N == 3 and p.coeff(1) == h.coeff(1)
    assert p.coeff(3) == (1e-3 + 0j, 0j)
    assert all(p.coeff(n) == (0j, 0j) for n in (2, -1, -2, -3))
    g = perturb_extremal(0.5, -3, 0.25j)
    assert g.N == 3 and g.coeff(1) == h.coeff(1)
    assert g.coeff(-3) == (0.25j, 0j)
    assert all(g.coeff(n) == (0j, 0j) for n in (2, 3, -1, -2))


def test_json_keeps_the_half_array_layout():
    h = HarmonicSeries.from_coeffs(N=2, a={1: 1.0, -2: 2j}, b={2: 3.0})
    d = to_json_dict(h)
    assert d["a_pos"] == [[1.0, 0.0], [0.0, 0.0]]
    assert d["a_neg"] == [[0.0, 0.0], [0.0, 2.0]]
    assert d["b_pos"] == [[0.0, 0.0], [3.0, 0.0]]
    assert d["b_neg"] == [[0.0, 0.0], [0.0, 0.0]]
    g = from_json_dict({"N": 2, "a_neg": [[0.0, 0.0], [0.0, 2.0]]})
    assert g.coeff(-2) == (2j, 0j) and not g.b.any()
    with pytest.raises(ParameterDomainError):
        from_json_dict({"N": -1})


def test_json_roundtrip_byte_stable(tame_series):
    h = tame_series(seed=13)
    text = dumps_series(h)
    again = dumps_series(from_json_dict(json.loads(text)))
    assert text == again


def test_json_missing_arrays_mean_zero():
    h = from_json_dict({"N": 2, "a_pos": [[1.0, 0.0]]})
    assert h.coeff(1) == (1.0 + 0j, 0j)
    assert h.coeff(-2) == (0j, 0j)
    assert h.a0 == 0j and h.b0 == 0j


def test_json_rejects_nonfinite():
    with pytest.raises(ParameterDomainError):
        from_json_dict({"N": 1, "a_pos": [[math.nan, 0.0]]})
    with pytest.raises(ParameterDomainError):
        from_json_dict({"N": 1, "b0": [math.inf, 0.0]})


def test_json_rejects_overlong_arrays():
    with pytest.raises(ParameterDomainError):
        from_json_dict({"N": 1, "a_pos": [[1, 0], [2, 0]]})


@settings(max_examples=50, deadline=None)
@given(
    a1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    b2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    a0=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_json_roundtrip_property(a1, b2, a0):
    h = HarmonicSeries.from_coeffs(N=2, a={1: a1}, b={2: b2}, a0=a0, b0=0.25j)
    g = from_json_dict(to_json_dict(h))
    assert g.coeff(1) == h.coeff(1)
    assert g.coeff(2) == h.coeff(2)
    assert g.a0 == h.a0 and g.b0 == h.b0


# ---------------------------------------------------------------------------
# circle kernel against a termwise direct sum
# ---------------------------------------------------------------------------

def direct_fields(h, rho, M=None, thetas=None):
    """Termwise sums of h, h_rho and h_theta, each with the sum of the
    moduli of its terms as scale.  On the grid 2 pi j / M the phase of
    mode n is reduced exactly, as 2 pi ((j n) mod M) / M."""
    ns = np.concatenate([np.arange(1, h.N + 1), -np.arange(1, h.N + 1)])
    up, down = rho ** ns.astype(float), rho ** -ns.astype(float)
    a, b = h.a, h.b
    if M is None:
        phases = np.exp(1j * np.outer(thetas, ns))
    else:
        phases = np.exp(2j * np.pi * (np.outer(np.arange(M), ns) % M) / M)
    c = a * up + b * down
    terms = (c, ns * (a * up - b * down) / rho, 1j * ns * c)
    zero = (h.a0 * math.log(rho) + h.b0, h.a0 / rho, 0j)
    return [(phases @ t + z, np.sum(np.abs(t)) + abs(z)) for t, z in zip(terms, zero)]


def kernel_series(N):
    if N == 0:
        return HarmonicSeries(N=0, a0=0.3 - 0.2j, b0=1.5 + 0.5j)
    return random_series(SamplerConfig(seed=100 + N, N=N, decay=0.5))


def assert_matches_direct(fields, reference):
    for got, (want, scale) in zip(fields, reference):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


KERNEL_ORDERS = (0, 1, 4, 12, 64, 128)


def kernel_grids(N):
    """Angle counts that fold modes together (M <= 2N) and the count the
    quadratures use."""
    folding = {M for M in (1, 3, N, 2 * N) if 1 <= M <= 2 * N} or {1}
    return sorted(folding | {angular_count(2 * N)})


@pytest.mark.parametrize("N", KERNEL_ORDERS)
def test_circle_kernel_matches_direct_sum_on_grids(N):
    h = kernel_series(N)
    for M in kernel_grids(N):
        for rho in (0.8, 1.0, 1.7):
            fields = circle_grid_fields(h, rho, M)
            assert fields.values.shape == (M,)
            assert_matches_direct(fields, direct_fields(h, rho, M))


@pytest.mark.parametrize("N", KERNEL_ORDERS)
def test_batched_radii_match_per_radius_loop(N):
    h = kernel_series(N)
    rhos = np.array([0.8, 1.0, 1.3, 1.7, 2.9])
    for M in kernel_grids(N):
        batch = circle_grid_fields(h, rhos, M)
        assert batch.values.shape == (rhos.size, M)
        for i, rho in enumerate(rhos):
            single = circle_grid_fields(h, float(rho), M)
            for got, want in zip(batch, single):
                scale = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got[i] - want)) <= 1e-13 * scale


@pytest.mark.parametrize("N", KERNEL_ORDERS)
def test_off_grid_angles_match_direct_sum(N):
    """circle_fields refuses angles off its grid.  The grid values of the
    quadrature's M > 2N angles sample a trigonometric polynomial of degree
    N, so interpolating them at the refused angles gives the direct sum."""
    h = kernel_series(N)
    thetas = np.random.default_rng(N).uniform(-7.0, 7.0, size=9)
    M = angular_count(2 * N)
    assert M > 2 * N
    phases = np.exp(1j * np.outer(thetas, np.fft.fftfreq(M, 1.0 / M)))
    for rho in (0.8, 1.7):
        with pytest.raises(ParameterDomainError):
            circle_fields(h, rho, thetas)
        grid = circle_grid_fields(h, rho, M)
        fields = [phases @ (np.fft.fft(f) / M) for f in grid]
        assert_matches_direct(fields, direct_fields(h, rho, thetas=thetas))


def test_batched_derived_fields_match_pointwise():
    """The batched Jacobian and gradient norm at each grid point against the
    Wirtinger forms of one circle's fields."""
    h = kernel_series(12)
    rhos = np.array([1.1, 2.0])
    f = circle_grid_fields(h, rhos, 64)
    for i, rho in enumerate(rhos.tolist()):
        hz, hzbar = (np.abs(d) ** 2 for d in wirtinger(on_grid(h, rho, 64), rho))
        for j in (0, 17, 63):
            assert f.jacobian(rhos)[i, j] == pytest.approx(hz[j] - hzbar[j], rel=1e-12)
            assert f.grad_norm_sq(rhos)[i, j] == pytest.approx(
                2.0 * (hz[j] + hzbar[j]), rel=1e-12)


def test_circle_angles_cached_and_read_only():
    thetas = circle_angles(64)
    assert circle_angles(64) is thetas
    assert not thetas.flags.writeable
    with pytest.raises(ValueError):
        thetas[0] = 1.0
    assert np.array_equal(thetas, 2.0 * np.pi * np.arange(64) / 64)


def test_series_equality_and_hash_are_by_identity():
    h = kernel_series(4)
    twin = kernel_series(4)
    assert h == h and hash(h) == hash(h)
    assert h != twin and dumps_series(h) == dumps_series(twin)
    assert len({h, twin, h}) == 2


def test_circle_kernel_overflow_gives_nonfinite_fields():
    big = HarmonicSeries.from_coeffs(a={8: 1e300})
    fields = circle_grid_fields(big, 100.0, 256)
    for arr in fields:
        assert not np.any(np.isfinite(arr))
    batch = circle_grid_fields(big, np.array([1.0, 100.0]), 256)
    for arr in batch:
        assert np.all(np.isfinite(arr[0])) and not np.any(np.isfinite(arr[1]))


def test_circle_grid_fields_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        circle_grid_fields(IDENTITY, np.array([1.0, 0.0]), 8)
    with pytest.raises(ParameterDomainError):
        circle_grid_fields(IDENTITY, np.array([1.0]), 0)
