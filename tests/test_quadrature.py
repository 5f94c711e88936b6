"""Circle means, winding numbers, areas and radial integration."""

import math

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    NumericOverflowError,
    ParameterDomainError,
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
from annulus_harmonics import quadrature
from annulus_harmonics.quadrature import (
    _RADIAL_NODE_CAP,
    RADIAL_EPS,
    _gauss_rules,
    angular_count,
    winding_counts,
)
from annulus_harmonics.sampling import (
    SamplerConfig,
    injectivity_probe,
    random_series,
)
from annulus_harmonics.series import MAX_JSON_ORDER, SeriesStack
from annulus_harmonics.series import circle_grid_fields

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
    assert quadratic_mean_numeric(CRITICAL, 2.0) == pytest.approx(1.5625, abs=1e-13)


def test_mode_orthogonality_table(rng):
    # Cross-mode means vanish; same-mode means equal |a rho^n + b rho^-n|^2.
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
        M = angular_count(2 * max(abs(n), abs(m)))
        vn = circle_grid_fields(hn, rho, M).values
        vm = circle_grid_fields(hm, rho, M).values
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
    one call of the circle kernel, for all three field rows on the angle
    count of the quadratic mean's degree 2N, and the same trapezoid sums as
    the public circle_grid_fields to the last bit."""
    from annulus_harmonics import quadrature
    from annulus_harmonics.operators import identity_residuals

    real = quadrature._grid_fields
    for N in (9, 64):
        h = tame_series(seed=31, N=N, decay=0.3)
        rho = 1.73
        M = angular_count(2 * N)
        f = circle_grid_fields(h, rho, M)
        want = (float(np.mean(np.abs(f.values) ** 2)),
                float(np.pi * np.mean((np.conj(f.values) * f.d_theta).imag)),
                complex(np.mean(f.values)))
        calls = []
        monkeypatch.setattr(quadrature, "_grid_fields",
                            lambda *args: calls.append(args) or real(*args))
        identity_residuals(h, 0.4, rho)
        got = (quadratic_mean_numeric(h, rho), enclosed_area(h, rho), circular_mean(h, rho))
        assert got == want
        assert calls == [(h, rho, M)]


def test_one_memo_per_scalar_circle(tame_series, monkeypatch):
    """identity_residuals, circular_mean, quadratic_mean_numeric and
    enclosed_area at one fresh circle make one miss of the circle memo and
    then only hits, and the miss's means return through the overflow rule;
    the operators module keeps no memo of its own."""
    from annulus_harmonics import operators
    from annulus_harmonics.operators import identity_residuals

    h = tame_series(seed=32, N=7)
    rule, ruled = quadrature._in_float_range, []
    monkeypatch.setattr(quadrature, "_in_float_range",
                        lambda *args: ruled.append(args[:2]) or rule(*args))
    quadrature._circle_means.cache_clear()
    for lam in (0.3, -0.6):
        identity_residuals(h, lam, 1.4)
        circular_mean(h, 1.4)
        quadratic_mean_numeric(h, 1.4)
        enclosed_area(h, 1.4)
    info = quadrature._circle_means.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    assert ruled == [("the circle means of h at rho", 1.4)]
    assert [f for f in vars(operators).values() if hasattr(f, "cache_info")
            and f.__module__ == operators.__name__] == []


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


def root_count(h, rho):
    """Winding of h(C_rho) about 0 from the roots of the polynomial
    P(w) = e^(i N theta) h, w = e^(i theta), of degree 2N: the roots in
    |w| < 1, less N; with the distance of the nearest root to |w| = 1."""
    P = np.zeros(2 * h.N + 1, dtype=np.complex128)  # P[k] multiplies w^k
    ns = h.mode_numbers
    P[ns + h.N] = h.a * rho ** ns.astype(float) + h.b * rho ** -ns.astype(float)
    P[h.N] = h.a0 * math.log(rho) + h.b0
    roots = np.abs(np.roots(P[::-1]))
    return int(np.sum(roots < 1.0)) - h.N, float(np.min(np.abs(roots - 1.0)))


# 20 series like the README's `sample --N 8 --decay 0.6`, on three circles
PROBE_SERIES = [random_series(SamplerConfig(s, 8, 0.6)) for s in range(20)]
PROBE_RADII = (1.0, 1.5, 2.0)


def test_winding_number_agrees_with_the_root_count():
    """Wherever winding_number returns, it is the root count; it raises only
    where a root of P lies within 1e-3 of |w| = 1, and returns on 59 of the
    60 circles (the 600-circle probe on seeds 0-199 returns on 589)."""
    returned = 0
    for s, h in enumerate(PROBE_SERIES):
        for rho in PROBE_RADII:
            want, distance = root_count(h, rho)
            try:
                got = winding_number(h, rho)
            except ZeroOnCircleError:
                assert distance < 1e-3, (s, rho)
                continue
            returned += 1
            assert got == want, (s, rho)
    assert returned >= 59


@pytest.mark.parametrize("zero, winding", [(1.5 - 1e-2, 1), (1.5 + 1e-2, 0)])
def test_winding_about_a_zero_near_the_circle(zero, winding):
    """z - zero on C_1.5: winding 1 with the zero inside, 0 with it outside,
    once the argument count takes enough angles (2 pi 1.5 / 1e-2 ~ 940)."""
    assert winding_number(HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-zero), 1.5) == winding


def test_winding_decision_does_not_depend_on_the_stack_order():
    """z - (1 + delta) on C_1, its smallest sample |h(0)| = delta just
    above the cap's threshold 2 pi S / 2**16 (S = 1): proved, winding 0,
    both alone and padded to order 2000 by a stack member, since the
    rounding allowance is sized by the member's own order."""
    delta = 2.0 * math.pi / quadrature.MAX_WINDING_ANGLES + 1e-12
    near = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-(1.0 + delta))
    padded = SeriesStack.of([near, HarmonicSeries.from_coeffs(a={1: 1.0, 2000: 1e-3})])
    assert winding_number(near, 1.0) == 0
    assert winding_counts(padded, np.array([1.0]))[2].tolist() == [[0.0], [1.0]]


def test_probe_flags_agree_with_winding_number():
    """winding_counts on one stack proves for each circle what
    winding_number proves for it alone, and leaves open (NaN) what
    winding_number raises on; the injectivity probe's flags are
    winding_number == 1 on each of its 8 circles.  Every error type occurs,
    and several windings."""
    members = [extremal_map(lam) for lam in (-0.5, 0.0, 0.5, 1.0)]
    members += [HarmonicSeries.from_coeffs(b={-1: 1.0}),     # z-bar
                HarmonicSeries.from_coeffs(a={2: 1.0}),      # z^2
                HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-1.5001),  # a zero near C_1.5
                HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-1.5),     # a zero on C_1.5
                HarmonicSeries.from_coeffs(a={1: 1e308})]    # overflows past rho = 1
    members += PROBE_SERIES
    stack = SeriesStack.of(members)
    radii = np.array(PROBE_RADII)
    finite, _, counts = winding_counts(stack, radii)
    seen = set()
    for i, h in enumerate(members):
        for j, rho in enumerate(radii):
            try:
                n = winding_number(h, rho)
            except (NumericOverflowError, ZeroOnCircleError) as err:
                seen.add(type(err))
                assert math.isnan(counts[i, j]), (i, rho)
                assert finite[i, j] == (type(err) is ZeroOnCircleError), (i, rho)
            else:
                seen.add(n)
                assert counts[i, j] == n, (i, rho)
    assert {NumericOverflowError, ZeroOnCircleError, -1, 0, 1, 2} <= seen

    probed = members[:8] + PROBE_SERIES[:4]
    R = 2.0
    flags = injectivity_probe(SeriesStack.of(probed), R).windings_ok
    circles = np.linspace(1.0, R, 10)[1:-1]

    def winds_once(h, rho):
        try:
            return winding_number(h, rho) == 1
        except ZeroOnCircleError:
            return False

    assert flags.tolist() == [all(winds_once(h, rho) for rho in circles) for h in probed]
    assert flags.any() and not flags.all()


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
    jac = circle_grid_fields(h, rho, 256).jacobian(rho)
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


@pytest.mark.parametrize("N", [1, 6, 64, 128])
def test_energy_rings_transform_only_the_rows_they_use(N, tame_series, monkeypatch):
    h = tame_series(seed=N, N=N)
    M = angular_count(2 * N)

    def three_row_density(rhos):
        out = np.empty_like(rhos)
        for lo in range(0, rhos.size, 16):
            r = rhos[lo:lo + 16]
            g = circle_grid_fields(h, r, M).grad_norm_sq(r)
            out[lo:lo + r.size] = 2.0 * np.pi * r * np.mean(g, axis=-1)
        return out

    want = radial_integrate(three_row_density, 1.2, 1.9, 2 * N)
    rows = []
    real = quadrature.circle_grid_fields
    monkeypatch.setattr(quadrature, "circle_grid_fields",
                        lambda h, r, M, fields: rows.append(fields) or real(h, r, M, fields))
    got = dirichlet_energy(h, 1.2, 1.9)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    assert set(rows) == {("d_rho", "d_theta")}


def _closed_forms(h, rho, rho1, rho2):
    """The circular mean, quadratic mean, enclosed area and Dirichlet energy
    of h from its coefficients, with the scale of the terms summed in U."""
    n = h.mode_numbers.astype(np.float64)
    c = h.a * rho**n + h.b * rho**-n
    mean = h.a0 * math.log(rho) + h.b0
    energy = 2.0 * math.pi * (
        float(np.sum(n * (np.abs(h.a) ** 2 * (rho2 ** (2 * n) - rho1 ** (2 * n))
                          - np.abs(h.b) ** 2 * (rho2 ** (-2 * n) - rho1 ** (-2 * n)))))
        + abs(h.a0) ** 2 * math.log(rho2 / rho1))
    scale = float(np.sum(np.abs(h.a) ** 2 * rho ** (2 * n)
                         + np.abs(h.b) ** 2 * rho ** (-2 * n))) + abs(mean) ** 2
    return (mean, float(np.sum(np.abs(c) ** 2)) + abs(mean) ** 2,
            math.pi * float(np.sum(n * np.abs(c) ** 2)), energy, scale)


@pytest.mark.parametrize("N", [0, 1, 4, 16, 64, 128])
def test_band_limited_means_match_their_closed_forms(N, tame_series):
    """On angular_count(2N) angles the trapezoid means are exact up to
    rounding, for orders up to the largest of the benchmark's circles; the
    Dirichlet energy, whose radial rule errs by at most 1e-15 of it (its
    terms are all positive), matches to 1e-12."""
    if N == 0:
        h = HarmonicSeries.from_coeffs(N=0, a0=0.7 - 0.4j, b0=-0.2 + 0.9j)
    else:
        h = tame_series(seed=N, N=N)
    for rho in (1.02, 1.9, math.exp(1.5)):
        rho1, rho2 = rho, rho * 1.4
        mean, u, area, energy, scale = _closed_forms(h, rho, rho1, rho2)
        assert abs(circular_mean(h, rho) - mean) <= 1e-12 * (1.0 + math.sqrt(scale))
        assert abs(quadratic_mean_numeric(h, rho) - u) <= 1e-12 * u
        assert abs(enclosed_area(h, rho) - area) <= 1e-12 * (1.0 + math.pi * scale)
        got = dirichlet_energy(h, rho1, rho2)
        assert abs(got - energy) <= 1e-12 * energy


@pytest.mark.parametrize("N", [1, 4, 16, 64])
def test_the_angle_count_is_the_smallest_exact_one(N):
    """|h|^2 on a circle has modes -2N..2N.  On 2N angles, one short of
    exactness, its trapezoid mean aliases e^(+-2iN theta) onto the mean and
    misses Parseval's sum of |c_k|^2 (c_k the coefficients of h on the
    circle) by 2 Re(c_N conj c_-N); on angular_count(2N) angles it meets
    Parseval to rounding."""
    a = {N: 0.6 + 0.2j} if N == 1 else {1: 1.0, N: 0.6 + 0.2j}
    h = HarmonicSeries.from_coeffs(N=N, a=a, b={-N: 0.5 - 0.1j})
    ns = h.mode_numbers
    for rho in (1.0, 1.1):
        c = dict(zip(ns.tolist(), h.a * rho**ns + h.b * rho**-ns))
        parseval = sum(abs(v) ** 2 for v in c.values())
        alias = 2.0 * (c[N] * np.conj(c[-N])).real
        short, exact = (
            float(np.mean(np.abs(circle_grid_fields(h, rho, M, ("values",)).values) ** 2))
            for M in (2 * N, angular_count(2 * N)))
        assert abs(alias) > 0.1 * parseval
        assert abs(short - (parseval + alias)) <= 1e-12 * parseval
        assert abs(exact - parseval) <= 1e-12 * parseval


@pytest.mark.parametrize("N", [1, 4, 16, 64, 128])
def test_energy_bits_do_not_depend_on_the_ring_batches(N, tame_series, monkeypatch):
    M = angular_count(2 * N)
    for seed in range(5):
        h = tame_series(seed=seed, N=N)
        got = [np.float64(dirichlet_energy(h, 1.2, 1.9)).view(np.uint64)]
        # one radius per batch, then every radius of a call in one batch
        for points in (M, 2**40):
            monkeypatch.setattr(quadrature, "REQUEST_POINTS", points)
            got.append(np.float64(dirichlet_energy(h, 1.2, 1.9)).view(np.uint64))
        monkeypatch.undo()
        assert got[0] == got[1] == got[2], seed


def _energy_requests(h, rho1, rho2, monkeypatch) -> list:
    """(radii, M) of each circle_grid_fields request of dirichlet_energy."""
    requests = []

    def record(h, rhos, M, fields, real=quadrature.circle_grid_fields):
        requests.append((rhos.size, M))
        return real(h, rhos, M, fields)

    monkeypatch.setattr(quadrature, "circle_grid_fields", record)
    dirichlet_energy(h, rho1, rho2)
    monkeypatch.undo()
    return requests


@pytest.mark.parametrize("N", [1, 16, 128, 1024])
def test_energy_requests_stay_within_the_shared_bound(N, tame_series, monkeypatch):
    """Each request of the energy's rings holds at most REQUEST_POINTS angle
    points, the bound of the probe's and the winding's requests, or one
    radius; at N = 1024 (2160 angles) a rule's rings take 8 per request."""
    requests = _energy_requests(tame_series(seed=3, N=N), 1.2, 1.9, monkeypatch)
    assert {M for _, M in requests} == {angular_count(2 * N)}
    for radii, M in requests:
        assert radii * M <= quadrature.REQUEST_POINTS == 8 * 24 * 96 or radii == 1
    assert (N < 1024) == (len(requests) == 1)


def test_wide_energy_rings_take_one_request(tame_series, monkeypatch):
    """An N = 128 energy over a log-width of at most 0.5, as the circle-dense
    benchmark draws them, has a rule of at most 40 nodes on 270 angles: one
    request, where a bound of 2**13 points took two."""
    h = tame_series(seed=3, N=128)
    for rho1, rho2 in ((1.02, 1.02 * math.exp(0.5)), (1.2, 1.9), (2.0, 2.0 * math.exp(0.2))):
        [(radii, M)] = _energy_requests(h, rho1, rho2, monkeypatch)
        assert M == 270 and 2**13 // M < radii <= 40


@pytest.mark.parametrize("N", [1, 40, 300])
def test_sampled_integrands_keep_their_angle_counts(N, monkeypatch):
    """The winding count doubles from 8 angles and stops at the first count
    that proves the winding, which is 8 for a circle far from any zero
    whatever N; the Schottky |f| scan takes angular_count(20 N), beyond the
    20 N its Bernstein bound needs, whatever angular_count gives the
    band-limited means."""
    from annulus_harmonics import bounds, sampling
    from annulus_harmonics.bounds import schottky_check

    # z plus a conformal mode of order N too small to count on A(1, 2)
    h = HarmonicSeries.from_coeffs(N=N, a={1: 1.0} if N == 1 else {1: 1.0, N: 1e-9 / 2.0**N})
    angles = {}

    def record(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            k, M = key(*args)
            angles.setdefault(k, set()).add(M)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    record(quadrature, "circle_grid_fields", lambda h, rho, M, fields: (("winding",) + fields, M))
    record(sampling, "circle_grid_fields", lambda h, r, M, fields: (("probe",) + fields, M))
    record(bounds, "circle_grid_fields", lambda h, r, M, fields: (("schottky",) + fields, M))
    assert winding_number(h, 1.5) == 1
    assert injectivity_probe(h, 2.0).windings_ok
    schottky_check(h, 2.0)
    assert angles["winding", "values"] == {8}
    assert angles["probe", "d_rho", "d_theta"] == {96}
    assert angles["schottky", "values"] == {angular_count(20 * N)}
    assert angular_count(20 * N) > 20 * N


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

# The degree of an integrand g is the largest |e| of the powers r^e in r g(r):
# 1, 1/r and r^3 have degrees 1, 0 and 4.

def test_radial_constant():
    assert radial_integrate(lambda r: np.ones_like(r), 1.0, 2.0, 1) == pytest.approx(1.0)


def test_radial_log_weight():
    assert radial_integrate(lambda r: 1.0 / r, 1.0, math.e, 0) == pytest.approx(1.0)


def test_radial_cubic():
    assert radial_integrate(lambda r: r**3, 1.0, 2.0, 4) == pytest.approx(15.0 / 4.0)


def test_radial_rejects_bad_interval():
    with pytest.raises(ParameterDomainError):
        radial_integrate(lambda r: r, 2.0, 1.0, 2)
    with pytest.raises(ParameterDomainError):
        radial_integrate(lambda r: r, -1.0, 1.0, 2)


def test_angular_bound_covers_the_largest_series_from_json():
    # the trapezoid rule is exact below degree M: the quadratic means of the
    # largest series read from JSON have degree 2 * MAX_JSON_ORDER
    for degree in (1, 62, 63, 2 * MAX_JSON_ORDER):
        assert angular_count(degree) > degree


def test_angular_count_is_the_smallest_5_smooth_count_past_the_degree():
    # every 2^i 3^j 5^k up to 8 MAX_JSON_ORDER, well past the largest count
    bound = 8 * MAX_JSON_ORDER
    smooth = sorted(m for m in (2**i * 3**j * 5**k for i in range(bound.bit_length())
                                for j in range(bound.bit_length()) for k in range(8))
                    if m <= bound)
    for degree in range(2 * MAX_JSON_ORDER + 1):
        want = next(m for m in smooth if m > degree)
        assert angular_count(degree) == want, degree


# The name and the ids are those the test had while a refinement loop
# doubled its panels level by level; the first three ids come from a time
# when it was parametrized over a quadrature config.
@pytest.mark.parametrize("b, degree", [
    pytest.param(2.0, 1e6, id="cfg0-2.0"),                          # a huge degree
    pytest.param(np.array([2.0, 2.0]), [1.0, 1e6], id="cfg1-2.0"),  # one member of two
    pytest.param(1e300, 2**20, id="cfg2-1e+300"),                   # a wide interval
    pytest.param(np.full(2000, 1e300), 2**20, id="level-0-of-a-wide-stack"),
])
def test_radial_levels_past_the_node_budget_raise_before_evaluating(b, degree):
    """A member whose panels would pass _RADIAL_NODE_CAP nodes raises
    before the integrand is called at all."""
    from annulus_harmonics import QuadratureConvergenceError

    sizes = []

    def g(r):
        sizes.append(r.size)
        return np.ones_like(r)

    with pytest.raises(QuadratureConvergenceError, match=f"{_RADIAL_NODE_CAP} nodes"):
        radial_integrate(g, 1.0, b, degree)
    assert sizes == []


def _k_majorant(h, lam, R):
    """S of radial_integrate for K_lam[U] of a series h: G(1), the bound of
    the K weights on [1, R], times the integral over t in [0, log R] of
    sum_j |c_j| |beta_j(t)|, the terms of U, rho U' and rho^2 U'' over the
    basis e^(e t), 1, t, t^2, built here from the coefficients."""
    L = math.log(R)
    amp = {}  # exponent e -> coefficient of e^(e t) in U
    for n, a, b in zip(h.mode_numbers.tolist(), h.a.tolist(), h.b.tolist()):
        amp[2 * n] = amp.get(2 * n, 0.0) + abs(a) ** 2
        amp[-2 * n] = amp.get(-2 * n, 0.0) + abs(b) ** 2
    const = float(np.sum(2.0 * (h.a * np.conj(h.b)).real)) + abs(h.b0) ** 2
    alpha, beta = abs(h.a0) ** 2, 2.0 * (h.a0 * np.conj(h.b0)).real
    # U = const + beta t + alpha t^2, rho U' = beta + 2 alpha t,
    # rho^2 U'' = 2 alpha - beta - 2 alpha t; c e^(e t) gives c, c e, c e (e - 1)
    S = (abs(const) + abs(beta) + abs(2 * alpha - beta)) * L \
        + (abs(beta) + abs(2 * alpha) + abs(2 * alpha)) * L**2 / 2 + alpha * L**3 / 3
    for e, c in amp.items():
        S += c * (1 + abs(e) + abs(e * (e - 1))) * math.expm1(e * L) / e
    D, E1 = 1.0 + lam, R * R
    G = (R * R + E1) / D * max(1.0, (3 * abs(lam) + E1) / D, 8 * abs(lam) * E1 / D**2)
    return G * S


@pytest.mark.parametrize("N", [0, 1, 2, 4, 8, 12, 16])
def test_k_quadrature_is_within_its_bound(N):
    """|K by quadrature - K in endpoint form| <= RADIAL_EPS S, and at most
    1e-12 (1 + |K|), on random series, lambdas and outer radii."""
    from annulus_harmonics import SamplerConfig, k_endpoint, k_quadrature, random_series

    rng = np.random.default_rng(N)
    for seed in range(12):
        if N == 0:
            h = HarmonicSeries.from_coeffs(N=0, a0=complex(*rng.normal(size=2)),
                                           b0=complex(*rng.normal(size=2)))
        else:
            h = random_series(SamplerConfig(seed=seed, N=N, decay=0.3))
        lam = float(rng.uniform(-0.95, 1.0))
        R = float(rng.uniform(1.05, math.exp(1.5)))
        kq, ke = k_quadrature(h, lam, R), k_endpoint(h, lam, R)
        assert abs(kq - ke) <= RADIAL_EPS * _k_majorant(h, lam, R), (seed, lam, R)
        assert abs(kq - ke) <= 1e-12 * (1.0 + abs(ke)), (seed, lam, R)


@pytest.mark.parametrize("lam", [-0.99, -0.999, -0.9999])
def test_k_quadrature_near_the_pole(lam):
    """As lam nears -1 the pole of the weight nears the interval; graded
    panels keep K within 1e-10 of its endpoint form."""
    from annulus_harmonics import SamplerConfig, k_endpoint, k_quadrature, random_series

    for seed, R in ((0, 1.05), (1, 2.0), (2, math.exp(1.5))):
        h = random_series(SamplerConfig(seed=seed, N=6))
        kq, ke = k_quadrature(h, lam, R), k_endpoint(h, lam, R)
        assert abs(kq - ke) <= 1e-10 * abs(ke), (seed, R)


def test_k_quadrature_at_the_edge_of_the_lambda_domain(monkeypatch):
    """At the smallest lambda the domain admits, K returns within its bound
    or raises QuadratureConvergenceError, and g is never asked for more
    than the node cap."""
    from annulus_harmonics import (
        QuadratureConvergenceError, SamplerConfig, k_endpoint, k_quadrature, random_series)
    from annulus_harmonics import operators

    sizes = []

    def recording(g, *args):
        return radial_integrate(lambda r: sizes.append(r.size) or g(r), *args)

    monkeypatch.setattr(operators, "radial_integrate", recording)
    lam = -1.0 + 2e-9
    for seed, R in ((0, 1.05), (1, 2.0), (2, math.exp(1.5))):
        h = random_series(SamplerConfig(seed=seed, N=6))
        try:
            kq = k_quadrature(h, lam, R)
        except QuadratureConvergenceError:
            continue
        assert abs(kq - k_endpoint(h, lam, R)) <= RADIAL_EPS * _k_majorant(h, lam, R)
    assert 0 < max(sizes) <= _RADIAL_NODE_CAP


def _recorded_k(monkeypatch, P, lam, R):
    """k_functional of P with the radii of each call of its integrand."""
    from annulus_harmonics import operators

    radii = []
    monkeypatch.setattr(operators, "radial_integrate", lambda g, *args: radial_integrate(
        lambda r: radii.append(r.copy()) or g(r), *args))
    out = operators.k_functional(P, lam, R)
    monkeypatch.undo()
    return out, radii


def test_a_one_member_stack_gets_the_rule_of_its_series(monkeypatch):
    from annulus_harmonics import SamplerConfig, random_series
    from annulus_harmonics.series import SeriesStack

    h = random_series(SamplerConfig(seed=4, N=7))
    for lam, R in ((-0.9, 3.9), (0.3, 1.2), (1.0, 4.4)):
        alone, [r_alone] = _recorded_k(monkeypatch, quadratic_mean_profile(h), lam, R)
        stack, [r_stack] = _recorded_k(
            monkeypatch, quadratic_mean_profile(SeriesStack.of([h])), [lam], [R])
        assert r_stack.shape == (1, r_alone.size)
        assert np.array_equal(r_stack[0], r_alone)
        assert stack[0] == pytest.approx(alone, rel=1e-14)


def test_each_member_of_a_stack_gets_its_own_rule_in_one_call(monkeypatch):
    """Members with rules of 120, 8 and 24 nodes: one call of the integrand on
    (members, 120) radii, each row its member's own rule padded with nodes
    inside its interval, and each result that of the member alone."""
    from annulus_harmonics import SamplerConfig, random_series
    from annulus_harmonics.series import SeriesStack

    members = [random_series(SamplerConfig(seed=s, N=5)) for s in range(3)]
    lam, R = np.array([-0.95, 1.0, 0.2]), np.array([4.4, 1.1, 2.0])
    got, [radii] = _recorded_k(
        monkeypatch, quadratic_mean_profile(SeriesStack.of(members)), lam, R)
    assert radii.shape == (3, 120)
    assert ((1.0 < radii) & (radii < R[:, None])).all()
    for i, h in enumerate(members):
        alone, [r_alone] = _recorded_k(monkeypatch, quadratic_mean_profile(h), lam[i], R[i])
        assert np.array_equal(radii[i, :r_alone.size], r_alone)
        assert got[i] == pytest.approx(alone, rel=1e-13)


def _scalar_sizes(d, lam, lo, hi) -> np.ndarray:
    """_rule_size of each member, with the R^2 that _radial_rule gives it."""
    lams = [None] * hi.size if lam is None else lam.tolist()
    return np.array([quadrature._rule_size(x, l, math.exp(2.0 * h) if h < 350.0 else math.inf,
                                           lo, h)
                     for x, l, h in zip(d.tolist(), lams, hi.tolist())])


# Edge rows (d, lam, log R): lam near -1, where no one panel has a bound and
# the interval is split (count 0); log R at and past 350, where R^2 has no
# finite bound; degree 0; lam >= 0 on short intervals, where the bound of
# |r^2 + lam| takes its cos(2 y) branch; and lam = 0 and 1.
SIZER_EDGES = np.array([
    (4, -1.0 + 1e-9, math.log(2.0)), (12, -0.9999, 1.5), (0, -0.999, 0.5),
    (0, 0.5, 350.0), (3, 0.5, 400.0), (0, -0.5, 360.0),
    (0, 0.0, 1.0), (0, 1.0, 4.0), (0, -0.9, 0.5),
    (8, 0.0, 1e-3), (8, 0.3, 0.01), (30, 1.0, 0.2), (2, 0.7, 0.7), (64, 1.0, 3.0),
])


@pytest.mark.parametrize("lo", [0.0, 0.3])
def test_the_array_sizer_counts_as_the_scalar_one(lo):
    """_rule_sizes walks the ladder as _rule_size does, member by member:
    on 12,000 seeded (degree, lambda, log R) triples, with lambda and with
    lam=None, and on the edge rows."""
    rng = np.random.default_rng(37)
    d = np.concatenate([rng.integers(0, 65, 12_000), SIZER_EDGES[:, 0].astype(int)])
    lam = np.concatenate([rng.uniform(-1.0 + 1e-9, 1.0, 12_000), SIZER_EDGES[:, 1]])
    hi = lo + np.concatenate([rng.uniform(1e-4, 4.0, 12_000), SIZER_EDGES[:, 2]])
    for lams in (lam, None):
        want = _scalar_sizes(d, lams, lo, hi)
        assert np.array_equal(quadrature._rule_sizes(d, lams, lo, hi), want)
        assert len(set(want.tolist())) >= 8
    # the edge rows reach count 0: those past log R = 350, and from r = 1
    # those near the pole at r^2 = -lam
    reached = slice(-14 if lo == 0.0 else -11, -8)
    assert (_scalar_sizes(d[reached], lam[reached], lo, hi[reached]) == 0).all()


@pytest.mark.parametrize("a, splits", [(1.0, 3), (1.2, 0)])
def test_a_stack_gets_each_members_radial_rule_in_its_bits(monkeypatch, a, splits):
    """Row by row, _stack_rule's radii and weights on [a, R] are the
    member's own _radial_rule padded with its first node at weight 0, bit
    for bit, and _radial_rule runs only for the members one panel cannot
    take: from r = 1, three near the pole at r^2 = -lam."""
    rng = np.random.default_rng(5)
    d = np.concatenate([rng.integers(0, 40, 60), [4, 6, 2]])
    lam = np.concatenate([rng.uniform(-0.9, 1.0, 60), [-1.0 + 1e-9, -0.9999, -0.99999]])
    lo = math.log(a)
    hi = lo + np.log(np.concatenate([rng.uniform(1.01, 20.0, 60), [2.0, 4.4, 1.05]]))
    members = list(zip(d.tolist(), lam.tolist(), hi.tolist()))
    alone = quadrature._radial_rule
    split = []
    monkeypatch.setattr(quadrature, "_radial_rule",
                        lambda *args: split.append(args) or alone(*args))
    r, w = quadrature._stack_rule(d, lam, lo, hi)
    counts = quadrature._rule_sizes(d, lam, lo, hi)
    assert [args[3] for args in split] == hi[counts == 0].tolist() and len(split) == splits
    assert len(set(counts.tolist())) > 4
    rules = [alone(d_i, lam_i, lo, hi_i) for d_i, lam_i, hi_i in members]
    assert r.shape[1] == max(nodes.size for nodes, _ in rules)
    for row, (nodes, weights) in enumerate(rules):
        n = nodes.size
        assert r[row, :n].tobytes() == nodes.tobytes(), row
        assert w[row, :n].tobytes() == weights.tobytes(), row
        assert (r[row, n:] == nodes[0]).all() and (w[row, n:] == 0.0).all(), row


def test_winding_near_pole_is_not_integer():
    """A zero of h 1e-4 off C_1.5 gives no proved integer: the argument
    count would need 2 pi 1.5 / 1e-4 ~ 94,000 angles, past its 2**16, so it
    raises with the smallest |h| sampled (at theta = 0) instead of
    rounding an unproved sum."""
    h = HarmonicSeries.from_coeffs(a={1: 1.0}, b0=-1.5001)
    with pytest.raises(ZeroOnCircleError, match=r"reaches 1\.000e-04"):
        winding_number(h, 1.5)


@pytest.mark.parametrize("n", [8, 48, 128])
def test_cached_gauss_rules_are_read_only_and_correctly_rounded(n):
    """Each rule matches the Gauss-Legendre rule in 40-digit arithmetic to
    within rounding (numpy's leggauss weights err by 1e-12 from n = 48 on),
    and the memoised arrays cannot be written."""
    from mpmath import mp, mpf

    x, w = _gauss_rules()[n]
    assert x is _gauss_rules()[n][0]
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    for xi, wi in zip(x[n // 2:].tolist(), w[n // 2:].tolist()):  # symmetric rule
        with mp.workdps(40):
            t = mpf(xi)
            for _ in range(3):  # Newton on P_n from the rounded node
                p0, p1 = mpf(1), t
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
                dp = n * (t * p1 - p0) / (t * t - 1)
                t -= p1 / dp
            assert abs(xi - t) <= 2**-53
            assert abs(wi - 2 / ((1 - t * t) * dp * dp)) <= 2**-52 * wi
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def _gauss_rule_alone(n):
    """The reference: one rule's Newton pass in extended precision, over
    that rule's own nodes alone."""
    k = np.arange(n // 2, 0, -1, dtype=np.longdouble)
    x = (1 - (n - 1) / (8 * np.longdouble(n) ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    w = (2 / ((1 - x * x) * dp * dp)).astype(np.float64)
    x = x.astype(np.float64)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def test_every_gauss_rule_has_the_bits_of_its_own_newton_pass():
    """The one pass over all 16 rule sizes the radial rule takes (8..128 in
    steps of 8) gives each rule the float64 bits of a pass over that rule
    alone; every rule is read-only, and each call returns the same arrays."""
    sizes = range(8, quadrature._RULE_CAP + 1, quadrature._RULE_STEP)
    assert sorted(quadrature._gauss_rules()) == list(sizes)
    for n in sizes:
        x, w = _gauss_rules()[n]
        want_x, want_w = _gauss_rule_alone(n)
        assert x.size == w.size == n
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes(), n
        assert not x.flags.writeable and not w.flags.writeable
        again = _gauss_rules()[n]
        assert again[0] is x and again[1] is w


def test_radial_nonconvergence_raises():
    """An integrand whose degree needs more than _RADIAL_NODE_CAP nodes
    raises before it is evaluated."""
    from annulus_harmonics import QuadratureConvergenceError

    with pytest.raises(QuadratureConvergenceError):
        radial_integrate(lambda r: np.sin(1e6 * r * r), 1.0, 2.0, 4e6)


def test_radial_interval_reaching_the_pole_raises():
    """[0.5, 2] holds r^2 = -lambda = 0.9, the pole of the K weights: no
    rule has a bound there, so the rule raises without calling the
    integrand."""
    from annulus_harmonics import QuadratureConvergenceError

    calls = []
    with pytest.raises(QuadratureConvergenceError):
        radial_integrate(lambda r: calls.append(r) or r, 0.5, 2.0, 2, -0.9)
    assert not calls
