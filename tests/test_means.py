"""Closed-form mean profiles, class flags, speeds and the energy identity."""

import inspect

import numpy as np
import pytest

from annulus_harmonics import (
    DegenerateSeriesError,
    HarmonicSeries,
    LambdaOperator,
    NumericOverflowError,
    ParameterDomainError,
    RadialProfile,
    SamplerConfig,
    extremal_map,
    initial_speed,
    is_class_D,
    is_class_N,
    mean_outer_radius,
    quadratic_mean_mode,
    quadratic_mean_numeric,
    quadratic_mean_profile,
    random_series,
    variance_profile,
)
from annulus_harmonics import means
from annulus_harmonics.means import variance_deriv2_termwise
from annulus_harmonics.operators import k_endpoint
from annulus_harmonics.sampling import random_series_stack
from annulus_harmonics.series import SeriesStack, circle_grid_fields

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


@pytest.mark.parametrize("radii", ["scalar", "shared", "per-member"])
def test_mode_profile_of_a_stack_matches_each_member(radii):
    """One mode per member of a stack, negative modes included, against
    the profile of each member's mode alone."""
    members = [random_series(SamplerConfig(seed=70 + N, N=N, decay=0.5))
               for N in (1, 3, 6, 9, 12)]
    ns = np.array([1, -3, 2, -9, 12])
    P = quadratic_mean_mode(SeriesStack.of(members), ns)
    rho = {"scalar": 1.7, "shared": GRID,
           "per-member": np.stack([GRID * (1 + 0.1 * i) for i in range(5)])}[radii]
    stacked = P.jet(rho)
    for i, h in enumerate(members):
        r = rho[i] if radii == "per-member" else rho
        for got, want in zip(stacked, quadratic_mean_mode(h, int(ns[i])).jet(r)):
            np.testing.assert_allclose(got[i], want, rtol=1e-15, atol=1e-15 * np.max(np.abs(want)))


def test_mode_profile_of_a_stack_rejects_unstored_modes():
    stack = SeriesStack.of([CRITICAL, IDENTITY])
    for ns in ([1, 0], [1, 2], [-2, 1]):
        with pytest.raises(IndexError):
            quadratic_mean_mode(stack, np.array(ns))


def test_stack_profiles_are_not_memoised():
    stack = SeriesStack.of([CRITICAL, IDENTITY])
    before = means._memo_quadratic_mean_profile.cache_info().currsize
    P = quadratic_mean_profile(stack)
    assert quadratic_mean_profile(stack) is not P
    assert means._memo_quadratic_mean_profile.cache_info().currsize == before


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
    # the coefficients of L_lam, written out here as an independent reference
    drift = (3.0 * lam - rho**2) / (rho * (rho**2 + lam))
    zero = -8.0 * lam / (rho**2 + lam) ** 2
    want = d2 + drift * d1 + zero * v
    magnitude = d2_mag + np.abs(drift) * d1_mag + np.abs(zero) * v_mag
    assert np.all(np.abs(op.apply(P, rho) - want) <= 1e-13 * magnitude)


# the jet at a Python-float radius: the memoised path against a fresh array
# evaluation and the closed form, at radii that a sloppy memo key would merge
# ---------------------------------------------------------------------------

def float_radius_cases():
    """pytest params (profile, reference terms) of U, V and one U_n of 20
    series, N = 1 among them: where the only power of the table is rho^2,
    numpy squares a column of radii exactly and may round pow(rho, 2.0)
    apart, so the float path must lay its power out as the array path."""
    for i in range(20):
        N = 1 + i % 12
        h = random_series(SamplerConfig(seed=500 + i, N=N, decay=0.5))
        n = (1 + i % N) * (-1) ** i
        a_n, b_n = h.coeff(n)
        yield pytest.param(quadratic_mean_profile(h), (h.mode_numbers, h.a, h.b, h.a0, h.b0),
                           id=f"U-{i}")
        yield pytest.param(variance_profile(h), (h.mode_numbers, h.a, h.b, 0j, 0j),
                           id=f"V-{i}")
        yield pytest.param(quadratic_mean_mode(h, n),
                           ([n], np.array([a_n]), np.array([b_n]), 0j, 0j), id=f"U_{n}-{i}")


def float_radii() -> list:
    """200 float radii in [0.6, 4], in the order they are read: 100 alone,
    then 25 pairs one ulp apart and 25 pairs with the same round(rho, 1)."""
    rng = np.random.default_rng(17)
    radii = rng.uniform(0.6, 4.0, 150).tolist()
    out = radii[:100]
    for r in radii[100:125]:
        out += [r, float(np.nextafter(r, np.inf))]
    for r in radii[125:]:  # r and a point across round(r, 1) from it
        out += [r, round(r, 1) + 0.8 * (round(r, 1) - r)]
    assert len(set(out)) == 200
    return out


FLOAT_CASES = list(float_radius_cases())
FLOAT_RADII = float_radii()


def assert_float_radius_jet(P: RadialProfile, terms, radii) -> None:
    """At each float radius, in turn: jet, value, deriv1 and deriv2 are
    Python floats that match the closed form to 1e-12 of the size of its
    terms, and np.float64(rho) and a 0-d array, evaluated afresh, give the
    same numbers."""
    refs = reference_jet(*terms, np.array(radii))
    for i, r in enumerate(radii):
        got = [*P.jet(r), P.value(r), P.deriv1(r), P.deriv2(r)]
        assert all(type(x) is float for x in got) and got[:3] == got[3:], (r, got)
        for x, (want, magnitude) in zip(got, refs):
            assert abs(x - want[i]) <= 1e-12 * magnitude[i], (r, x, want[i])
        _memo(P).clear()  # np.float64 shares the float's memo entry
        for f in (np.float64(r), np.array(r)):
            again = [*P.jet(f), P.value(f), P.deriv1(f), P.deriv2(f)]
            assert all(type(x) is float for x in again) and again == got, (r, again)


def assert_float_radius_bits(P: RadialProfile, radii) -> None:
    """At each float radius, in turn, jet and value, deriv1, deriv2 have the
    bits (float hex) of jet(np.array([rho]))."""
    for r in radii:
        fresh = [x.hex() for x in np.stack(P.jet(np.array([r])))[:, 0].tolist()]
        got = [*P.jet(r), P.value(r), P.deriv1(r), P.deriv2(r)]
        assert [x.hex() for x in got] == fresh * 2, r


@pytest.mark.parametrize("P, terms", FLOAT_CASES)
def test_float_radius_jet_is_a_float_on_the_closed_form(P, terms):
    assert_float_radius_jet(P, terms, FLOAT_RADII)


@pytest.mark.parametrize("P, terms", FLOAT_CASES)
def test_float_radius_jet_has_the_bits_of_the_array_jet(P, terms):
    assert_float_radius_bits(P, FLOAT_RADII)


class RoundedMemo(dict):
    """A jet memo keyed by round(rho, 1): the table of one radius is read
    at its neighbours, the fault the float-radius tests guard against."""

    def pop(self, rho, default=None):
        return super().pop(round(rho, 1), default)

    def __setitem__(self, rho, table):
        super().__setitem__(round(rho, 1), table)


def test_float_radius_checks_fail_on_a_memo_keyed_by_rounded_radii(monkeypatch):
    for case in FLOAT_CASES[3:6]:
        P, terms = case.values
        cells = dict(zip(P._jet.__code__.co_freevars, P._jet.__closure__))
        monkeypatch.setattr(cells["memo"], "cell_contents", RoundedMemo())
        with pytest.raises(AssertionError):
            assert_float_radius_jet(P, terms, FLOAT_RADII)
        with pytest.raises(AssertionError):
            assert_float_radius_bits(P, FLOAT_RADII)


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

def inner_mean(h: HarmonicSeries) -> complex:
    """Limit of the circle mean of h at the inner circle, which is b0."""
    return h.b0


def normal_mean_coeff(h: HarmonicSeries) -> complex:
    """Limit of the circle mean of dh/drho at the inner circle, which is a0."""
    return h.a0


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


def test_mean_outer_radius_of_an_array_of_radii_is_the_per_radius_calls():
    """A series takes an array of radii, and a stack one radius per member;
    each entry equals the call at that radius alone."""
    h = random_series(SamplerConfig(seed=3, N=4))
    R = np.array([1.5, 2.0, 3.0])
    assert np.array_equal(mean_outer_radius(h, R),
                          [mean_outer_radius(h, r) for r in R.tolist()])
    stack = SeriesStack.of([h, extremal_map(0.5), random_series(SamplerConfig(seed=4, N=2))])
    assert np.array_equal(mean_outer_radius(stack, R),
                          [mean_outer_radius(stack.series(i), r) for i, r in enumerate(R.tolist())])


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
    for rho in (1.1, 1.6, 2.4):
        lhs = float(U.deriv2(rho)) + float(U.deriv1(rho)) / rho
        rhs = 2.0 * float(np.mean(circle_grid_fields(h, rho, 256).grad_norm_sq(rho)))
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


@pytest.mark.parametrize("R", [1e20, 1e200, [2.0, 1e200]])
def test_mean_outer_radius_overflow_is_a_typed_error(R):
    h = random_series(SamplerConfig(seed=7, N=8))
    with pytest.raises(NumericOverflowError):
        mean_outer_radius(h, R if np.ndim(R) == 0 else np.array(R))


# ---------------------------------------------------------------------------
# the per-profile memo of scalar jet tables
# ---------------------------------------------------------------------------

def _count_tables(monkeypatch) -> list:
    """Record the radii of every means._jet_table call."""
    radii = []
    table = means._jet_table

    def counted(r, two_k, weights):
        radii.append(np.array(r))
        return table(r, two_k, weights)

    monkeypatch.setattr(means, "_jet_table", counted)
    return radii


def _memo(P: RadialProfile) -> dict:
    return inspect.getclosurevars(P._jet).nonlocals["memo"]


def test_value_and_derivatives_at_a_float_radius_share_one_table(monkeypatch):
    U = quadratic_mean_profile(random_series(SamplerConfig(seed=11, N=12, decay=0.2)))
    radii = [1.0 + 2.0 * i / 50 for i in range(1, 51)]
    tables = _count_tables(monkeypatch)
    rows = [(U.value(r), U.deriv1(r), U.deriv2(r)) for r in radii]
    assert len(tables) == 50
    for r, row in zip(radii, rows):
        fresh = [float(col[0]) for col in U.jet(np.array([r]))]
        assert [float(x).hex() for x in row] == [x.hex() for x in fresh]
        assert [float(x).hex() for x in U.jet(r)] == [x.hex() for x in fresh]
        assert len(_memo(U)) <= means._JET_MEMO_SIZE == 4


def test_k_endpoint_builds_the_inner_jet_once(monkeypatch):
    U = quadratic_mean_profile(random_series(SamplerConfig(seed=12, N=6, decay=0.2)))
    tables = _count_tables(monkeypatch)
    for i in range(10):
        k_endpoint(U, -0.5 + 0.1 * i, 1.5 + 0.2 * i)
    assert sum(bool(np.all(r == 1.0)) for r in tables) == 1
    assert len(tables) == 11


def test_memo_keeps_the_last_four_radii():
    U = quadratic_mean_profile(random_series(SamplerConfig(seed=13, N=4)))
    memo = _memo(U)
    for r in np.linspace(1.1, 3.0, 100).tolist():
        U.value(r)
        assert len(memo) <= 4
    assert list(memo) == np.linspace(1.1, 3.0, 100).tolist()[-4:]
    assert all(not table.flags.writeable for table in memo.values())


def test_arrays_bypass_the_jet_memo(monkeypatch):
    U = quadratic_mean_profile(random_series(SamplerConfig(seed=14, N=4)))
    tables = _count_tables(monkeypatch)
    for rho in (np.array(1.5), np.array([1.5]), np.array(1.5), np.array([1.5])):
        out = U.jet(rho)
        assert not _memo(U)
    assert len(tables) == 4
    assert out[0].flags.writeable


def test_stack_jet_at_a_float_radius_is_read_only():
    P = quadratic_mean_profile(SeriesStack.of([CRITICAL, IDENTITY]))
    value, d1, d2 = P.jet(1.5)
    assert value.shape == (2,)
    for column in (value, d1, d2, P.value(1.5), P.deriv2(1.5)):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    assert np.array_equal(np.stack(P.jet(1.5)), np.stack(P.jet(np.array([1.5])))[..., 0])


def test_nan_and_overflowing_radii_are_not_memoised():
    U = quadratic_mean_profile(random_series(SamplerConfig(seed=15, N=8)))
    for _ in range(2):
        with pytest.raises(ParameterDomainError):
            U.jet(float("nan"))
    assert not _memo(U)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(U.value(1e200))
    assert not _memo(U)
    with pytest.raises(RuntimeWarning):  # warns again: nothing was kept
        U.value(1e200)


def test_zero_weight_modes_add_zero():
    """The identity saved at N = 4096 has 4095 modes of weight 0, whose
    rho^(2k) leave the float range at 1.1: they add 0, not inf times 0,
    and U, the mean radius and K's endpoint form are those of N = 1."""
    padded = HarmonicSeries.from_coeffs(N=4096, a={1: 1.0})
    plain = HarmonicSeries.from_coeffs(a={1: 1.0})
    U = quadratic_mean_profile(padded)
    assert U.value(1.1) == pytest.approx(1.21, rel=1e-15)
    assert U.value(1.1) == pytest.approx(quadratic_mean_numeric(padded, 1.1), rel=1e-15)
    r = np.array([1.1, 3.0, 40.0])
    np.testing.assert_allclose(np.stack(U.jet(r)), np.stack(quadratic_mean_profile(plain).jet(r)),
                               rtol=1e-15)
    assert mean_outer_radius(padded, 1.1) == pytest.approx(1.1, rel=1e-15)
    assert k_endpoint(padded, 0.0, 1.1) == pytest.approx(k_endpoint(plain, 0.0, 1.1), abs=1e-15)


def test_zero_weight_modes_of_a_stack_add_zero():
    """Stacked with a member of order 300, whose weights past about mode 160
    underflow to 0, a member of order 1 has U(5) finite and equal to that of
    the same series at N = 1; so has the member of order 300."""
    stack = random_series_stack([1, 2], [300, 1], 0.1)
    member = stack.series(1)
    alone = HarmonicSeries(N=1, a=member.a[[0, 300]], b=member.b[[0, 300]],
                           a0=member.a0, b0=member.b0)
    U = quadratic_mean_profile(stack)
    for rho in (5.0, np.array([5.0])):
        values = U.value(rho)
        assert np.isfinite(values).all()
        assert np.ravel(values)[1] == quadratic_mean_profile(alone).value(5.0)


def test_zero_weight_modes_keep_every_finite_bit():
    """A jet that is finite without the zero-weight rule keeps its bits
    with it: the modes of weight 0 add 0 either way."""
    h = HarmonicSeries.from_coeffs(N=200, a={1: 0.5, 3: 0.25 + 0.1j, -2: 0.1},
                                   b={2: 0.3, -1: 0.2j}, a0=0.1, b0=1.0)
    two_k, exps, shifted = means._exponents(1, h.N)
    weights = means._weights(h, exps, shifted, True, None)
    r = np.geomspace(0.5, 20.0, 41)
    got = np.stack(quadratic_mean_profile(h).jet(r), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = means._jet_table(r, two_k, weights)
    finite = np.isfinite(raw)
    assert finite[r < 5.0].all() and not finite.all()  # rho^400 overflows past 5.9
    assert np.array_equal(got[finite], raw[finite])
    assert np.isfinite(got).all()


def test_variance_profile_is_memoised_per_series():
    h = random_series(SamplerConfig(seed=16, N=5))
    V = variance_profile(h)
    assert variance_profile(h) is V
    stack = SeriesStack.of([CRITICAL, IDENTITY])
    before = means._memo_variance_profile.cache_info().currsize
    assert variance_profile(stack) is not variance_profile(stack)
    assert means._memo_variance_profile.cache_info().currsize == before
