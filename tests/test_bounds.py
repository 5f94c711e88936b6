"""Scalar bounds, certificates, gates, the conformal refinement and probes."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from annulus_harmonics import (
    HarmonicSeries,
    NumericOverflowError,
    ParameterDomainError,
    SamplerConfig,
    extremal_map,
    kalaj_bound,
    nitsche_bound,
    scale_rotate,
    schottky_check,
    theorem_gate,
    uniqueness_probe,
    quadratic_mean_mode,
    random_series,
    weitsman_bound,
    wide_annulus_certificate,
)
from annulus_harmonics import bounds, sampling
from annulus_harmonics.bounds import (
    _injectivity_certificate,
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
from annulus_harmonics.operators import k_functional
from annulus_harmonics.sampling import injectivity_probe, random_conformal_perturbation
from annulus_harmonics.series import SeriesStack, _index, circle_grid_fields
from test_sampling import widened_conformal

E = math.e
E32 = math.exp(1.5)
CRITICAL = extremal_map(1.0)
IDENTITY = extremal_map(0.0)


# ---------------------------------------------------------------------------
# scalar bounds
# ---------------------------------------------------------------------------

def test_nitsche_values():
    assert nitsche_bound(2.0) == pytest.approx(1.25)
    assert nitsche_bound(E) == pytest.approx(math.cosh(1.0))
    assert nitsche_bound(1.0 + 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_classical_bounds_at_e():
    assert kalaj_bound(E) == pytest.approx(1.5)
    assert weitsman_bound(E) == pytest.approx(1.0 + 0.5 * math.exp(-2.0))


def test_bound_ordering_on_grid():
    for R in np.linspace(1.0001, 20.0, 500):
        w, k, n = weitsman_bound(R), kalaj_bound(R), nitsche_bound(R)
        assert w <= k + 1e-14
        assert k <= n + 1e-14


@pytest.mark.parametrize("R", [1e200, 1e308, np.float64(1e308)])
def test_weitsman_bound_tends_to_one_past_the_square_overflow(R):
    assert weitsman_bound(R) == 1.0


@pytest.mark.parametrize("R", [1.0001, 1.37, 2.0, E, 7.3, 1e5, 1e150])
def test_weitsman_bound_keeps_the_bits_of_the_python_formula(R):
    assert weitsman_bound(R) == 1.0 + 0.5 * math.log(R) ** 2 / R**2


def test_bounds_reject_degenerate_radius():
    for fn in (nitsche_bound, weitsman_bound, kalaj_bound):
        with pytest.raises(ParameterDomainError):
            fn(1.0)


def test_condition_modulus():
    assert condition_modulus(E)
    assert condition_modulus(E32)  # boundary case
    assert not condition_modulus(5.0)


# ---------------------------------------------------------------------------
# gate margins and weights
# ---------------------------------------------------------------------------

def test_gzbar_gate_samples():
    assert gzbar_gate_margin(E, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert gzbar_gate_margin(2.0, 0.0) == pytest.approx(3.0 - 4.0 * math.log(2.0))
    assert gzbar_gate_margin(1.5, 1.0) > 0.0


def test_gz_weight_samples():
    assert gz_weight(2.0, 0.7, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert float(gz_weight(2.0, 0.0, 1.5)) == pytest.approx(4.0 * math.log(2 / 1.5))
    want = 3.0 * math.log(4.0 / 3.0) + 1.75 / 2.25
    assert gz_weight(2.0, 1.0, 1.5) == pytest.approx(want, abs=1e-12)


def test_gz_weight_nonnegative_grid():
    for R in np.linspace(1.05, E32, 12):
        for lam in np.linspace(-1 + 1e-6, 1.0, 11):
            rho = np.linspace(1.0, R, 64)
            assert float(np.min(gz_weight(R, lam, rho))) >= -1e-12


# ---------------------------------------------------------------------------
# wide-annulus certificate
# ---------------------------------------------------------------------------

def test_wide_certificate_endpoint_values():
    # Recomputed from the closed form: 13e^4 - e^6 - 19e^2 - 1 and
    # 22e^6 - e^9 - 38e^3 - 1.
    want_e = 13 * E**4 - E**6 - 19 * E**2 - 1
    want_e32 = 22 * E**6 - E**9 - 38 * E**3 - 1
    assert wide_annulus_certificate(E) == pytest.approx(want_e, abs=1e-9)
    assert wide_annulus_certificate(E32) == pytest.approx(want_e32, abs=1e-9)
    assert want_e == pytest.approx(164.955, abs=1e-3)
    assert want_e32 == pytest.approx(8.0991, abs=1e-3)


def test_wide_certificate_positive_on_interval():
    grid = np.linspace(E, E32, 1000)
    assert float(np.min(wide_annulus_certificate(grid))) > 0.0


def test_wide_certificate_scaled_concavity():
    # Second difference of R^-4 * certificate stays negative for R >= e.
    grid = np.linspace(E, 12.0, 80)
    step = 1e-4
    f = lambda r: wide_annulus_certificate(r) / r**4  # noqa: E731
    fd2 = (f(grid + step) - 2 * f(grid) + f(grid - step)) / step**2
    assert float(np.max(fd2)) < 0.0


# ---------------------------------------------------------------------------
# per-mode quadratic form
# ---------------------------------------------------------------------------

def test_mode_coeffs_signs():
    for R in np.linspace(E, 10.0, 20):
        for n in range(2, 30):
            assert mode_form_coeffs(n, R).C < 0.0


def test_mode_coeffs_dominant_term():
    # For large n the positive-power term dominates A_n.
    n, R = 30, 1.8
    A = mode_form_coeffs(n, R).A
    assert A == pytest.approx(4.0 * R ** (2 * n + 2), rel=1e-2)


def test_mode_certificate_positive():
    for R in np.linspace(E, 10.0, 40):
        for n in range(2, 51):
            assert mode_form_certificate(n, R) > 0.0


def test_mode_certificate_matches_expansion():
    for R in (E, 3.5, 7.0, 10.0):
        for n in range(2, 51):
            d = mode_form_certificate(n, R)
            e = mode_form_certificate_expanded(n, R)
            assert abs(d - e) <= 1e-6 * max(1.0, abs(e))


def test_mode_certificate_n2_factored():
    for R in np.linspace(E, 10.0, 25):
        want = 4.0 * (R**2 - 1) * (R**8 - 5 * R**6 - 2 * R**4 + 6 * R**2 + 4)
        assert mode_form_certificate(2, R) == pytest.approx(want, rel=1e-6)


def test_mode_certificate_monotone_convex_in_n():
    for R in (E, 4.0, 8.0):
        vals = np.array([mode_form_certificate(n, R) for n in range(2, 40)])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) > 0.0)


def test_mode_form_residual_random(rng):
    for n in (1, 2, 3, 5, 8):
        for R in (E, 2.9, E32):
            scale = math.exp(-1.5 * n)
            h = HarmonicSeries.from_coeffs(
                a={n: scale * complex(rng.normal(), rng.normal())},
                b={n: scale * complex(rng.normal(), rng.normal())},
            )
            assert mode_quadratic_form_residual(h, n, R) < 1e-6


def test_mode_form_residual_zero_coefficients():
    h = HarmonicSeries.from_coeffs(N=3, a={1: 1.0})
    assert mode_quadratic_form_residual(h, 3, E) < 1e-12


def test_mode_form_residual_critical_mode():
    # For the critical map's mode the identity reads 0 = 0.
    assert mode_quadratic_form_residual(CRITICAL, 1, 2.9) < 1e-10


def test_mode_form_residual_of_a_stack_equals_its_scalar_calls():
    """One n and one R per member, integrated together, against each
    member alone (the stack refines until its worst member converges)."""
    members = [random_series(SamplerConfig(seed=60 + i, N=N, decay=0.4))
               for i, N in enumerate((1, 3, 6, 9, 12))]
    ns = np.array([1, 3, 2, 9, 5])
    Rs = np.array([1.5, 2.9, E, 4.4, 3.3])
    stacked = mode_quadratic_form_residual(SeriesStack.of(members), ns, Rs)
    assert stacked.shape == (5,)
    for i, h in enumerate(members):
        n, R = int(ns[i]), float(Rs[i])
        scale = 1.0 + abs(k_functional(quadratic_mean_mode(h, n), 1.0, R))
        assert abs(stacked[i] - mode_quadratic_form_residual(h, n, R)) <= 1e-13 * scale


def test_mode_form_residual_of_a_stack_rejects_mode_zero():
    stack = SeriesStack.of([CRITICAL, IDENTITY])
    with pytest.raises(ParameterDomainError):
        mode_quadratic_form_residual(stack, np.array([1, 0]), 2.0)


# ---------------------------------------------------------------------------
# inner-circle identity and the variance estimate
# ---------------------------------------------------------------------------

def test_inner_identity_identity_map():
    assert inner_circle_identity_residual(IDENTITY) < 1e-14


def test_inner_identity_critical_map():
    # Rotation flux 1, quadratic mean 1, zero mean; excess (1-1)|1|^2 = 0.
    assert inner_circle_identity_residual(CRITICAL) < 1e-14
    assert mode_energy_excess(CRITICAL) == pytest.approx(0.0)


def test_inner_identity_random(tame_series):
    for seed in range(25):
        h = tame_series(seed=seed, N=10, decay=0.4)
        assert inner_circle_identity_residual(h) < 1e-10


def test_variance_k_bound_critical():
    lhs, rhs = variance_k_bound(CRITICAL, 3.0)
    assert rhs == pytest.approx(0.0, abs=1e-14)
    assert abs(lhs) < 1e-9


def test_variance_k_bound_pure_first_mode():
    h = HarmonicSeries.from_coeffs(a={1: 0.8}, b={1: 0.1j})
    lhs, rhs = variance_k_bound(h, 3.2)
    assert lhs >= rhs - 1e-9


def test_variance_k_bound_random(tame_series, rng):
    for seed in range(15):
        h = tame_series(seed=seed, N=5, decay=0.2)
        R = rng.uniform(E + 1e-3, E32)
        lhs, rhs = variance_k_bound(h, R)
        assert lhs >= rhs - 1e-6


def test_variance_k_bound_requires_wide_annulus():
    with pytest.raises(ParameterDomainError):
        variance_k_bound(CRITICAL, 2.0)


# ---------------------------------------------------------------------------
# conformal refinement of Schottky's theorem
# ---------------------------------------------------------------------------

def report_fields(report, i=None):
    """The fields of a series' report, or of member i of a stack's report,
    as Python values with each float as its hex: equal fields are equal in
    every bit, and NaN equals NaN."""
    fields = {name: value if i is None or np.ndim(value) == 0 else value[i].item()
              for name, value in vars(report).items()}
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in fields.items()}


def test_schottky_reports_compare_by_identity_and_field_by_field():
    """A report equals itself only; two reports of one input agree field by
    field, also where a field is NaN (a series that is not applicable) or
    an array (a stack)."""
    for h in (extremal_map(1.0), SeriesStack.of([extremal_map(1.0), IDENTITY])):
        first, again = schottky_check(h, 2.0), schottky_check(h, 2.0)
        assert first == first and first != again and len({first, again}) == 2
        for i in ([None] if isinstance(h, HarmonicSeries) else range(len(h))):
            assert report_fields(first, i) == report_fields(again, i)
    assert not hasattr(first, "to_dict")


def test_schottky_rotation_equality():
    h = scale_rotate(IDENTITY, complex(math.cos(1.1), math.sin(1.1)))
    report = schottky_check(h, 2.0)
    assert report.applicable
    assert report.mean_radius == pytest.approx(2.0, abs=1e-12)
    assert report.area == pytest.approx(report.area_bound, abs=1e-9)
    assert report.mode_sum_margin == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_schottky_perturbed_strict():
    h = HarmonicSeries.from_coeffs(a={1: 1.0, 2: 5e-7})
    report = schottky_check(h, 2.0)
    assert report.applicable and report.passed
    assert report.mean_radius > 2.0
    assert report.area > report.area_bound


def test_schottky_second_mode_only():
    # Winding 2, not injective, but the mean-radius conclusion still holds.
    h = HarmonicSeries.from_coeffs(a={2: 1.0})
    report = schottky_check(h, 2.0)
    assert report.applicable
    assert not report.windings_ok
    assert report.mean_radius == pytest.approx(4.0)
    assert report.passed


def test_schottky_rejects_nonconformal():
    report = schottky_check(CRITICAL, 2.0)
    assert not report.applicable
    assert "conformal" in report.reason


@pytest.mark.parametrize("h, reason", [
    (HarmonicSeries(N=0), "boundary values of |h| deviate from 1 beyond 1e-6"),
    (HarmonicSeries(N=0, b0=1.0), "log or constant term present"),
    (HarmonicSeries(N=0, a0=1.0), "log or constant term present"),
], ids=["zero", "b0", "a0"])
def test_schottky_layer_takes_a_series_of_order_0(h, reason):
    """a_1 is 0 at N = 0: the margin is -inf, and the report not applicable."""
    assert _injectivity_certificate(h, 2.0)[0] == -math.inf
    report = schottky_check(h, 2.0)
    assert (report.applicable, report.reason, report.passed) == (False, reason, False)
    assert math.isnan(report.mean_radius) and math.isnan(report.injectivity_margin)


def test_schottky_check_of_an_empty_stack_is_empty():
    empty = SeriesStack.of([])
    assert all(x.shape == (0,) for x in _injectivity_certificate(empty, 2.0))
    report = schottky_check(empty, 2.0)
    assert (report.R, report.area_bound) == (2.0, 3.0 * math.pi)
    for name, value in vars(report).items():
        assert name in ("R", "area_bound") or value.shape == (0,)


def test_schottky_rejects_off_circle_boundary():
    h = HarmonicSeries.from_coeffs(a={1: 1.0, 2: 0.1})
    report = schottky_check(h, 2.0)
    assert not report.applicable
    assert report.boundary_deviation > 1e-6


@pytest.mark.parametrize("eps", [1e-7, 0.05])
def test_schottky_deviation_bounds_the_sampled_deviation(eps):
    """boundary_deviation is a bound of sup ||h| - 1| on the unit circle,
    so it is at least the deviation sampled on 4096 angles, and at most
    the 1 / (1 - pi/10) the Bernstein factor on angular_count(20 N) allows
    above the largest sample."""
    stack = widened_conformal(list(range(40)), eps)
    report = schottky_check(stack, 2.0)
    values = circle_grid_fields(stack, 1.0, 4096, ("values",)).values
    sampled = np.max(np.abs(np.abs(values) - 1.0), axis=-1)
    deviation = report.boundary_deviation
    assert (deviation >= sampled).all()
    assert (deviation <= 2.0 * sampled / (1.0 - 0.1 * math.pi)).all()
    assert report.applicable.all() == (eps == 1e-7)


def test_schottky_rejects_a_planted_deviation():
    """A draw whose |h| leaves 1 by 2e-6 somewhere on the unit circle, by a
    scale or by a mode, is not applicable; the draw itself is."""
    h = widened_conformal(3, 1e-9)
    a = np.array(h.a)
    a[_index(2, h.N)] += 2e-6
    planted = [scale_rotate(h, 1.0 + 2e-6), dataclasses.replace(h, a=a)]
    assert schottky_check(h, 2.0).applicable
    for p in planted:
        report = schottky_check(p, 2.0)
        assert not report.applicable and report.boundary_deviation >= 1.9e-6


def test_injectivity_margin_rejects_z_plus_inverse_z():
    # h' vanishes at z = +-1, and the unit circle folds onto [-2, 2]
    h = HarmonicSeries.from_coeffs(a={1: 1.0, -1: 1.0})
    margin = _injectivity_certificate(h, 2.0)[0]
    assert margin == 1.0 - 0.5 * math.pi and margin <= 0.0


def test_injectivity_margin_without_a_leading_term_is_minus_inf():
    h = HarmonicSeries.from_coeffs(a={2: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin = _injectivity_certificate(h, 2.0)[0]
        report = schottky_check(h, 2.0)
    assert margin == -math.inf and report.injectivity_margin == -math.inf


def test_injectivity_margin_of_a_series_equals_its_stack_of_one():
    for seed in range(5):
        h = widened_conformal(seed, 0.05)
        margin, jacobian_min = _injectivity_certificate(h, 2.0)
        assert margin.shape == jacobian_min.shape == ()
        stacked = _injectivity_certificate(SeriesStack.of([h]), 2.0)
        assert [x.tolist() for x in stacked] == [[margin.item()], [jacobian_min.item()]]


def certified_series(count, seed, R=2.0):
    """Conformal series a_1 (z + p) with random modes -3..6, scaled so that
    L lies uniformly in [0.3, 2/pi), with L as in bounds._injectivity_certificate."""
    rng = np.random.default_rng(seed)
    ns = np.array([-3, -2, -1, 2, 3, 4, 5, 6])
    weight = np.abs(ns) * np.maximum(1.0, R ** (ns - 1.0))
    series, targets = [], rng.uniform(0.3, 2.0 / math.pi, size=count)
    for target in targets:
        c = rng.normal(size=ns.size) + 1j * rng.normal(size=ns.size)
        c *= 0.999999 * target / np.sum(np.abs(c) * weight)
        a1 = complex(rng.normal(), rng.normal())
        series.append(HarmonicSeries.from_coeffs(
            a={1: a1, **{int(n): a1 * cn for n, cn in zip(ns, c)}}))
    return SeriesStack.of(series), targets


def test_certified_series_pass_a_finer_probe():
    stack, targets = certified_series(24, seed=12)
    margin, proven = _injectivity_certificate(stack, 2.0)
    assert (margin > 0.0).all()
    assert np.allclose(1.0 - margin, 0.5 * math.pi * targets, rtol=1e-5)
    probe = injectivity_probe(stack, 2.0)
    assert probe.windings_ok.all()
    # the Jacobian sampled by the probe, and on a finer grid of 64 radii x
    # 256 angles, stays above the proven bound |a_1|^2 (1 - L)^2
    rhos = np.linspace(1.0, 2.0, 66)[1:-1]
    fine = circle_grid_fields(stack, rhos, 256, ("d_rho", "d_theta")).jacobian(rhos)
    L = (1.0 - margin) / (0.5 * math.pi)
    bound = (np.abs(stack.a[:, 0]) * (1.0 - L)) ** 2
    assert np.allclose(proven, bound, rtol=1e-12, atol=0.0)
    for jacobian_min in (probe.jacobian_min, fine.min(axis=(-2, -1))):
        assert (jacobian_min >= bound * (1.0 - 1e-12)).all()


def test_schottky_samples_only_the_members_it_cannot_certify(monkeypatch):
    real = sampling.injectivity_probe
    probed = []

    def record(h, R):
        probed.append(len(h))
        return real(h, R)

    monkeypatch.setattr(bounds, "injectivity_probe", record)
    certified = random_conformal_perturbation(7)
    double = HarmonicSeries.from_coeffs(a={2: 1.0})
    stack = SeriesStack.of([certified, double, certified])
    report = schottky_check(stack, 2.0)
    assert probed == [1]
    assert report.windings_ok.tolist() == [True, False, True]
    assert report_fields(report, 1) == report_fields(schottky_check(double, 2.0))
    lead = abs(certified.a[0])
    L = (1.0 - report.injectivity_margin[0]) / (0.5 * math.pi)
    assert report.jacobian_min[0] == pytest.approx((lead * (1.0 - L)) ** 2, rel=1e-14)
    probed.clear()
    assert (report_fields(schottky_check(SeriesStack.of([certified] * 3), 2.0), 0)
            == report_fields(report, 0))
    assert probed == []


def test_a_nan_margin_is_sampled(monkeypatch):
    real = bounds._injectivity_certificate
    monkeypatch.setattr(bounds, "_injectivity_certificate",
                        lambda h, R: (np.full(len(h), math.nan), real(h, R)[1]))
    h = random_conformal_perturbation(7)
    report = schottky_check(h, 2.0)
    probe = injectivity_probe(h, 2.0)
    assert math.isnan(report.injectivity_margin)
    assert (report.jacobian_min, report.windings_ok) == (probe.jacobian_min, True)


# ---------------------------------------------------------------------------
# theorem gate
# ---------------------------------------------------------------------------

def test_gate_critical_configuration():
    report = theorem_gate(CRITICAL, 2.0)
    assert report.rule == "initial-speed"
    assert report.bound == pytest.approx(1.25)
    assert report.measured == pytest.approx(1.25)
    assert abs(report.margin) < 1e-12
    assert report.verdict == "pass"


def test_gate_extremal_lam06():
    report = theorem_gate(extremal_map(0.6), 3.0)
    assert report.bound == pytest.approx(2.0)
    assert report.measured == pytest.approx(2.0)
    assert report.verdict == "pass"


def test_gate_identity_wide_annulus():
    # Class D with unit speed: the sharp bound equals R itself.
    report = theorem_gate(IDENTITY, 5.0)
    assert report.class_D and report.class_N
    assert report.rule == "initial-speed"
    assert report.bound == pytest.approx(5.0)
    assert report.measured == pytest.approx(5.0)
    assert report.verdict == "pass"


def test_gate_neumann_rule():
    # Negative speed disables the sharp rule; the vanishing normal-mean
    # class still gives the unconditional bound, which this series fails.
    h = HarmonicSeries.from_coeffs(a={-1: 1.0})
    report = theorem_gate(h, 2.0)
    assert report.rule == "neumann-mean"
    assert report.measured == pytest.approx(0.5)
    assert report.verdict == "fail"


def test_gate_modulus_rule():
    h = HarmonicSeries.from_coeffs(a={1: 1.0, -1: 0.2}, a0=0.1, b0=0.05)
    report = theorem_gate(h, 2.0)
    assert report.rule == "modulus"
    assert report.verdict in ("pass", "fail")


def test_gate_not_applicable():
    h = HarmonicSeries.from_coeffs(a={1: 1.0}, a0=0.3, b0=0.2)
    report = theorem_gate(h, 5.0)  # modulus 1.609 > 3/2, neither class
    assert report.verdict == "not-applicable"
    assert report.rule == "none"


def test_gate_rescales_unnormalized_input():
    doubled = scale_rotate(CRITICAL, 2.0)
    report = theorem_gate(doubled, 2.0)
    assert report.inner_scale == pytest.approx(2.0)
    assert report.measured == pytest.approx(1.25)
    assert report.verdict == "pass"


def test_gate_margin_zero_for_rotated_extremal():
    for lam in (-0.4, 0.2, 1.0):
        h = scale_rotate(extremal_map(lam), complex(math.cos(0.3), math.sin(0.3)))
        report = theorem_gate(h, 2.2)
        assert abs(report.margin) < 1e-12


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------

def test_uniqueness_probe_quadratic_gap():
    report = uniqueness_probe(E)
    assert report.zero_eps_gap < 1e-13
    assert min(report.gaps) > 0.0
    assert report.loglog_slope == pytest.approx(2.0, abs=0.1)
    assert report.const_term_breaks_class


def test_uniqueness_report_dict_is_plain_json():
    """Python floats, tuples of them and a bool: the dict survives JSON."""
    report = uniqueness_probe(E)
    assert json.loads(json.dumps(report.to_dict())) == {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in dataclasses.asdict(report).items()}


def test_gate_degenerate_series_not_applicable():
    pure_log = HarmonicSeries.from_coeffs(N=1, a0=1.0)
    report = theorem_gate(pure_log, 2.0)
    assert report.verdict == "not-applicable"
    assert report.inner_scale == 0.0


# ---------------------------------------------------------------------------
# overflow: a typed error, never a "pass" on an infinite mean radius
# ---------------------------------------------------------------------------

def seed7_normalized():
    from annulus_harmonics.sampling import SamplerConfig, normalize_inner, random_series
    from test_sampling import ensure_nonneg_speed

    return ensure_nonneg_speed(normalize_inner(random_series(SamplerConfig(seed=7, N=8))))


@pytest.mark.parametrize("R", [1e20, 1e200])
def test_gate_raises_when_the_mean_radius_overflows(R):
    with pytest.raises(NumericOverflowError):
        theorem_gate(seed7_normalized(), R)


def test_gate_raises_when_the_inner_rescaling_overflows():
    # U(1) = |b0|^2 = 1e-320 (subnormal): sqrt(U(e^2)) = 2e150 is finite,
    # divided by sqrt(U(1)) = 1e-160 it is not
    h = HarmonicSeries.from_coeffs(a0=1e150, b0=1e-160)
    with pytest.raises(NumericOverflowError):
        theorem_gate(h, math.e**2)


def test_gate_names_an_initial_speed_too_large_for_its_lambda():
    # U(1) = 1e-320 and U'(1) = 2e-160: the speed 1e160 gives
    # (1 - s)/(1 + s) = -1.0, which no speed bound accepts
    h = HarmonicSeries.from_coeffs(a0=1.0, b0=1e-160)
    with pytest.raises(NumericOverflowError, match="initial speed"):
        theorem_gate(h, 2.0)
