"""Stacks of series: the batched kernel, jets and criteria agree with the
one-series code, keep a NaN in any draw, and keep memory flat."""

import dataclasses
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
    quadrature,
    quadratic_mean_profile,
    reports,
    sampling,
    variance_profile,
)
from annulus_harmonics import means, series
from annulus_harmonics.means import (
    RadialProfile,
    quadratic_mean_mode,
    variance_deriv2_termwise,
)
from annulus_harmonics.operators import k_endpoint, k_functional, k_quadrature
from annulus_harmonics.sampling import (
    SamplerConfig,
    random_conformal_perturbation,
    random_series,
    random_series_stack,
)
from annulus_harmonics.series import SERIES_PER_CHUNK, SeriesStack, _blocks, circle_grid_fields
from test_bounds import CRITICAL, report_fields
from test_sampling import widened_conformal

ORDERS = (1, 3, 7, 12)
CONFIGS = [SamplerConfig(seed=40 + N, N=N, decay=0.4) for N in ORDERS]
MEMBERS = [random_series(cfg) for cfg in CONFIGS]
STACK = SeriesStack.of(MEMBERS)
RADII = np.array([0.7, 1.0, 1.9, 3.3])


def test_drawn_stack_holds_the_single_draws():
    stack = random_series_stack([cfg.seed for cfg in CONFIGS], ORDERS, 0.4)
    assert stack.N == max(ORDERS) and len(stack) == len(ORDERS)
    for name in ("a", "b", "a0", "b0"):
        assert np.array_equal(getattr(stack, name), getattr(STACK, name))
    for i, h in enumerate(MEMBERS):
        member = stack.series(i)
        assert member.N == stack.N and np.array_equal(member.a.reshape(2, -1)[:, :h.N],
                                                      h.a.reshape(2, -1))


@pytest.mark.parametrize("i", [0, 2, -1, np.int64(3)], ids=["0", "2", "-1", "numpy-int"])
def test_member_series_is_the_one_the_constructor_builds(i):
    """series(i) skips the checks but builds the same series as the checked
    constructor on row i, in every field's bits and type, with read-only
    arrays of its own."""
    got = STACK.series(i)
    want = HarmonicSeries(STACK.N, STACK.a[i], STACK.b[i], STACK.a0[i], STACK.b0[i])
    for f in dataclasses.fields(HarmonicSeries):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert type(g) is type(w), f.name
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape, f.name
            assert g.tobytes() == w.tobytes(), f.name
            assert not g.flags.writeable, f.name
            assert not np.shares_memory(g, getattr(STACK, f.name)), f.name
        else:
            assert repr(g) == repr(w), f.name
    with pytest.raises(TypeError):
        STACK.series(slice(0, 2))


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


def test_jet_of_a_large_stack_table_runs_in_blocks_of_members(monkeypatch):
    """Radii per member past _JET_TABLE_ENTRIES are tabulated a block of
    members at a time, with the bits of one table."""
    stack = random_series_stack(range(16), np.full(16, 10), 0.4)
    rho = 1.0 + 3.0 * np.random.default_rng(0).random((16, 400))
    profiles = [quadratic_mean_profile(stack), variance_profile(stack),
                quadratic_mean_mode(stack, np.arange(-8, 8) | 1)]
    real = means._jet_table
    tables = []

    def record(r, two_k, weights):
        tables.append(r.size * weights.shape[-2])
        return real(r, two_k, weights)

    monkeypatch.setattr(means, "_jet_table", record)
    blocked = [profile._jet(rho) for profile in profiles]
    assert len(tables) > len(profiles) and max(tables) <= means._JET_TABLE_ENTRIES
    monkeypatch.setattr(means, "_JET_TABLE_ENTRIES", 2**40)
    for profile, got in zip(profiles, blocked):
        assert np.array_equal(got, profile._jet(rho))


def test_stack_of_one_runs_like_its_series():
    h = random_conformal_perturbation(404)
    report = bounds.schottky_check(h, 2.0)
    assert report.passed and report_fields(report) == report_fields(
        bounds.schottky_check(SeriesStack.of([h]), 2.0), 0)
    assert isinstance(report.mean_radius, float) and isinstance(report.passed, bool)
    probe = injectivity_probe(h, 2.0)
    assert isinstance(probe.jacobian_min, float) and isinstance(probe.windings_ok, bool)
    mixed = bounds.schottky_check(SeriesStack.of([MEMBERS[2], h]), 2.0)
    assert mixed.reason.tolist() == ["series is not conformal (some b_n != 0)", ""]


def test_schottky_report_of_a_mixed_stack_holds_each_member_alone():
    """A certified draw, z^2 (sampled by the probe), a series that is not
    conformal and two of order 0 padded into the stack: member i of the
    stack's report is, bit for bit, the report of the stack of member i
    and of member i alone."""
    members = [random_conformal_perturbation(404), HarmonicSeries.from_coeffs(a={2: 1.0}),
               CRITICAL, HarmonicSeries(N=0), HarmonicSeries(N=0, a0=1.0)]
    stack = SeriesStack.of(members)
    report = bounds.schottky_check(stack, 2.0)
    assert report.applicable.tolist() == [True, True, False, False, False]
    assert (report.injectivity_margin[:2] > 0.0).tolist() == [True, False]
    assert len(set(report.reason.tolist())) == 4
    for i, h in enumerate(members):
        alone = report_fields(bounds.schottky_check(h, 2.0))
        assert report_fields(report, i) == alone
        assert report_fields(bounds.schottky_check(stack[i:i + 1], 2.0), 0) == alone


def test_stack_checks_shapes_and_finiteness():
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=np.zeros((2, 2)), b=np.zeros((2, 3)), a0=[0, 0], b0=[0, 0])
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=[[math.nan, 0]], b=[[0, 0]], a0=[0], b0=[0])
    with pytest.raises(ParameterDomainError):
        SeriesStack(N=1, a=np.zeros(2), b=np.zeros(2), a0=0, b0=0)


def test_stack_and_series_coefficients_are_numbers():
    """Both read their coefficients through one rule, which refuses what
    numpy cannot read as complex numbers with a typed error."""
    with pytest.raises(ParameterDomainError, match="a must hold complex numbers"):
        SeriesStack(N=1, a=[["x", 0]], b=[[0, 0]], a0=[0], b0=[0])
    with pytest.raises(ParameterDomainError, match="b0 must hold complex numbers"):
        SeriesStack(N=1, a=[[0, 0]], b=[[0, 0]], a0=[0], b0=[[0], [0, 1]])
    with pytest.raises(ParameterDomainError, match="b must hold complex numbers"):
        HarmonicSeries(N=1, b=[10**400, 0])


@pytest.mark.parametrize("index", [0, np.array([[0, 1]])], ids=["int", "2-d"])
def test_stack_index_must_select_a_1d_run_of_members(index):
    with pytest.raises(IndexError, match="1-d run"):
        STACK[index]


def test_integer_parameters_stay_on_the_scalar_path():
    U = quadratic_mean_profile(MEMBERS[1])
    for got in (k_functional(U, 1, 2), k_endpoint(MEMBERS[1], 0, 2)):
        assert isinstance(got, float)
    assert k_functional(U, 1, 2) == k_functional(U, 1.0, 2.0)


EMPTY = STACK[5:9]  # a slice past the end: a stack of no members


def _never_called(*args, **kwargs):
    raise AssertionError("a zero-member stack sized a radial rule")


@pytest.mark.parametrize("criterion", [
    lambda: k_quadrature(EMPTY, np.zeros(0), np.full(0, 2.0)),
    lambda: bounds.mode_quadratic_form_residual(EMPTY, np.ones(0, dtype=int), np.full(0, 3.0)),
    lambda: bounds.variance_k_bound(EMPTY, np.full(0, 3.0))[0],
], ids=["k_quadrature", "mode_quadratic_form_residual", "variance_k_bound"])
def test_zero_member_stack_integrates_to_an_empty_array(monkeypatch, criterion):
    assert len(EMPTY) == 0
    monkeypatch.setattr(quadrature, "_radial_rule", _never_called)
    got = criterion()
    assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == np.float64


def test_probe_raises_a_typed_error_when_the_jacobian_overflows():
    huge = HarmonicSeries.from_coeffs(a={1: 1e308})
    with pytest.raises(NumericOverflowError):
        injectivity_probe(huge, 20.0)


# 17 members with Jacobian minima of both signs and failed windings: 14
# conformal perturbations, the reflection z -> conj(z) and two random series.
PROBE_POOL = SeriesStack.of([
    *(widened_conformal(seed, 0.05) for seed in range(14)),
    HarmonicSeries.from_coeffs(b={-1: 1.0}), *MEMBERS[1:3]])


@pytest.mark.parametrize("members", [0, 1, 8, 16, 17])
def test_blocked_probe_equals_each_series_alone(members):
    stack = PROBE_POOL[:members]
    probe = injectivity_probe(stack, 2.0)
    assert probe.jacobian_min.shape == probe.windings_ok.shape == (members,)
    for i in range(members):
        alone = injectivity_probe(stack.series(i), 2.0)
        assert probe.jacobian_min[i] == alone.jacobian_min
        assert probe.windings_ok[i] == alone.windings_ok
    if members == len(PROBE_POOL):
        assert (probe.jacobian_min < 0).any() and not probe.windings_ok.all()


@pytest.mark.parametrize("count, each, cap, sizes", [
    (0, 5, 10, []), (5, 2, 5, [2, 2, 1]), (6, 2, 6, [3, 3]), (3, 20, 10, [1, 1, 1]),
    (4, 0, 10, [4])])
def test_blocks_split_the_items_in_order_within_the_cap(count, each, cap, sizes):
    """The slices cover the items once, in order, each within cap // each
    items and holding at least one."""
    items = np.arange(count)
    parts = [items[block] for block in _blocks(count, each, cap)]
    assert [part.size for part in parts] == sizes
    assert [i for part in parts for i in part.tolist()] == items.tolist()


@pytest.mark.parametrize("members, grid_calls, winding_calls",
                         [(None, 1, 11), (8, 1, 16), (16, 2, 25), (17, 3, 25)])
def test_probe_requests_stay_within_the_block_bound(monkeypatch, members, grid_calls,
                                                    winding_calls):
    """Each circle_grid_fields call of the probe asks for at most the grid
    of 8 members on 24 radii x 96 angles, or for one circle where a single
    circle is larger: a series or a stack of 8 takes one call for the
    Jacobian grid, and the winding circles one call per angle count that
    winding_counts doubles to while circles are still unproved (up to
    2**16, where a circle of the pool's random series ends)."""
    requests = {sampling: [], quadrature: []}

    for module, sizes in requests.items():
        def record(h, rhos, M, fields, real=module.circle_grid_fields, sizes=sizes):
            out = real(h, rhos, M, fields)
            sizes.append((out[[f is not None for f in out].index(True)].size, M))
            return out

        monkeypatch.setattr(module, "circle_grid_fields", record)
    injectivity_probe(PROBE_POOL.series(0) if members is None else PROBE_POOL[:members], 2.0)
    assert (len(requests[sampling]), len(requests[quadrature])) == (grid_calls, winding_calls)
    for points, M in requests[sampling] + requests[quadrature]:
        assert points <= quadrature.REQUEST_POINTS == 8 * 24 * 96 or points == M


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


def spoil_reports(report):
    mean_radius = report.mean_radius.copy()
    mean_radius[1] = math.nan
    return dataclasses.replace(report, mean_radius=mean_radius)


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
    # two chunks for every criterion, variance_lower_bound's trials // 2 too
    plan = reports.DrawPlan(5, 2 * SERIES_PER_CHUNK + 8)
    checks = {c.name: c for c in criterion(plan, reports.DEFAULT_TOLERANCES)}
    assert len(calls) >= 2
    for check in failing:
        assert math.isnan(checks[check].residual) and not checks[check].passed
    assert all(c.passed for n, c in checks.items() if n not in failing)


def conformal_checks(plan):
    return {c.name: c for c in reports.conformal_refinement(
        plan, reports.DEFAULT_TOLERANCES)}


def test_conformal_refinement_probes_only_its_spot_check_draws(monkeypatch):
    """Every draw is certified, so the sampled probe runs once, as the spot
    check of the first SPOT_CHECK_DRAWS draws, though the draws fill more
    than one chunk."""
    real = sampling.injectivity_probe
    probed = []

    def record(h, R):
        probed.append(len(h))
        return real(h, R)

    monkeypatch.setattr(sampling, "injectivity_probe", record)
    monkeypatch.setattr(reports, "injectivity_probe", record)
    checks = conformal_checks(reports.DrawPlan(0, SERIES_PER_CHUNK + 8))
    assert probed == [reports.SPOT_CHECK_DRAWS]
    assert all(c.passed for c in checks.values())


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, seed):
    """run_suite gives the same names, residual bits and verdicts at 7, 16
    and 64 members per chunk, and at each the spot check probes exactly
    the certified draws among the first SPOT_CHECK_DRAWS."""
    real_check, real_probe = bounds.schottky_check, reports.injectivity_probe
    checked, probed = [], []

    def record_check(h, R):
        out = real_check(h, R)
        checked.append((np.array(h.a), out.injectivity_margin > 0.0))
        return out

    def record_probe(h, R):
        probed.append(np.array(h.a))
        return real_probe(h, R)

    monkeypatch.setattr(bounds, "schottky_check", record_check)
    monkeypatch.setattr(reports, "injectivity_probe", record_probe)
    runs = []
    for chunk in (7, 16, 64):
        monkeypatch.setattr(series, "SERIES_PER_CHUNK", chunk)
        checked.clear()
        probed.clear()
        runs.append([(c.name, c.residual.hex(), c.passed)
                     for c in reports.run_suite("all", seed, 100)])
        a = np.concatenate([a for a, _ in checked])[:reports.SPOT_CHECK_DRAWS]
        certified = np.concatenate([flags for _, flags in checked])[:reports.SPOT_CHECK_DRAWS]
        assert certified.any()
        assert np.array_equal(np.concatenate(probed), a[certified])
    assert runs[0] == runs[1] == runs[2]


def test_spot_probe_fails_a_falsely_certified_draw(monkeypatch):
    """z^2 winds twice; with its margin faked positive inside the first
    chunk, only the spot probe can see it, and it fails probes-applicable."""
    def with_square(seeds):
        stack = random_conformal_perturbation(seeds)
        a = np.array(stack.a)
        a[3] = 0.0
        a[3, 1] = 1.0  # mode 2 (order 1..N, -1..-N)
        return SeriesStack(N=stack.N, a=a, b=stack.b, a0=stack.a0, b0=stack.b0)

    real = bounds._injectivity_certificate
    monkeypatch.setattr(reports, "random_conformal_perturbation", with_square)
    # margin and Jacobian bound 1 for every member
    monkeypatch.setattr(bounds, "_injectivity_certificate",
                        lambda h, R: (np.ones(len(h)), np.ones(len(h))))
    checks = conformal_checks(reports.DrawPlan(0, 20))
    assert checks["probes-applicable"].residual == 1.0
    assert not checks["probes-applicable"].passed
    assert all(c.passed for n, c in checks.items() if n != "probes-applicable")
    monkeypatch.setattr(bounds, "_injectivity_certificate", real)
    checks = conformal_checks(reports.DrawPlan(0, 20))
    assert checks["injectivity-certified"].residual == math.inf
    assert not checks["probes-applicable"].passed


def test_nan_in_one_certificate_entry_fails_the_check(monkeypatch):
    real = bounds.mode_form_certificate
    monkeypatch.setattr(bounds, "mode_form_certificate",
                        lambda n, R: nan_member(real(n, R), member=(7, 0)))
    checks = {c.name: c for c in reports.mode_certificate(
        reports.DrawPlan(0, 1), reports.DEFAULT_TOLERANCES)}
    assert all(math.isnan(c.residual) and not c.passed for c in checks.values())


@pytest.mark.parametrize("seed", [1, 7, 40])
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
