"""Sampling determinism, the stream kernel, normalization, perturbations
and the probe."""

import ast
import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from annulus_harmonics import sampling
from annulus_harmonics.sampling import (
    CONFORMAL_EPS,
    CONFORMAL_MODES,
    random_conformal_perturbation,
    random_series_stack,
)
from annulus_harmonics.series import (
    MAX_JSON_ORDER,
    SeriesStack,
    _all_ints,
    _index,
    _require_int,
    circle_grid_fields,
    dumps_series,
)


def widened_conformal(seed, eps):
    """random_conformal_perturbation(seed) with its perturbation columns,
    every mode but the rotation's a_1, scaled from CONFORMAL_EPS to eps."""
    h = random_conformal_perturbation(seed)
    a = np.array(h.a)
    a[..., 1:] *= eps / CONFORMAL_EPS
    return dataclasses.replace(h, a=a)


def draw_config(rng, n_lo, n_hi, decay):
    """The config of a tame random series drawn per trial, as a criterion
    draws it by generator calls: the order from n_lo..n_hi, then the seed
    of the series' own generator."""
    N = int(rng.integers(n_lo, n_hi + 1))
    return SamplerConfig(seed=int(rng.integers(2**62)), N=N, decay=decay)


def test_same_seed_identical_series():
    cfg = SamplerConfig(seed=1234, N=6, decay=0.5)
    assert dumps_series(random_series(cfg)) == dumps_series(random_series(cfg))


def test_different_seeds_differ():
    a = random_series(SamplerConfig(seed=1, N=4))
    b = random_series(SamplerConfig(seed=2, N=4))
    assert dumps_series(a) != dumps_series(b)


def test_decay_bounds_magnitudes():
    h = random_series(SamplerConfig(seed=77, N=10, decay=0.5))
    for n, a, b in zip(h.mode_numbers.tolist(), h.a, h.b):
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


@pytest.mark.parametrize("seed", [-1, True, np.bool_(False), 1.5, np.float64(2.0), "3", None])
def test_sampler_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ParameterDomainError, match="seed"):
        SamplerConfig(seed=seed)


@pytest.mark.parametrize("seed", [-1, [4, -1], True, [np.bool_(True)], 1.5, [2, 2.0], "3"])
def test_conformal_perturbation_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ParameterDomainError, match="seed"):
        random_conformal_perturbation(seed)


# members SamplerConfig refuses, with a word of its message
REFUSED_MEMBERS = {
    "negative-seed": ((-2, 4, 0.5), "seed"),
    "bool-seed": ((True, 4, 0.5), "seed"),
    "float-seed": ((1.0, 4, 0.5), "seed"),
    "order-0": ((2, 0, 0.5), "N must be"),
    "order-past-max": ((2, MAX_JSON_ORDER + 1, 0.5), "exceeds"),
    # among integer orders numpy reads a bool as 1 and keeps a float a float
    "bool-order": ((2, True, 0.5), "integer"),
    "float-order": ((2, 4.0, 0.5), "integer"),
    "float64-order": ((2, np.float64(4.0), 0.5), "integer"),
    "decay-1": ((2, 4, 1.0), "decay"),
    "decay-nan": ((2, 4, np.nan), "decay"),
}


@pytest.mark.parametrize("member, word", REFUSED_MEMBERS.values(), ids=REFUSED_MEMBERS.keys())
def test_stack_refuses_a_member_sampler_config_refuses(member, word):
    """Also with the seeds as numpy integers and the orders as an int64
    array, as sampling._draws passes its orders, wherever the member's value
    can be held so (not a bool or a float), with the same message."""
    seed, N, decay = member
    with pytest.raises(ParameterDomainError, match=word):
        SamplerConfig(seed, N, decay)
    seeds_as = [[1, seed]] + ([np.array([1, seed])] if type(seed) is int else [])
    orders_as = [[4, N]] + ([np.array([4, N])] if type(N) is int else [])
    for decays in ([0.5, decay], decay):
        with pytest.raises(ParameterDomainError, match=word) as given:
            random_series_stack([1, seed], [4, N], decays)
        for seeds in seeds_as:
            for orders in orders_as:
                with pytest.raises(ParameterDomainError) as as_arrays:
                    random_series_stack(seeds, orders, decays)
                assert str(as_arrays.value) == str(given.value)


@pytest.mark.parametrize("seeds, orders, word", [
    ([-1, 2], [4, 0], "seed must be"), ([1, -2], [0, 4], "N must be"),
    ([1, -2], [4, 0], "seed must be"),
], ids=["first-members-seed", "first-members-order", "seed-before-order"])
def test_stack_names_the_first_member_refused_seed_before_order(seeds, orders, word):
    for given in (orders, np.array(orders)):
        with pytest.raises(ParameterDomainError, match=word):
            random_series_stack(seeds, given, 0.5)


@pytest.mark.parametrize("values", [
    [], [0, 3], [4096, 1], [True], [np.bool_(True)], [1.0], [np.int64(-1)], [2**70],
    [-2**70], [np.uint64(2**63)], [None], ["1"], np.array([0, 5]), np.array([4097]),
    np.array([], dtype=np.int64), np.array([[1]]), np.array([1.0]), np.array([True]),
    np.array([7], dtype=np.uint8),
], ids=repr)
def test_all_ints_accepts_exactly_what_the_integer_rule_accepts(values):
    """The array test of the sampler rule against its reference, the
    integer rule entry by entry."""
    for lowest, highest in ((0, None), (1, MAX_JSON_ORDER)):
        try:
            for v in values:
                _require_int(v, "x", lowest, highest)
        except ParameterDomainError:
            accepted = False
        else:
            accepted = True
        assert _all_ints(values, lowest, highest) == accepted


@pytest.mark.parametrize("args, word", [
    (([1, 2], [4], 0.5), "one integer per member"),
    (([1], [4, 4], 0.5), "one integer per member"),
    (([1, 2], [4, 4], [0.5]), "one integer per member"),
    (([1], [4.0], 0.5), "N must be an integer"),
    (([1], [[4]], 0.5), "one integer per member"),
    (([1], [True], 0.5), "N must be an integer"),
], ids=["short-orders", "short-seeds", "short-decay", "float-order", "2-d-orders",
        "bool-order"])
def test_stack_refuses_arguments_of_other_lengths_or_types(args, word):
    with pytest.raises(ParameterDomainError, match=word):
        random_series_stack(*args)


def test_a_numpy_decay_draws_as_its_python_float():
    """random_series keys its scale memo by the decay's Python float, as
    the stack does: a float32 decay draws the same bits whichever decay the
    memo saw first (float32 powers, once), and a 0-d array decay draws."""
    decay = np.float32(0.6)
    sampling._scales.cache_clear()
    want = dumps_series(random_series(SamplerConfig(5, 6, float(decay))))
    for given in (decay, np.array(decay)):
        sampling._scales.cache_clear()
        assert dumps_series(random_series(SamplerConfig(5, 6, given))) == want
    assert np.array_equal(random_series_stack([5], [6], decay).a[0],
                          random_series(SamplerConfig(5, 6, decay)).a)


def test_numpy_integer_seeds_draw_as_python_ints():
    assert dumps_series(random_series(SamplerConfig(seed=np.uint64(2**63 + 9), N=3))) == \
        dumps_series(random_series(SamplerConfig(seed=2**63 + 9, N=3)))
    want = random_series(SamplerConfig(seed=12, N=3)).a
    for seeds in ([np.int64(12)], np.array([12], dtype=np.uint64)):
        stack = random_series_stack(seeds, [3], 0.6)
        assert np.array_equal(stack.a[0], want)


def test_empty_stack_of_configs():
    stack = random_series_stack([], [], 0.5)
    assert len(stack) == 0 and stack.N == 0 and stack.a.shape == (0, 0)


# ---------------------------------------------------------------------------
# the stream kernel
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**127 + 5, 2**128 - 1, 2**128,
              2**200 + 12345]


def reference_streams(seeds, counts):
    return np.concatenate([np.random.default_rng(s).random(k)
                           for s, k in zip(seeds, counts)])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), count=st.integers(1, 200))
def test_stream_of_one_seed_has_the_bits_of_its_generator(seed, count):
    assert np.array_equal(sampling._streams([seed], [count]),
                          np.random.default_rng(seed).random(count))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**200 - 1), st.integers(1, 200)),
                min_size=1, max_size=40))
def test_streams_of_many_seeds_have_the_bits_of_their_generators(pairs):
    seeds, counts = zip(*pairs)
    assert np.array_equal(sampling._streams(seeds, counts), reference_streams(seeds, counts))


def test_streams_of_the_edge_seeds():
    counts = [1, 2, 3, 64, 65, 200, 129, 7, 31, 150]
    assert np.array_equal(sampling._streams(EDGE_SEEDS, counts),
                          reference_streams(EDGE_SEEDS, counts))
    for seed in EDGE_SEEDS:
        assert np.array_equal(sampling._streams([seed], [5]),
                              np.random.default_rng(seed).random(5))


# numpy's stream layout: raw words, the bit generator and its half-word
# buffer, the 32-bit mask of the half-words and the word-to-double scale
STREAM_NAMES = {"random_raw", "bit_generator", "has_uint32", "uinteger", "_MASK32"}


def stream_layout_uses(tree):
    """The names, attributes, imported names and string keys of `tree` that
    are in STREAM_NAMES, and each 2.0**-53, by line.  A docstring is no key:
    it is never one of the names."""
    for node in ast.walk(tree):
        word = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else
                node.value if isinstance(node, ast.Constant) else None)
        if word in STREAM_NAMES:
            yield node.lineno, word
        if (isinstance(node, ast.Constant) and node.value == 2.0**-53
                or isinstance(node, ast.BinOp) and ast.unparse(node) == "2.0 ** (-53)"):
            yield node.lineno, "2.0**-53"


def test_numpys_stream_layout_stays_in_sampling():
    """Under src/, only sampling.py reads numpy's raw words, its bit
    generator's state and half-word buffer, or turns a word into a double:
    every other module draws through sampling or public Generator methods."""
    package = Path(__file__).resolve().parents[1] / "src" / "annulus_harmonics"
    found = [f"{path.name}:{line} {word}" for path in sorted(package.glob("*.py"))
             if path.name != "sampling.py"
             for line, word in stream_layout_uses(ast.parse(path.read_text()))]
    assert found == []
    assert {word for _, word in stream_layout_uses(
        ast.parse((package / "sampling.py").read_text()))} == STREAM_NAMES | {"2.0**-53"}


def test_seed_words_are_those_of_seed_sequence():
    """The hash stage alone: the 4 uint64 words PCG64 is seeded with."""
    state = sampling._generate_state(sampling._pool(*sampling._seed_words(EDGE_SEEDS)))
    for i, seed in enumerate(EDGE_SEEDS):
        assert np.array_equal(state[:, i],
                              np.random.SeedSequence(seed).generate_state(4, np.uint64))


def test_draws_of_one_member_raise_no_warning():
    """numpy warns on scalar integer overflow and wraps arrays silently, so
    the kernel must keep every operand an array even for one seed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**64 - 1, 2**200 + 12345):
            sampling._streams([seed], [1])
        random_series_stack([2**62 - 1], [1], 0.6)
        random_conformal_perturbation(2**62 - 1)
        random_conformal_perturbation([7])


def test_stack_holds_the_single_draws_of_mixed_orders_and_decays():
    rng = np.random.default_rng(11)
    configs = [SamplerConfig(seed=int(rng.integers(2**62)), N=int(rng.integers(1, 12)),
                             decay=float(rng.uniform(0.1, 0.9)))
               for _ in range(24)]
    stack = random_series_stack([cfg.seed for cfg in configs], [cfg.N for cfg in configs],
                                [cfg.decay for cfg in configs])
    want = SeriesStack.of([random_series(cfg) for cfg in configs])
    assert stack.N == want.N
    for name in ("a", "b", "a0", "b0"):
        assert np.array_equal(getattr(stack, name), getattr(want, name))


def test_conformal_rows_have_the_bits_of_their_generators():
    seeds = [0, 404, 2**62 - 1, 2**64 + 3]
    modes, eps = CONFORMAL_MODES, CONFORMAL_EPS
    assert (modes, eps) == ((-3, -2, -1, 2, 3, 4, 5, 6), 1e-7)
    stack = random_conformal_perturbation(seeds)
    assert stack.N == 6
    for i, seed in enumerate(seeds):
        u = np.random.default_rng(seed).random(2 * len(modes) + 1)
        a = np.zeros(2 * stack.N, dtype=np.complex128)
        a[0] = 1.0
        a[[_index(n, stack.N) for n in modes]] = eps * u[:-1:2] * np.exp(2j * np.pi * u[1::2])
        assert np.array_equal(stack.a[i], a * np.exp(2j * np.pi * u[-1]))
        assert not stack.b[i].any() and stack.a0[i] == 0j and stack.b0[i] == 0j


def test_sampler_stacks_are_those_the_checked_constructor_builds():
    """The sampler's stacks skip the constructor's check; each holds what
    the checked SeriesStack builds from the same arrays, bit for bit, with
    its dtype, shape and contiguous layout, read-only."""
    stacks = [random_series_stack([3, 9, 2**62 - 1], np.array([1, 5, 3]), [0.3, 0.6, 0.9]),
              random_series_stack([5], [2], 0.6),
              random_conformal_perturbation([0, 404, 2**64 + 3])]
    for stack in stacks:
        checked = SeriesStack(N=stack.N, a=stack.a, b=stack.b, a0=stack.a0, b0=stack.b0)
        assert type(stack.N) is int
        for name in ("a", "b", "a0", "b0"):
            got, want = getattr(stack, name), getattr(checked, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous, name
            assert not got.flags.writeable, name


def test_stack_of_many_configs_keeps_a_small_traced_peak():
    """1000 configs of order 4..16 peaked at 3.43 MiB traced when every
    member was drawn from its own generator; the kernel holds one uint64
    and one double per draw and a few uint32 rows per seed, so drawing
    them all at once peaks no higher."""
    rng = np.random.default_rng(0)
    configs = [SamplerConfig(seed=int(rng.integers(2**62)), N=int(rng.integers(4, 17)),
                             decay=0.2) for _ in range(1000)]
    seeds, orders = [cfg.seed for cfg in configs], [cfg.N for cfg in configs]
    random_series_stack(seeds[:10], orders[:10], 0.2)  # the hash constants
    tracemalloc.start()
    try:
        random_series_stack(seeds, orders, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.44 * 2**20


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


def ensure_nonneg_speed(h: HarmonicSeries) -> HarmonicSeries:
    """Swap the a and b mode coefficients if the initial speed is negative.

    The swap negates dU/drho(1) while leaving U(1) and the class flags
    unchanged, so it steers sampled series into the nonnegative-speed class
    without changing their distributional character.
    """
    du1 = float(quadratic_mean_profile(h).deriv1(1.0))
    if du1 >= 0.0:
        return h
    return dataclasses.replace(h, a=h.b, b=h.a)


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
    """The critical map's Jacobian vanishes on the unit circle: the probe's
    minimum is positive, and a finer grid of 64 interior radii, which comes
    closer to the circle, finds a smaller one."""
    h = extremal_map(1.0)
    probe = injectivity_probe(h, 2.0)
    rhos = np.linspace(1.0, 2.0, 66)[1:-1]
    fine = circle_grid_fields(h, rhos, 256, ("d_rho", "d_theta")).jacobian(rhos).min()
    assert 0.0 < fine < probe.jacobian_min
    assert probe.windings_ok


def test_probe_flags_reflection():
    zbar = HarmonicSeries.from_coeffs(b={-1: 1.0})
    probe = injectivity_probe(zbar, 2.0)
    assert not probe.windings_ok
    assert probe.jacobian_min < 0.0


def test_conformal_perturbation_family():
    h = random_conformal_perturbation(404)
    assert float(np.max(np.abs(h.b))) == 0.0
    assert h.a0 == 0j and h.b0 == 0j
    # sup ||h| - 1| on the unit circle, proved by the Schottky screen's bound
    from annulus_harmonics.bounds import schottky_check

    assert schottky_check(h, 2.0).boundary_deviation <= 1e-6
