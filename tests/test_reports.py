"""The one declaration of each check, reports.CHECKS, the one reduction of
its residuals, reports._check, the report digest, the seed sweep and the
draws of the randomized criteria: reports._draws, its decode of one raw
block and the per-trial loop it falls back to."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from annulus_harmonics import reports
from annulus_harmonics.reports import (
    CHECKS, DEFAULT_TOLERANCES, E, E32, CheckResult, DrawPlan, _check, _draw_config, digest,
    gate_ratio, run_suite, sweep)
from annulus_harmonics.sampling import SamplerConfig
from annulus_harmonics.series import SERIES_PER_CHUNK, SeriesStack


def reduce(residuals, tol=1.0):
    """The residual and verdict of a check whose tolerance is `tol`."""
    check = _check("endpoint-match", residuals, {CHECKS["endpoint-match"].tolerance: tol})
    return check.residual, check.passed


def test_every_check_of_verify_all_has_a_row_and_every_row_is_returned():
    returned = [c.name for c in run_suite("all", 0, 1)]
    assert len(returned) == len(set(returned))
    assert {"without a row": sorted(set(returned) - set(CHECKS)),
            "never returned": sorted(set(CHECKS) - set(returned))} == {
        "without a row": [], "never returned": []}


def test_check_reads_its_statement_and_tolerance_from_its_row():
    """Each key overridden to a value of its own reaches just its rows."""
    tol = {key: i / 64 for i, key in enumerate(DEFAULT_TOLERANCES, 1)}
    for c in run_suite("all", 0, 1, tol):
        statement, tolerance, _ = CHECKS[c.name]
        assert c.statement == statement
        assert c.tolerance == (tol[tolerance] if isinstance(tolerance, str) else tolerance)


def test_every_tolerance_key_governs_a_check():
    """So that no --tol-* flag governs nothing."""
    keys = {row.tolerance for row in CHECKS.values()}
    assert sorted(set(DEFAULT_TOLERANCES) - keys) == []


def test_rows_are_data_with_a_gate_in_0_to_one_half():
    for name, row in CHECKS.items():
        assert type(row.statement) is str and row.statement, name
        assert (row.tolerance in DEFAULT_TOLERANCES if isinstance(row.tolerance, str)
                else type(row.tolerance) is float and row.tolerance >= 0), name
        assert type(row.gate) is float and 0 < row.gate <= 0.5, name


def test_a_check_without_a_row_is_an_error_naming_it():
    with pytest.raises(KeyError, match="no-such-check"):
        _check("no-such-check", [0.0], DEFAULT_TOLERANCES)


def test_gate_ratio_is_residual_over_tolerance_with_nan_and_zero_rules():
    assert gate_ratio(0.25, 0.5) == 0.5
    assert gate_ratio(0.0, 0.0) == 0.0
    assert gate_ratio(1e-300, 0.0) == math.inf
    assert gate_ratio(math.nan, 1.0) == math.inf
    assert gate_ratio(math.nan, 0.0) == math.inf
    assert gate_ratio(math.inf, 1.0) == math.inf


def test_numbers_and_arrays_reduce_to_the_largest_entry():
    residuals = [0.25, np.array([0.1, 0.75]), (0.3, -2.0), np.array([[0.5], [0.0]])]
    assert reduce(residuals) == (0.75, True)
    assert reduce(residuals, tol=0.5) == (0.75, False)


def test_all_negative_entries_give_zero():
    residual, passed = reduce([-1.0, np.array([-0.5, -0.0]), -np.inf], tol=0.0)
    assert residual == 0.0 and math.copysign(1.0, residual) == 1.0 and passed


def test_no_entries_give_zero():
    assert reduce([]) == (0.0, True)
    assert reduce([np.zeros(0), []]) == (0.0, True)


def entries_with(bad, position):
    entries = [0.5, np.array([0.1, 0.2, 0.3]), -1.0, np.array([[0.3], [0.4]])]
    if np.ndim(entries[position]):
        entries[position] = entries[position].copy()
        entries[position].flat[-1] = bad
    else:
        entries[position] = bad
    return entries


@pytest.mark.parametrize("position", range(4))
def test_nan_in_any_position_fails(position):
    residual, passed = reduce(entries_with(math.nan, position))
    assert math.isnan(residual) and not passed


@pytest.mark.parametrize("position", range(4))
def test_inf_in_any_position_fails(position):
    residual, passed = reduce(entries_with(math.inf, position), tol=math.inf)
    assert residual == math.inf and not passed


def test_bool_arrays_reduce_to_zero_or_one():
    assert reduce([np.array([False, False]), np.array([False])], tol=0.0) == (0.0, True)
    assert reduce([np.array([False, True]), np.array([False])], tol=0.0) == (1.0, False)


# ---------------------------------------------------------------------------
# The report digest.
# ---------------------------------------------------------------------------

# The committed report digests, with the environment they were made on
# (reports.digest_environment): reports.digest over run_suite("all", s,
# trials) for each seed s in turn, per seed and over the ranges given.
DIGESTS = json.loads((Path(__file__).parent / "report_digests.json").read_text())


def test_check_to_dict_is_the_dataclass_dict():
    """to_dict builds the dict of dataclasses.asdict without its deep copy:
    the same keys in the same order and the same values, for every check."""
    for check in reports.run_suite("all", 0, 1):
        got, want = check.to_dict(), dataclasses.asdict(check)
        assert list(got) == list(want) and got == want, check.name
        assert all(type(got[k]) is type(want[k]) for k in want), check.name


def test_digest_hashes_each_check_in_order():
    checks = [CheckResult("a", "first", 0.1, 1e-9, False),
              CheckResult("b", "second", math.nan, 0.0, False)]
    want = hashlib.sha256(b"('a', 'first', '0x1.999999999999ap-4', 1e-09, False)"
                          b"('b', 'second', 'nan', 0.0, False)").hexdigest()
    assert digest(checks) == want
    assert digest(iter(checks)) == want and digest(checks[::-1]) != want
    assert digest([]) == hashlib.sha256().hexdigest()


def test_reports_keep_their_committed_digests():
    """Seeds 0-15 each give their committed digest; a failure names the
    seeds whose reports moved.  The bits may differ on another Python,
    numpy, machine or set of CPU features, where the test skips."""
    made, here = DIGESTS["environment"], reports.digest_environment()
    if made != here:
        pytest.skip(f"the digests were made on {made}; this is {here}")
    trials, want = DIGESTS["per_seed"]["trials"], DIGESTS["per_seed"]["digests"]
    got = sweep(range(len(want)), trials).digests
    moved = [s for s, d in enumerate(want) if got[s] != d]
    assert moved == []


# ---------------------------------------------------------------------------
# The seed sweep.
# ---------------------------------------------------------------------------

def test_sweep_names_a_check_above_its_gate_and_a_row_never_returned(monkeypatch):
    ratio, seed = sweep([0, 1], 1).worst["equality-family"]
    monkeypatch.setitem(CHECKS, "equality-family",
                        CHECKS["equality-family"]._replace(gate=ratio / 2))
    monkeypatch.setitem(CHECKS, "never-returned", reports.Check("unused", 0.0, 1e-2))
    result = sweep([0, 1], 1)
    assert result.worst["equality-family"] == (ratio, seed) and "never-returned" not in result.worst
    assert (result.above_gate, result.failed) == (["equality-family", "never-returned"], [])


def test_sweep_fails_the_seed_of_a_nan_residual(monkeypatch):
    """A NaN residual of one check on seed 1, reduced by _check, fails that
    seed and ranks as inf there."""
    real = reports.run_suite

    def nan_on_seed_1(name, seed, trials):
        return [_check(c.name, [c.residual, math.nan], DEFAULT_TOLERANCES)
                if seed == 1 and c.name == "mode-form" else c
                for c in real(name, seed, trials)]

    monkeypatch.setattr(reports, "run_suite", nan_on_seed_1)
    result = sweep([0, 1, 2], 1)
    assert (result.failed, result.above_gate) == ([1], ["mode-form"])
    assert result.worst["mode-form"] == (math.inf, 1)


def test_sweep_digests_each_seed_and_the_range():
    result = sweep([3, 5], 1)
    runs = [run_suite("all", s, 1) for s in (3, 5)]
    assert result.digests == [digest(r) for r in runs]
    assert result.digest == digest(runs[0] + runs[1])


# ---------------------------------------------------------------------------
# The draw order of the randomized criteria.
# ---------------------------------------------------------------------------

def circle_identities_loop(rng, trials):
    """The per-trial loop circle_identities wrote out before _draws."""
    configs, rhos, lams = [], [], []
    for _ in range(trials):
        configs.append(_draw_config(rng, 4, 16, 0.2))
        rhos.append(rng.uniform(1.02, E32, size=3))
        lams.append([rng.uniform(-0.95, 1.0, size=10) for _ in range(3)])
    return configs, [np.array(rhos), np.array(lams)]


def divergence_form_loop(rng, trials):
    """The per-trial loop divergence_form wrote out before _draws."""
    configs, lams, rhos = [], [], []
    for _ in range(trials):
        configs.append(_draw_config(rng, 4, 16, 0.2))
        lams.append(rng.uniform(-0.5, 1.0))
        rhos.append(rng.uniform(1.2, 3.0))
    return configs, [np.array(lams), np.array(rhos)]


def endpoint_identity_loop(rng, trials):
    """The per-trial loop endpoint_identity wrote out before _draws."""
    configs, lams, Rs = [], [], []
    for _ in range(trials):
        configs.append(_draw_config(rng, 2, 10, 0.2))
        lams.append(rng.uniform(-0.95, 1.0))
        Rs.append(rng.uniform(1.05, E32))
    return configs, [np.array(lams), np.array(Rs)]


def variance_lower_bound_loop(rng, trials):
    """The per-trial loop variance_lower_bound wrote out before _draws."""
    configs, Rs = [], []
    for _ in range(max(1, trials // 2)):
        configs.append(_draw_config(rng, 2, 6, 0.2))
        Rs.append(rng.uniform(E + 1e-9, E32))
    return configs, [np.array(Rs)]


CRITERIA_LOOPS = pytest.mark.parametrize("criterion, k, loop", [
    (reports.circle_identities, 1, circle_identities_loop),
    (reports.divergence_form, 2, divergence_form_loop),
    (reports.endpoint_identity, 5, endpoint_identity_loop),
    (reports.variance_lower_bound, 7, variance_lower_bound_loop),
], ids=["circle_identities", "divergence_form", "endpoint_identity",
        "variance_lower_bound"])


def assert_draws_of_the_loop(monkeypatch, criterion, k, loop, trials):
    """Run `criterion` and assert that it sees, chunk by chunk, the configs
    and the parameter bytes of its per-trial loop."""
    configs, chunks = [], []
    stack, draws = reports.random_series_stack, reports._draws

    def recording_stack(seeds, orders, decay):
        configs.extend(SamplerConfig(int(s), int(n), decay) for s, n in zip(seeds, orders))
        return stack(seeds, orders, decay)

    def recording_draws(*args):
        for chunk in draws(*args):
            chunks.append(chunk[1:])
            yield chunk

    monkeypatch.setattr(reports, "random_series_stack", recording_stack)
    monkeypatch.setattr(reports, "_draws", recording_draws)
    seed = 3
    criterion(DrawPlan(seed, trials), reports.DEFAULT_TOLERANCES)

    want_configs, want_params = loop(np.random.default_rng((seed, k)), trials)
    assert configs == want_configs
    starts = range(0, len(want_configs), SERIES_PER_CHUNK)
    assert len(chunks) == len(starts)
    for lo, got in zip(starts, chunks):
        want = [p[lo:lo + SERIES_PER_CHUNK] for p in want_params]
        assert [(g.dtype, g.shape, g.tobytes()) for g in got] == \
            [(w.dtype, w.shape, w.tobytes()) for w in want]


@pytest.mark.parametrize("trials", [1, 17, 100])
@CRITERIA_LOOPS
def test_draws_keep_the_per_trial_order(monkeypatch, criterion, k, loop, trials):
    """A criterion run through _draws sees, chunk by chunk, the configs and
    the parameter bytes of its per-trial loop: the config first, then each
    parameter.  Fresh draws in another order would still meet the
    tolerances, so only this comparison shows a change of order."""
    assert_draws_of_the_loop(monkeypatch, criterion, k, loop, trials)


@pytest.mark.parametrize("trials", [2, 17])
@CRITERIA_LOOPS
def test_draws_that_fall_back_to_the_loop_keep_its_bits(monkeypatch, criterion, k, loop,
                                                       trials):
    """Where a trial would redraw, the whole criterion draws through the
    per-trial loop, from the generator's state before the decode."""
    fallbacks = []
    loop_of = reports._draw_loop

    def counted_loop(*args):
        fallbacks.append(args)
        return loop_of(*args)

    monkeypatch.setattr(reports, "_lemire_redraws", lambda halves, span: True)
    monkeypatch.setattr(reports, "_draw_loop", counted_loop)
    assert_draws_of_the_loop(monkeypatch, criterion, k, loop, trials)
    assert len(fallbacks) == 1


# ---------------------------------------------------------------------------
# The decode of one raw block against the per-trial loop.
# ---------------------------------------------------------------------------

def per_trial_loop(rng, trials, orders, decay, params):
    """Per trial the config, then one rng.uniform per spec, in that order."""
    configs, drawn = [], [[] for _ in params]
    for _ in range(trials):
        configs.append(_draw_config(rng, *orders, decay))
        for spec, values in zip(params, drawn):
            values.append(rng.uniform(*spec))
    return configs, [np.array(values) for values in drawn]


def raw_bytes(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.fixture(scope="module")
def draw_specs():
    """(orders, decay, params) of every _draws call of the suites, recorded
    from one run of all of them in which _draws draws nothing."""
    specs = []

    def record(rng, trials, orders, decay, *params):
        specs.append((orders, decay, params))
        return iter(())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "_draws", record)
        reports.run_suite("all", 0, 1)
    return specs


@pytest.mark.parametrize("trials", [1, 2, 17, 100, 101])
def test_decode_has_the_bits_and_the_final_state_of_the_loop(draw_specs, trials):
    """Orders, seeds, parameter bytes and the generator's final state
    (position, has_uint32 and uinteger) of every _draws spec; the
    one-value order range of the inner-circle identity draws no order."""
    assert len(draw_specs) == 6 and ((10, 10), 0.4, ()) in draw_specs
    for k, (orders, decay, params) in enumerate(draw_specs):
        for seed in range(3):
            decoded = np.random.default_rng((seed, k)).bit_generator
            looped = np.random.default_rng((seed, k))
            drawn = reports._decode(decoded, trials, orders, params)
            configs, arrays = per_trial_loop(looped, trials, orders, decay, params)
            assert drawn is not None
            seeds, ns, got = drawn
            assert [SamplerConfig(int(s), int(n), decay) for s, n in zip(seeds, ns)] == configs
            assert raw_bytes(got) == raw_bytes(arrays)
            assert decoded.state == looped.bit_generator.state


@pytest.mark.parametrize("trials", [1, 2, 17, 100, 101])
def test_conformal_seeds_have_the_bits_of_the_per_trial_loop(monkeypatch, trials):
    """conformal_refinement's seeds, one raw word shifted right by 2 per
    trial, are integers(2**62) per trial, and leave the generator where
    the loop leaves it."""
    generators, drawn = [], []
    rng_of = reports._rng

    def recording_rng(plan, k):
        generators.append((k, rng_of(plan, k)))
        return generators[-1][1]

    def recording_family(seeds):
        drawn.append(seeds)
        return SeriesStack.of([])

    monkeypatch.setattr(reports, "_rng", recording_rng)
    monkeypatch.setattr(reports, "random_conformal_perturbation", recording_family)
    reports.conformal_refinement(DrawPlan(3, trials), reports.DEFAULT_TOLERANCES)
    [(k, rng)] = generators
    looped = np.random.default_rng((3, k))
    assert [int(s) for s in drawn[0]] == [int(looped.integers(2**62)) for _ in range(trials)]
    assert rng.bit_generator.state == looped.bit_generator.state


# numpy's PCG64: a 128-bit LCG step, then the XSL-RR output of the new state
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator_before(word):
    """A PCG64 generator whose next raw word is `word`: the LCG step
    inverted from the state (1 << 64) | (1 ^ word), whose output rotates by
    0 and so is 1 ^ (1 ^ word)."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    target = (1 << 64) | (1 ^ word)
    inc = state["state"]["inc"]
    state["state"]["state"] = (target - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    return rng


def test_generator_before_a_word_draws_it():
    for word in (7 << 32, 2**64 - 1, 12345):
        assert generator_before(word).bit_generator.random_raw() == word


def test_unknown_suite_name_is_a_key_error_naming_the_suites():
    with pytest.raises(KeyError, match="unknown suite 'nope'.*'schottky'"):
        reports.run_suite("nope", 0, 1)


def buffered(rng):
    """The generator after one 32-bit order draw: a high half is buffered."""
    rng.integers(0, 5)
    return rng


@pytest.mark.parametrize("prepare", [
    lambda: generator_before(7 << 32),  # an order of 4..16 from low half 0 redraws
    lambda: buffered(np.random.default_rng(5)),
], ids=["redraw", "buffered-half"])
def test_draws_the_decode_cannot_give_come_from_the_loop(monkeypatch, prepare):
    """A real redraw and a buffered half-word: _decode gives None, and
    _draws restores the generator and draws with the loop's bits."""
    rng, looped, probe = prepare(), prepare(), prepare()
    args = (17, (4, 16), 0.2, (-0.5, 1.0), (1.2, 3.0, 3))
    assert reports._decode(probe.bit_generator, *args[:2], args[3:]) is None
    seen = []
    stack = reports.random_series_stack

    def recording_stack(seeds, orders, decay):
        seen.extend(SamplerConfig(int(s), int(n), decay) for s, n in zip(seeds, orders))
        return stack(seeds, orders, decay)

    monkeypatch.setattr(reports, "random_series_stack", recording_stack)
    chunks = list(reports._draws(rng, *args))
    configs, arrays = per_trial_loop(looped, 17, (4, 16), 0.2, args[3:])
    assert seen == configs
    for i, p in enumerate(arrays):
        assert raw_bytes([np.concatenate([c[1 + i] for c in chunks])]) == raw_bytes([p])
    assert rng.bit_generator.state == looped.bit_generator.state
