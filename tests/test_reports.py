"""The one reduction of a check's residuals, reports._check, and the one
draw loop of the randomized criteria, reports._draws."""

import math

import numpy as np
import pytest

from annulus_harmonics import reports
from annulus_harmonics.reports import E, E32, DrawPlan, _check, _draw_config
from annulus_harmonics.series import SERIES_PER_CHUNK


def reduce(residuals, tol=1.0):
    check = _check("name", "statement", residuals, tol)
    return check.residual, check.passed


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


@pytest.mark.parametrize("trials", [1, 17, 100])
@pytest.mark.parametrize("criterion, k, loop", [
    (reports.circle_identities, 1, circle_identities_loop),
    (reports.divergence_form, 2, divergence_form_loop),
    (reports.endpoint_identity, 5, endpoint_identity_loop),
    (reports.variance_lower_bound, 7, variance_lower_bound_loop),
], ids=["circle_identities", "divergence_form", "endpoint_identity",
        "variance_lower_bound"])
def test_draws_keep_the_per_trial_order(monkeypatch, criterion, k, loop, trials):
    """A criterion run through _draws sees, chunk by chunk, the configs and
    the parameter bytes of its per-trial loop: the config first, then each
    parameter.  Fresh draws in another order would still meet the
    tolerances, so only this comparison shows a change of order."""
    configs, chunks = [], []
    stack, draws = reports.random_series_stack, reports._draws

    def recording_stack(drawn):
        configs.extend(drawn)
        return stack(drawn)

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
