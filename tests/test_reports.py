"""The one reduction of a check's residuals: reports._check."""

import math

import numpy as np
import pytest

from annulus_harmonics.reports import _check


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
