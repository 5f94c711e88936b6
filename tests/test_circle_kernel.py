"""The circle kernel computes only the field rows asked for and writes their
mode coefficients straight into the bins of its FFT buffer.  Its output must
keep the bits of the path it replaced, kept here as the oracle: the compact
spectrum of all three rows (modes 0, 1..N, -1..-N), the rows picked from it,
scattered into the bins n mod L by a fancy index, the folds summed and one
inverse FFT.  Arrays are compared as bytes, so a sign of zero, an inf or a
NaN payload that moved would fail."""

import numpy as np
import pytest

from annulus_harmonics.quadrature import angular_count
from annulus_harmonics.sampling import SamplerConfig, random_series, random_series_stack
from annulus_harmonics.series import HarmonicSeries, _grid_fields, _mode_spectrum


def _oracle_spectrum(h, rho):
    """The three rows of the compact spectrum, shape (members) + radii +
    (3, 2N + 1)."""
    ns = h.mode_numbers
    r0 = np.asarray(rho, dtype=np.float64)
    if h.a.ndim == 1 or r0.ndim == 0:
        a, b, a0, b0 = h.a, h.b, h.a0, h.b0
    else:
        a, b, a0, b0 = h.a[:, None, :], h.b[:, None, :], h.a0[:, None], h.b0[:, None]
    r = r0[..., None]
    x = a * r**ns
    y = b * r**-ns
    spec = np.empty(x.shape[:-1] + (3, ns.size + 1), dtype=np.complex128)
    values, d_rho, d_theta = spec[..., 0, 1:], spec[..., 1, 1:], spec[..., 2, 1:]
    np.add(x, y, out=values)
    np.subtract(x, y, out=d_rho)
    d_rho *= ns
    d_rho /= r
    np.multiply(values, 1j * ns, out=d_theta)
    spec[..., 0, 0] = a0 * np.log(r0) + b0
    spec[..., 1, 0] = a0 / r0
    spec[..., 2, 0] = 0.0
    return spec


def _oracle_fields(h, rho, M, rows):
    folds = -(-(2 * h.N + 1) // M)
    compact = _oracle_spectrum(h, rho)[..., list(rows), :]
    if compact.ndim > 2:
        compact = np.moveaxis(compact, -2, 0)
    spec = np.zeros(compact.shape[:-1] + (folds * M,), dtype=np.complex128)
    modes = np.concatenate([[0], np.arange(1, h.N + 1), -np.arange(1, h.N + 1)])
    spec[..., modes % (folds * M)] = compact
    if folds > 1:
        spec = spec.reshape(spec.shape[:-1] + (folds, M)).sum(axis=-2)
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


ROW_SETS = [(0,), (1, 2), (0, 2), (2,), (0, 1, 2)]
SERIES = {N: random_series(SamplerConfig(seed=17 + N, N=N, decay=0.7)) for N in (1, 4, 9, 33)}
STACK = random_series_stack([3, 4, 5, 6], [5, 2, 5, 1], 0.6)
# a scalar radius, one per circle, and (as for a stack) one row per member
RADII = {"scalar": 1.37, "m": np.array([0.6, 1.0, 2.5]),
         "Bm": np.array([[0.7, 1.2, 1.9], [1.1, 1.3, 3.0], [0.9, 1.0, 1.4], [2.0, 2.2, 0.5]])}


def _counts(N):
    """The counts of the exact circle rules, and counts M <= 2N, where the
    spectrum takes several folds."""
    return sorted({angular_count(2 * N), angular_count(N), 2 * N, N + 1, 3, 1})


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", ROW_SETS, ids=str)
@pytest.mark.parametrize("N", sorted(SERIES))
def test_series_fields_keep_the_oracle_bits(N, rows):
    h = SERIES[N]
    for rho in (RADII["scalar"], RADII["m"]):
        for M in _counts(N):
            _assert_same_bits(_grid_fields(h, rho, M, rows), _oracle_fields(h, rho, M, rows))


@pytest.mark.parametrize("rows", ROW_SETS, ids=str)
@pytest.mark.parametrize("radii", sorted(RADII))
def test_stack_fields_keep_the_oracle_bits(radii, rows):
    for M in _counts(STACK.N):
        _assert_same_bits(_grid_fields(STACK, RADII[radii], M, rows),
                          _oracle_fields(STACK, RADII[radii], M, rows))


@pytest.mark.parametrize("rows", ROW_SETS, ids=str)
def test_overflowing_fields_keep_the_oracle_inf_and_nan(rows):
    """Past the float range the fields are inf and NaN; they must be the
    same infs and NaNs, for a series and for a stack."""
    h = SERIES[9]
    with np.errstate(all="ignore"):
        for target, rho in ((h, 1e300), (h, np.array([1.0, 1e-300])),
                            (STACK, np.array([1.2, 1e300]))):
            for M in (angular_count(2 * target.N), 4):
                got = _grid_fields(target, rho, M, rows)
                assert not np.isfinite(got).all()
                _assert_same_bits(got, _oracle_fields(target, rho, M, rows))


def test_a_series_without_modes_keeps_the_oracle_bits():
    h = HarmonicSeries(0, a0=0.3 + 1j, b0=2.0 - 1.0j)
    for rows in ROW_SETS:
        for M in (1, 2, 5):
            _assert_same_bits(_grid_fields(h, 1.7, M, rows), _oracle_fields(h, 1.7, M, rows))


@pytest.mark.parametrize("target", ["series", "stack"])
def test_compact_spectrum_keeps_the_oracle_bits(target):
    """The compact spectrum, whose modulus sums winding_counts reads, comes
    from the same arithmetic, rows first."""
    h, rho = (SERIES[33], RADII["m"]) if target == "series" else (STACK, RADII["Bm"])
    for rows in ROW_SETS:
        want = np.moveaxis(_oracle_spectrum(h, rho)[..., list(rows), :], -2, 0)
        _assert_same_bits(_mode_spectrum(h, rho, rows), np.ascontiguousarray(want))

