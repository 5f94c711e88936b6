"""Closed-form circular means, quadratic means and variance.

Modes of a truncated series are orthogonal over every circle C_rho, so the
quadratic mean of h decomposes as a finite sum

    U(rho) = sum_n U_n(rho),
    U_n(rho) = |a_n rho^n + b_n rho^-n|^2           (n != 0)
    U_0(rho) = |a0 log(rho) + b0|^2,

and the variance V(rho) = U(rho) - |mean(h)|^2 is the same sum without the
n = 0 term.  Everything here is exact closed form (value plus first and
second derivative in rho), packaged in RadialProfile objects; the quadrature
module provides the independent numerical oracle for these formulas.

Each profile is one weight table over the basis rho^(2k), rho^(-2k)
(k = 1..N, modes n and -n sharing k = |n|), 1, log(rho) and log(rho)^2.
Column d holds the coefficients of rho^d times the d-th derivative, so a
jet takes one power table rho^(2k), its reciprocal and one matmul, and
divides column d by rho^d (RadialProfile.jet).  The table is built through
the overflow rule of the series module: one that is not finite (a
coefficient above ~1e154 squares past the float range) raises
NumericOverflowError once, when the profile is built.  A mode whose
weights are all 0 (a stack's padding, or weights that underflowed) takes
the exponent 0: it adds 0 where its rho^(2k) would leave the float range
and add inf times 0, NaN.  The termwise V'' keeps its own formula as a
cross-check.

The jet decides finiteness in one place.  Let E be the largest |exponent|
left by the zero-weight rule, F = max(E, 2), W the largest |weight|,
J = 2K + 3 the basis size and t = |log rho|.  Each basis entry is at most
e^(F t) in size (|log rho| <= e^t, log(rho)^2 <= e^(2t)) and each power at
least e^(-E t), so each product with a weight, and each sum of J of them,
is at most J W e^(F t), and dividing by rho^d (rho^2 in [e^(-2t), e^(2t)])
multiplies that by at most e^(2t).  If (F + 2) t + max(log(J W), 0) < 700,
every entry is thus below e^700, 5.6e-5 of the largest float (room for
rounding), and no power or rho^2 is below e^-700, a normal float, so none
is divided by 0: the table holds no inf and no NaN.  Each profile turns
the bound into one radius interval: a radius inside it (a float tested
directly, an array by its min and max) takes the plain table, any other
the same table through _in_float_range, so a finite value keeps its bits
and one that is not raises NumericOverflowError.

A SeriesStack's profile is the same code on weight tables of shape
(B, 2K + 3, 3), zero rows padding each member to the stack's order.  rho
is a scalar (result (B,)), (m,) (every member at the same radii) or
(B, m) (m radii per member), each jet column (B, m).  Callers hand in
chunks of SERIES_PER_CHUNK (64) members, and per-member radii are
tabulated a block of members at a time past _JET_TABLE_ENTRIES (512 KiB)
entries; the matmul is per member, so the blocks give the same bits.

quadratic_mean_profile and variance_profile keep the profiles of the last
32 series, keyed by identity: the operators, bounds and sampling modules
ask for U and V of one series many times.  A stack's profile is built
afresh: a batched criterion builds U once per chunk, and 32 kept chunks
would hold their tables (up to ~52 KiB each) to the end of a run.  At one
radius a series' jet skips the array round trip (_jet_table) and returns
Python floats.  Each profile keeps the read-only jet tables of its last
_JET_MEMO_SIZE float radii (np.float64 too; least recently used dropped
first), which value, deriv1 and deriv2 at one radius share; arrays bypass
it, a table that raises never enters it, and a memoised table is the one
the evaluation would compute.

The jet of a HarmonicSeries and that of its row stack[i:i+1] may differ
by rounding (a 1-d basis rounds apart from a row of a batched matmul, and
the padded order regroups the sum; 306 of 500 random draws agreed bit
for bit).  A replay of one member of a batched criterion, to give its
residual bit for bit, runs stack[i:i+1] of the member's chunk.

Because a finite series is smooth across the unit circle, the inner-circle
limits (mean, mean normal derivative, initial speed) are plain evaluations
at rho = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateSeriesError, ParameterDomainError
from .series import (HarmonicSeries, SeriesStack, _blocks, _in_float_range, _is_scalar,
                     _per_member, _require_int, _shown, _within, require_outer,
                     require_radii)

CLASS_TOL = 1e-12


@dataclass(frozen=True)
class RadialProfile:
    """A scalar function of rho > 0 with closed-form derivatives.

    `jet` returns all three orders from one evaluation of `_jet`, the
    (..., 3) table of value, deriv1 and deriv2 (_sum_profile).  `degree`
    is the largest |e| of the powers rho^e in the profile's table (2N for
    U and V, 2|n| for U_n, an array for a stack with one mode per member),
    which sizes the radial rule of k_functional: a finite number >= 0 or an
    array of them.  The profiles of this module refuse the radii that
    require_radii refuses.
    """

    label: str
    value: Callable[[np.ndarray | float], np.ndarray | float]
    deriv1: Callable[[np.ndarray | float], np.ndarray | float]
    deriv2: Callable[[np.ndarray | float], np.ndarray | float]
    degree: int | np.ndarray = field(compare=False)
    _jet: Callable[..., np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _within(self.degree, 0.0, math.inf, lo_closed=True):
            raise ParameterDomainError(
                f"degree must be a finite number >= 0, got {_shown(self.degree)}")

    def jet(self, rho):
        """(value, deriv1, deriv2) at rho: three Python floats for a series at
        one radius (a float, np.float64 or 0-d array), else three arrays
        (read-only views of the memoised table for a stack at a float)."""
        table = self._jet(rho)
        if table.ndim == 1:  # one series at one radius
            return tuple(table.tolist())
        return table[..., 0], table[..., 1], table[..., 2]


# Float radii whose jet tables a profile keeps (k_endpoint reads U at 1 and R).
_JET_MEMO_SIZE = 4

# Most entries (radii x basis functions) of one power table of a stack with
# radii per member, 512 KiB (64 members, N = 10 and the 512 nodes of a rule
# graded toward the pole of lambda = -0.9999 would take 5.8 MiB).
_JET_TABLE_ENTRIES = 2**16


def _jet_table(r: np.ndarray | float, two_k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """U, U', U'' at the radii r: one power table, one (batched) matmul and
    the division by rho^d; a Python float r (one series) gives the (3,)
    table of a 1-d basis row, with the bits of r = np.array([rho])."""
    K = two_k.shape[-1]
    if type(r) is float:
        basis = np.empty(2 * K + 3)
        # the layout of np.array([rho])'s table: at K = 1 numpy runs a (1, 1)
        # out, unlike a (1,) one, with the exponent broadcast, which squares
        # rho exactly at 2k = 2
        np.power(r, two_k, out=basis[None, :1] if K == 1 else basis[:K])
        np.divide(1.0, basis[:K], out=basis[K:-3])
        log_r = np.log(r)  # numpy's log, as on an array (math.log may round apart)
        basis[-3] = 1.0
        basis[-2] = log_r
        basis[-1] = log_r * log_r
        out = basis @ weights
        out[1] /= r
        out[2] /= r * r
        return out
    basis = np.empty(r.shape + (2 * K + 3,))
    np.power(r[..., None], two_k[:, None, :] if two_k.ndim > 1 else two_k,
             out=basis[..., :K])
    np.divide(1.0, basis[..., :K], out=basis[..., K:-3])
    basis[..., -3] = 1.0
    basis[..., -2] = np.log(r)
    basis[..., -1] = basis[..., -2] ** 2
    out = basis @ weights
    out[..., 1] /= r
    out[..., 2] /= r * r
    return out


def _exponents_of(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2k for the modes k, the basis exponents 2k, -2k and those less 1."""
    two_k = 2.0 * ks
    exps = np.concatenate((two_k, -two_k), axis=-1)
    return two_k, exps, exps - 1.0


@lru_cache(maxsize=64)
def _exponents(first: int, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_exponents_of k = first..last, read-only and built once: every
    profile of order N, or of one mode, shares them."""
    out = _exponents_of(np.arange(first, last + 1, dtype=np.float64))
    for arr in out:
        arr.setflags(write=False)
    return out


def _weights(h: HarmonicSeries, exps: np.ndarray, shifted: np.ndarray,
             include_zero: bool, only_mode: int | None) -> np.ndarray:
    """The weight table of _sum_profile: row j, column d holds the
    coefficient of basis function j in rho^d U^(d).  U_n + U_-n weighs
    rho^(2k) by |a_k|^2 + |b_-k|^2 and rho^(-2k) by |b_k|^2 + |a_-k|^2, with
    k = |n|; U_n alone weighs rho^(2n) by |a_n|^2 and rho^(-2n) by |b_n|^2,
    whatever the sign of n.  exps holds the basis exponents 2k, -2k and
    shifted the same less 1.
    """
    a0 = b0 = 0j
    if only_mode is None:
        a, b, N = h.a, h.b, h.N
        sq = np.abs(np.concatenate((a[..., :N], b[..., :N], b[..., N:], a[..., N:]),
                                   axis=-1)) ** 2
        amp = sq[..., :2 * N] + sq[..., 2 * N:]
        cross = 2.0 * (np.vecdot(b[..., :N], a[..., :N])
                       + np.vecdot(b[..., N:], a[..., N:])).real
        if include_zero:
            a0, b0 = h.a0, h.b0
    else:
        an, bn = h.coeff(only_mode)
        amp = np.abs(np.array((an, bn)).T) ** 2  # (2,), or (B, 2) for a stack
        cross = 2.0 * (an * bn.conjugate()).real
    K = exps.shape[-1] // 2
    # |a0 log(rho) + b0|^2 = alpha log^2 + beta log + |b0|^2
    alpha, beta = abs(a0) ** 2, 2.0 * (a0 * b0.conjugate()).real
    weights = np.zeros(np.shape(cross) + (2 * K + 3, 3))
    weights[..., :-3, 0] = amp
    weights[..., :-3, 1] = amp * exps
    weights[..., :-3, 2] = weights[..., :-3, 1] * shifted
    weights[..., -3, 0] = cross + abs(b0) ** 2
    weights[..., -3, 1] = weights[..., -2, 0] = beta
    weights[..., -3, 2] = 2.0 * alpha - beta
    weights[..., -2, 1] = 2.0 * alpha
    weights[..., -2, 2] = -2.0 * alpha
    weights[..., -1, 0] = alpha
    return weights


def _sum_profile(h: HarmonicSeries, label: str, include_zero: bool,
                 only_mode: int | None = None) -> RadialProfile:
    """Profile of a sum of mode means; `only_mode` restricts to one mode.
    Raises NumericOverflowError if its weight table, or a jet, is not
    finite (module docstring)."""
    if only_mode is None:
        two_k, exps, shifted = _exponents(1, h.N)
        degree = 2 * h.N
    else:  # one mode n, or one per member of a stack: k = n keeps its sign
        two_k, exps, shifted = (
            _exponents_of(np.asarray(only_mode, dtype=np.float64)[..., None])
            if isinstance(only_mode, np.ndarray) else _exponents(only_mode, only_mode))
        degree = 2 * np.abs(only_mode)
    K = two_k.shape[-1]
    weights = _in_float_range(f"the weight table of {label} at N", h.N, _weights,
                              h, exps, shifted, include_zero, only_mode)
    amp = weights[..., :-3, 0]
    if not amp.all():
        # a mode k whose weights are 0 (padding, or weights that underflowed)
        # takes the exponent 0: its powers are then 1 and it adds 0, where a
        # rho^(2k) past the float range would add inf times 0, NaN
        dead = (amp[..., :K] == 0.0) & (amp[..., K:] == 0.0)
        if dead.ndim > two_k.ndim:  # one exponent row for every member of a stack
            dead = dead.all(axis=0)
        two_k = np.where(dead, 0.0, two_k)
    memo: dict[float, np.ndarray] = {}
    finite: list[float] = []  # e^-t < rho < e^t of the module docstring, found on first use

    def inside(lowest, highest) -> bool:
        if not finite:
            t = 700.0 - math.log(max((2 * K + 3) * float(np.abs(weights).max(initial=0.0)), 1.0))
            t /= max(float(np.abs(two_k).max(initial=0.0)), 2.0) + 2.0
            finite.extend((math.exp(-t), math.exp(t)))
        return finite[0] < lowest and highest < finite[1]

    def jet(rho, check: bool = True) -> np.ndarray:
        """(..., 3) U, U', U'' at rho, a float through the memo.  Unless `check`
        is False (operators._unchecked_jet, inside its caller's rule), rho is
        checked (a float inside the interval needs no check) and ruled outside it."""
        if not isinstance(rho, float):
            if check:
                r = np.ravel(require_radii(rho, len(weights) if weights.ndim == 3 else None))
                if r.size and not inside(r.min(), r.max()):
                    return _in_float_range(f"{label}'s jet at rho", rho, table, rho)
            return table(rho)
        out = memo.pop(rho, None)
        if out is None:
            out = table(rho) if inside(rho, rho) else _in_float_range(
                f"{label}'s jet at rho", require_radii(rho), table, rho)
            out.flags.writeable = False
            if len(memo) >= _JET_MEMO_SIZE:  # drop the least recently used
                del memo[next(iter(memo))]
        memo[rho] = out
        return out

    def table(rho) -> np.ndarray:
        if weights.ndim == 2 and (type(rho) is float or _is_scalar(rho)):  # one radius
            return _jet_table(float(rho), two_k, weights)
        r = np.asarray(rho, dtype=np.float64)
        shape = None
        if two_k.ndim > 1 and r.ndim < 2:  # exponents per member: radii (B, m)
            shape = (len(two_k),) + r.shape + (3,)
            r = np.broadcast_to(r.reshape(-1), (len(two_k), r.size))
        if weights.ndim < 3 or r.ndim < 2 or r.size * (2 * K + 3) <= _JET_TABLE_ENTRIES:
            out = _jet_table(r, two_k, weights)
        else:  # radii per member: one table per block of members
            out = np.concatenate([
                _jet_table(r[rows], two_k[rows] if two_k.ndim > 1 else two_k, weights[rows])
                for rows in _blocks(len(r), r.shape[-1] * (2 * K + 3), _JET_TABLE_ENTRIES)])
        return out if shape is None else out.reshape(shape)

    def column(d: int):
        def at(rho):
            out = jet(rho)
            return out.item(d) if out.ndim == 1 else out[..., d]
        return at

    return RadialProfile(label=label, value=column(0), deriv1=column(1),
                         deriv2=column(2), degree=degree, _jet=jet)


def quadratic_mean_mode(h, n) -> RadialProfile:
    """Profile of the quadratic mean of the single mode n (|n| <= N).

    Mode 0 gives |a0 log(rho) + b0|^2.  Raises ParameterDomainError unless
    n is an integer, and IndexError for |n| > N.  For a SeriesStack, n is
    one nonzero mode per member (or one for all), and the profile is that
    of member i's mode n[i].
    """
    _require_int(n, "a mode number", -math.inf, many=isinstance(h, SeriesStack))
    if isinstance(h, SeriesStack):
        n = np.broadcast_to(_per_member(n, len(h), "a mode number"), (len(h),))
    elif n == 0:  # the profile of the series' zero mode alone
        return _sum_profile(HarmonicSeries(N=0, a0=h.a0, b0=h.b0), "U_0",
                            include_zero=True)
    elif abs(n) > h.N:
        raise IndexError(f"mode {n} exceeds truncation order {h.N}")
    return _sum_profile(h, "U_n" if np.ndim(n) else f"U_{n}", include_zero=False,
                        only_mode=n)


def quadratic_mean_profile(h: HarmonicSeries) -> RadialProfile:
    """Quadratic mean U(rho) of |h|^2 over C_rho, all modes included.

    The profile is built once per series and memoised on the series'
    identity, so repeated calls on one series return the same object; a
    stack's profile is not memoised.
    """
    if isinstance(h, SeriesStack):
        return _sum_profile(h, "U", include_zero=True)
    return _memo_quadratic_mean_profile(h)


@lru_cache(maxsize=32)
def _memo_quadratic_mean_profile(h: HarmonicSeries) -> RadialProfile:
    return _sum_profile(h, "U", include_zero=True)


def variance_profile(h: HarmonicSeries) -> RadialProfile:
    """Variance V(rho) = U(rho) - |circle mean|^2 (the n != 0 part of U).

    Memoised on the series' identity like quadratic_mean_profile; a
    stack's profile is built afresh.
    """
    if isinstance(h, SeriesStack):
        return _sum_profile(h, "V", include_zero=False)
    return _memo_variance_profile(h)


@lru_cache(maxsize=32)
def _memo_variance_profile(h: HarmonicSeries) -> RadialProfile:
    return _sum_profile(h, "V", include_zero=False)


def variance_deriv2_termwise(h, rho) -> np.ndarray | float:
    """Second derivative of the variance by the explicit termwise formula

        (2/rho^2) * sum_n [ n(2n-1)|a_n|^2 rho^(2n) + n(2n+1)|b_n|^2 rho^(-2n) ],

    every term of which is nonnegative.  Used as a cross-check against the
    generic profile derivative.  `h` may be a stack, with rho as for jet.
    Raises NumericOverflowError if a value is not finite.
    """
    r = np.asarray(require_radii(rho), dtype=np.float64)
    ns = h.mode_numbers.astype(np.float64)

    def termwise():
        rp = r[..., None] ** (2.0 * ns)
        terms = rp @ (ns * (2.0 * ns - 1.0) * np.abs(h.a) ** 2)[..., None] \
            + (1.0 / rp) @ (ns * (2.0 * ns + 1.0) * np.abs(h.b) ** 2)[..., None]
        return (2.0 / r**2) * terms[..., 0]

    return _in_float_range("the termwise V'' at rho", rho, termwise)


def is_class_D(h: HarmonicSeries) -> bool:
    """Vanishing inner-circle average (Dirichlet-type normalization)."""
    return abs(h.b0) <= CLASS_TOL


def is_class_N(h: HarmonicSeries) -> bool:
    """Vanishing average normal derivative (Neumann-type normalization)."""
    return abs(h.a0) <= CLASS_TOL


def initial_speed(h):
    """Speed of the circle evolution at the inner circle.

    Equals dU/drho(1) / (2 sqrt(U(1))), the derivative at rho = 1 of the
    mean radius sqrt(U(rho)).  For the extremal map h^lam this is
    (1 - lam)/(1 + lam); the critical map starts at speed zero and the
    identity at speed one.  A stack gives one speed per member.  Raises
    DegenerateSeriesError if U(1) = 0, and NumericOverflowError if U's jet
    at 1 or the speed is not finite.
    """
    u1, du1, _ = quadratic_mean_profile(h).jet(1.0)
    if (np.asarray(u1) <= 0.0).any():
        raise DegenerateSeriesError("U(1) = 0: inner circle degenerates")
    return _in_float_range("the initial speed at rho", 1.0,
                           lambda: du1 / (2.0 * np.sqrt(u1)))


def mean_outer_radius(h, R):
    """Mean radius sqrt(U(R)) of the image of the outer circle; for a stack,
    one per member (R a scalar or one per member).  Raises
    NumericOverflowError if a mean radius is not finite."""
    R = np.asarray(require_outer(R), dtype=np.float64)
    if isinstance(h, SeriesStack):
        _per_member(R, len(h), "R")
    out = _in_float_range(
        "the mean radius sqrt(U(R)) at R", R,
        lambda: np.sqrt(quadratic_mean_profile(h).value(R[..., None] if R.ndim else R)))
    return out[..., 0] if R.ndim else out
