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
Column d of the table holds the coefficients of rho^d times the d-th
derivative, so an evaluation takes one power table rho^(2k), its
reciprocal and one matmul, and divides column d by rho^d: value and both
derivatives come from the same powers (RadialProfile.jet).  The termwise
second derivative of the variance keeps its own formula as a cross-check.

The profiles of a SeriesStack (see the series module) are the same code on
a stack of weight tables, shape (B, 2K + 3, 3), zero rows padding each
member to the stack's order; the jet is one batched matmul.  For a stack,
rho is a scalar (every member at one radius, result shape (B,)), shape (m,)
(every member at the same radii) or shape (B, m) (m radii per member),
and each column of the jet has shape (B, m).  Batched callers hand in
chunks of SERIES_PER_CHUNK members, which keeps the power tables of
per-member radii (B, m, 2K + 3) small.

quadratic_mean_profile keeps the profiles of the last 32 series it was
given, keyed by the series' identity: the operators, bounds and sampling
modules ask for U of the same series many times, and each build costs a
weight table.  The profile of a stack is built afresh: a batched criterion
builds U once per chunk and hands it to every caller, and 32 kept chunks
would hold their coefficient and weight tables (~16 KiB each) to the end
of a run.

Because a finite series is smooth across the unit circle, the inner-circle
limits (mean, mean normal derivative, initial speed) are plain evaluations
at rho = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateSeriesError, NumericOverflowError
from .series import HarmonicSeries, SeriesStack, require_outer, require_radii

CLASS_TOL = 1e-12


@dataclass(frozen=True)
class RadialProfile:
    """A scalar function of rho > 0 with closed-form derivatives.

    `jet` returns all three orders from one evaluation; a profile built from
    the three callables alone (no `_jet`) serves it by calling them in turn.
    """

    label: str
    value: Callable[[np.ndarray | float], np.ndarray | float]
    deriv1: Callable[[np.ndarray | float], np.ndarray | float]
    deriv2: Callable[[np.ndarray | float], np.ndarray | float]
    _jet: Callable[[np.ndarray | float], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def jet(self, rho):
        """(value, deriv1, deriv2) at rho, vectorized over rho."""
        if self._jet is None:
            return self.value(rho), self.deriv1(rho), self.deriv2(rho)
        table = self._jet(rho)
        return tuple(_unwrap(table[..., k]) for k in range(3))


def _unwrap(out: np.ndarray) -> np.ndarray | float:
    return out if out.shape else float(out)


def _sum_profile(h: HarmonicSeries, label: str, include_zero: bool,
                 only_mode: int | None = None) -> RadialProfile:
    """Profile of a sum of mode means; `only_mode` restricts to one mode.

    Row j, column d of the weight table is the coefficient of basis function
    j in rho^d U^(d).  U_n + U_-n weighs rho^(2k) by |a_k|^2 + |b_-k|^2 and
    rho^(-2k) by |b_k|^2 + |a_-k|^2, with k = |n|; U_n alone weighs
    rho^(2n) by |a_n|^2 and rho^(-2n) by |b_n|^2, whatever the sign of n.
    """
    a0 = b0 = 0j
    if only_mode is None:
        ks = np.arange(1, h.N + 1, dtype=np.float64)
        a, b, N = h.a, h.b, h.N
        sq = np.abs(np.concatenate((a[..., :N], b[..., :N], b[..., N:], a[..., N:]),
                                   axis=-1)) ** 2
        amp = sq[..., :2 * N] + sq[..., 2 * N:]
        cross = 2.0 * (np.vecdot(b[..., :N], a[..., :N])
                       + np.vecdot(b[..., N:], a[..., N:])).real
        if include_zero:
            a0, b0 = h.a0, h.b0
    else:  # one mode n, or one per member of a stack: k = n keeps its sign
        an, bn = h.coeff(only_mode)
        ks = np.asarray(only_mode, dtype=np.float64)[..., None]
        amp = np.abs(np.array((an, bn)).T) ** 2  # (2,), or (B, 2) for a stack
        cross = 2.0 * (an * bn.conjugate()).real
    K = ks.shape[-1]
    two_k = 2.0 * ks
    exps = np.concatenate((two_k, -two_k), axis=-1)
    # |a0 log(rho) + b0|^2 = alpha log^2 + beta log + |b0|^2
    alpha, beta = abs(a0) ** 2, 2.0 * (a0 * b0.conjugate()).real
    weights = np.zeros(np.shape(cross) + (2 * K + 3, 3))
    weights[..., :-3, 0] = amp
    weights[..., :-3, 1] = amp * exps
    weights[..., :-3, 2] = weights[..., :-3, 1] * (exps - 1.0)
    weights[..., -3, 0] = cross + abs(b0) ** 2
    weights[..., -3, 1] = weights[..., -2, 0] = beta
    weights[..., -3, 2] = 2.0 * alpha - beta
    weights[..., -2, 1] = 2.0 * alpha
    weights[..., -2, 2] = -2.0 * alpha
    weights[..., -1, 0] = alpha

    def jet(rho) -> np.ndarray:
        """(..., 3) array of U, U', U'' at rho; for a stack the member axis
        leads (rho a scalar, (m,) or (B, m), as in the series module)."""
        r = np.asarray(rho, dtype=np.float64)
        shape = None
        if two_k.ndim > 1 and r.ndim < 2:  # exponents per member: radii (B, m)
            shape = (len(two_k),) + r.shape + (3,)
            r = np.broadcast_to(r.reshape(-1), (len(two_k), r.size))
        basis = np.empty(r.shape + (2 * K + 3,))
        basis[..., :K] = r[..., None] ** (two_k[:, None, :] if two_k.ndim > 1 else two_k)
        np.divide(1.0, basis[..., :K], out=basis[..., K:-3])
        basis[..., -3] = 1.0
        basis[..., -2] = np.log(r)
        basis[..., -1] = basis[..., -2] ** 2
        out = basis @ weights
        out[..., 1] /= r
        out[..., 2] /= r * r
        return out if shape is None else out.reshape(shape)

    def column(d: int):
        return lambda rho: _unwrap(jet(rho)[..., d])

    return RadialProfile(label=label, value=column(0), deriv1=column(1),
                         deriv2=column(2), _jet=jet)


def quadratic_mean_mode(h, n) -> RadialProfile:
    """Profile of the quadratic mean of the single mode n (|n| <= N).

    Mode 0 gives |a0 log(rho) + b0|^2.  Raises IndexError for |n| > N.
    For a SeriesStack, n is one nonzero mode per member (or one for all),
    and the profile is that of member i's mode n[i].
    """
    if isinstance(h, SeriesStack):
        n = np.broadcast_to(np.asarray(n), (len(h),))
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
    """Variance V(rho) = U(rho) - |circle mean|^2 (the n != 0 part of U)."""
    return _sum_profile(h, "V", include_zero=False)


def variance_deriv2_termwise(h, rho) -> np.ndarray | float:
    """Second derivative of the variance by the explicit termwise formula

        (2/rho^2) * sum_n [ n(2n-1)|a_n|^2 rho^(2n) + n(2n+1)|b_n|^2 rho^(-2n) ],

    every term of which is nonnegative.  Used as a cross-check against the
    generic profile derivative.  `h` may be a stack, with rho as for jet.
    """
    require_radii(rho)
    r = np.asarray(rho, dtype=np.float64)
    ns = h.mode_numbers.astype(np.float64)
    A = np.abs(h.a) ** 2
    B = np.abs(h.b) ** 2
    rp = r[..., None] ** (2.0 * ns)
    terms = rp @ (ns * (2.0 * ns - 1.0) * A)[..., None] \
        + (1.0 / rp) @ (ns * (2.0 * ns + 1.0) * B)[..., None]
    out = (2.0 / r**2) * terms[..., 0]
    return out if out.shape else float(out)


def inner_mean(h: HarmonicSeries) -> complex:
    """Limit of the circle mean of h at the inner circle, which is b0."""
    return h.b0


def normal_mean_coeff(h: HarmonicSeries) -> complex:
    """Limit of the circle mean of dh/drho at the inner circle, which is a0."""
    return h.a0


def is_class_D(h: HarmonicSeries, tol: float = CLASS_TOL) -> bool:
    """Vanishing inner-circle average (Dirichlet-type normalization)."""
    return abs(h.b0) <= tol


def is_class_N(h: HarmonicSeries, tol: float = CLASS_TOL) -> bool:
    """Vanishing average normal derivative (Neumann-type normalization)."""
    return abs(h.a0) <= tol


def initial_speed(h):
    """Speed of the circle evolution at the inner circle.

    Equals dU/drho(1) / (2 sqrt(U(1))), the derivative at rho = 1 of the
    mean radius sqrt(U(rho)).  For the extremal map h^lam this is
    (1 - lam)/(1 + lam); the critical map starts at speed zero and the
    identity at speed one.  A stack gives one speed per member.
    """
    u1, du1, _ = quadratic_mean_profile(h).jet(1.0)
    if (np.asarray(u1) <= 0.0).any():
        raise DegenerateSeriesError("U(1) = 0: inner circle degenerates")
    return du1 / (2.0 * np.sqrt(u1))


def mean_outer_radius(h, R):
    """Mean radius sqrt(U(R)) of the image of the outer circle; for a stack,
    one per member (R a scalar or one per member).  Raises
    NumericOverflowError if a mean radius is not finite."""
    require_outer(R)
    R = np.asarray(R, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sqrt(quadratic_mean_profile(h).value(R[..., None] if R.ndim else R))
    if not np.isfinite(out).all():
        raise NumericOverflowError(f"the mean radius sqrt(U(R)) overflows at R={R}")
    return out[..., 0] if R.ndim else _unwrap(np.asarray(out))
