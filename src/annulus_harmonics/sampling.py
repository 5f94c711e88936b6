"""Deterministic test-series generation, normalization and probes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSeriesError, ParameterDomainError, ToolkitError
from .means import quadratic_mean_profile
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, winding_from_fields
from .series import (
    MAX_JSON_ORDER,
    HarmonicSeries,
    circle_grid_fields,
    extremal_map,
    scale_rotate,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Pseudo-random series parameters.

    Coefficient magnitudes for mode n are at most decay**|n| with uniform
    phases, so decay controls how tame the series stays at large radii: on
    A(1, R) keep decay*R below 1 for tight identity tolerances.
    """

    seed: int
    N: int = 8
    decay: float = 0.6
    include_log: bool = True
    include_const: bool = True

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ParameterDomainError("N must be >= 1")
        if self.N > MAX_JSON_ORDER:
            raise ParameterDomainError(
                f"N={self.N} exceeds the largest order a series file may "
                f"hold, {MAX_JSON_ORDER}")
        if not (0.0 < self.decay < 1.0):
            raise ParameterDomainError("decay must lie in (0, 1)")


def _draw(rng: np.random.Generator, scale: float) -> complex:
    return scale * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())


def random_series(cfg: SamplerConfig) -> HarmonicSeries:
    """Deterministic pseudo-random series for the given config.

    Each coefficient takes two uniforms, magnitude then phase, in the order
    a_n, b_n, a_-n, b_-n for n = 1..N, then a0 and b0 when included; one
    draw of the whole table gives the same stream as drawing them singly.
    """
    N = cfg.N
    rows = 4 * N + int(cfg.include_log) + int(cfg.include_const)
    u = np.random.default_rng(cfg.seed).uniform(size=(rows, 2))
    scales = np.ones(rows)
    # Python-float powers: numpy's array power can differ in the last bit
    scales[:4 * N] = np.repeat([cfg.decay**n for n in range(1, N + 1)], 4)
    coeffs = scales * u[:, 0] * np.exp(2j * np.pi * u[:, 1])
    a0 = coeffs[4 * N] if cfg.include_log else 0j
    b0 = coeffs[-1] if cfg.include_const else 0j
    # table[n-1, s, t]: s = 0, 1 for modes n, -n and t = 0, 1 for a, b
    table = coeffs[:4 * N].reshape(N, 2, 2)
    return HarmonicSeries(N=N, a=table[:, :, 0].T.ravel(),
                          b=table[:, :, 1].T.ravel(), a0=a0, b0=b0)


def normalize_inner(h: HarmonicSeries) -> HarmonicSeries:
    """Impose the inner normalization: zero mean and unit quadratic mean.

    Drops b0, then rescales every coefficient by 1/sqrt(U(1)).  Raises
    DegenerateSeriesError if the series vanishes on the unit circle in the
    quadratic mean after dropping b0.
    """
    stripped = replace(h, b0=0j)
    u1 = float(quadratic_mean_profile(stripped).value(1.0))
    if u1 <= 0.0:
        raise DegenerateSeriesError("cannot normalize: U(1) = 0 after dropping b0")
    return scale_rotate(stripped, 1.0 / np.sqrt(u1))


def ensure_nonneg_speed(h: HarmonicSeries) -> HarmonicSeries:
    """Swap the a and b mode coefficients if the initial speed is negative.

    The swap negates dU/drho(1) while leaving U(1) and the class flags
    unchanged, so it steers sampled series into the nonnegative-speed class
    without changing their distributional character.
    """
    du1 = float(quadratic_mean_profile(h).deriv1(1.0))
    if du1 >= 0.0:
        return h
    return replace(h, a=h.b, b=h.a)


def perturb_extremal(
    lam: float, n: int, eps: complex, renormalize: bool = False
) -> HarmonicSeries:
    """h^lam with eps added to the mode-n coefficient a_n (or to the
    constant term when n = 0), optionally re-normalized on the inner
    circle."""
    h = extremal_map(lam)
    if n == 0:
        h = replace(h, b0=h.b0 + eps)
    else:
        a_n, _ = (h.coeff(n) if abs(n) <= h.N else (0j, 0j))
        h = h.with_coeff(n, a=a_n + eps)
    return normalize_inner(h) if renormalize else h


def random_conformal_perturbation(
    seed: int, eps: float = 1e-7, modes: tuple[int, ...] = (-3, -2, -1, 2, 3, 4, 5, 6)
) -> HarmonicSeries:
    """A rotation of z plus conformal perturbations of size at most eps.

    All b coefficients and the log/constant terms stay zero, and the sup
    deviation of |h| from 1 on the unit circle is at most len(modes)*eps,
    so small eps keeps the series inside the conformal boundary class."""
    rng = np.random.default_rng(seed)
    a: dict[int, complex] = {1: 1.0 + 0j}
    for n in modes:
        a[n] = _draw(rng, eps)
    h = HarmonicSeries.from_coeffs(a=a)
    return scale_rotate(h, np.exp(2j * np.pi * rng.uniform()))


class InjectivityProbe(NamedTuple):
    jacobian_min: float
    windings_ok: bool


def injectivity_probe(
    h: HarmonicSeries,
    R: float,
    rho_samples: int = 24,
    theta_samples: int = 96,
    circles: int = 8,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> InjectivityProbe:
    """Heuristic evidence of injectivity on A(1, R).

    Samples the Jacobian determinant over an interior polar grid and the
    winding number over a family of circles.  A positive minimum Jacobian
    together with all windings equal to 1 is evidence (not proof) that the
    series restricts to an orientation-preserving homeomorphism.
    """
    if not R > 1.0:
        raise ParameterDomainError("R must exceed 1")
    rhos = np.linspace(1.0, R, rho_samples + 2)[1:-1]
    jac_min = float(np.min(
        circle_grid_fields(h, rhos, theta_samples).jacobian(rhos)
    ))
    windings_ok = True
    radii = np.linspace(1.0, R, circles + 2)[1:-1]
    f = circle_grid_fields(h, radii, cfg.angular_count(2 * h.N))
    for r, values, d_theta in zip(radii, f.values, f.d_theta):
        try:
            if winding_from_fields(values, d_theta, float(r)) != 1:
                windings_ok = False
                break
        except ToolkitError:
            # a zero on the circle or a non-integer contour integral both
            # count as failed evidence, not as errors of the probe
            windings_ok = False
            break
    return InjectivityProbe(jacobian_min=jac_min, windings_ok=windings_ok)
