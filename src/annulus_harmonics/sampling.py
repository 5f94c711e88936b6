"""Deterministic test-series generation, normalization and probes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSeriesError, NumericOverflowError, ParameterDomainError
from .means import quadratic_mean_profile
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, has_winding
from .series import (
    MAX_JSON_ORDER,
    HarmonicSeries,
    SeriesStack,
    _index,
    circle_grid_fields,
    extremal_map,
    require_outer,
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
        if self.seed < 0:
            raise ParameterDomainError(f"seed must be >= 0, got {self.seed}")
        if self.N < 1:
            raise ParameterDomainError("N must be >= 1")
        if self.N > MAX_JSON_ORDER:
            raise ParameterDomainError(
                f"N={self.N} exceeds the largest order a series file may "
                f"hold, {MAX_JSON_ORDER}")
        if not (0.0 < self.decay < 1.0):
            raise ParameterDomainError("decay must lie in (0, 1)")


@lru_cache(maxsize=64)
def _scales(N: int, decay: float, extra: int) -> np.ndarray:
    """Magnitude scale of each coefficient row: decay**n for a_n, b_n, a_-n
    and b_-n, n = 1..N, then 1 for the `extra` rows a0 and b0."""
    scales = np.ones(4 * N + extra)
    # Python-float powers: numpy's array power can differ in the last bit
    scales[:4 * N] = np.repeat([decay**n for n in range(1, N + 1)], 4)
    scales.setflags(write=False)
    return scales


def _row_scales(cfg: SamplerConfig) -> np.ndarray:
    return _scales(cfg.N, cfg.decay, int(cfg.include_log) + int(cfg.include_const))


def _uniforms(cfg: SamplerConfig, out: np.ndarray) -> np.ndarray:
    """Fill `out` (rows x 2) with the magnitude and phase uniforms of cfg's
    coefficient rows, from cfg's own generator; random() draws the doubles
    that uniform(0, 1) returns."""
    return np.random.default_rng(cfg.seed).random(out=out)


def _coefficients(scales: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficient rows from their scales and uniforms: a_n, b_n, a_-n, b_-n
    for n = 1..N, then a0 and b0 when included.  Elementwise, so rows of
    several configs stacked together come out as for each config alone."""
    return scales * u[:, 0] * np.exp(2j * np.pi * u[:, 1])


def _unpack(cfg: SamplerConfig, coeffs: np.ndarray):
    """a and b as (2, N) arrays (rows: modes 1..N, then -1..-N), a0 and b0
    from the coefficient rows of one config."""
    N = cfg.N
    a0 = coeffs[4 * N] if cfg.include_log else 0j
    b0 = coeffs[-1] if cfg.include_const else 0j
    # table[n-1, s, t]: s = 0, 1 for modes n, -n and t = 0, 1 for a, b
    table = coeffs[:4 * N].reshape(N, 2, 2)
    return table[:, :, 0].T, table[:, :, 1].T, a0, b0


def random_series(cfg: SamplerConfig) -> HarmonicSeries:
    """Deterministic pseudo-random series for the given config.

    Each coefficient takes two uniforms, magnitude then phase, in the order
    a_n, b_n, a_-n, b_-n for n = 1..N, then a0 and b0 when included; one
    draw of the whole table gives the same stream as drawing them singly.
    """
    scales = _row_scales(cfg)
    coeffs = _coefficients(scales, _uniforms(cfg, np.empty((scales.size, 2))))
    a, b, a0, b0 = _unpack(cfg, coeffs)
    return HarmonicSeries(N=cfg.N, a=a.ravel(), b=b.ravel(), a0=a0, b0=b0)


def random_series_stack(configs: Sequence[SamplerConfig]) -> SeriesStack:
    """The stack of random_series(cfg) for every config, zero-padded to the
    largest N: each member comes from its own generator, so member i has
    exactly the coefficients of random_series(configs[i])."""
    N = max(cfg.N for cfg in configs)
    scales = [_row_scales(cfg) for cfg in configs]
    ends = np.cumsum([s.size for s in scales]).tolist()
    starts = [0] + ends[:-1]
    u = np.empty((ends[-1], 2))
    for cfg, lo, hi in zip(configs, starts, ends):
        _uniforms(cfg, u[lo:hi])
    coeffs = _coefficients(np.concatenate(scales), u)
    a, b = (np.zeros((len(configs), 2, N), dtype=np.complex128) for _ in range(2))
    a0, b0 = (np.zeros(len(configs), dtype=np.complex128) for _ in range(2))
    for i, (cfg, lo, hi) in enumerate(zip(configs, starts, ends)):
        a[i, :, :cfg.N], b[i, :, :cfg.N], a0[i], b0[i] = _unpack(cfg, coeffs[lo:hi])
    return SeriesStack(N=N, a=a.reshape(len(configs), 2 * N),
                       b=b.reshape(len(configs), 2 * N), a0=a0, b0=b0)


def normalize_inner(h):
    """Impose the inner normalization: zero mean and unit quadratic mean.

    Drops b0, then rescales every coefficient by 1/sqrt(U(1)).  Raises
    DegenerateSeriesError if the series vanishes on the unit circle in the
    quadratic mean after dropping b0.  A stack is normalized member by
    member.
    """
    stripped = replace(h, b0=np.zeros_like(h.b0))
    u1 = quadratic_mean_profile(stripped).value(1.0)
    if (np.asarray(u1) <= 0.0).any():
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
    seed, eps: float = 1e-7, modes: tuple[int, ...] = (-3, -2, -1, 2, 3, 4, 5, 6)
):
    """A rotation of z plus conformal perturbations of size at most eps.

    All b coefficients and the log/constant terms stay zero, and the sup
    deviation of |h| from 1 on the unit circle is at most len(modes)*eps,
    so small eps keeps the series inside the conformal boundary class.
    Each mode takes two uniforms, magnitude then phase, and one more gives
    the rotation.  A sequence of seeds gives the SeriesStack of their
    series, each drawn from its own generator.
    """
    seeds = np.atleast_1d(seed)
    u = np.empty((len(seeds), 2 * len(modes) + 1))
    for row, s in zip(u, seeds.tolist()):
        np.random.default_rng(s).random(out=row)
    N = max(1, *(abs(n) for n in modes))
    a = np.zeros((len(seeds), 2 * N), dtype=np.complex128)
    a[:, 0] = 1.0
    a[:, [_index(n, N) for n in modes]] = _coefficients(
        eps, u[:, :-1].reshape(-1, 2)).reshape(len(seeds), len(modes))
    zeros = np.zeros(len(seeds), dtype=np.complex128)
    stack = scale_rotate(SeriesStack(N=N, a=a, b=np.zeros_like(a), a0=zeros, b0=zeros),
                         np.exp(2j * np.pi * u[:, -1]))
    return stack if np.ndim(seed) else stack.series(0)


class InjectivityProbe(NamedTuple):
    jacobian_min: float
    windings_ok: bool


# Most field points (members x radii x angles) one circle_grid_fields call of
# the injectivity probe requests: the 24 x 96 Jacobian grid of 8 members, whose
# two complex fields take 576 KiB.
PROBE_BLOCK_POINTS = 8 * 24 * 96


def _radius_blocks(radii: np.ndarray, members: int, M: int) -> list[np.ndarray]:
    """Consecutive runs of `radii` whose members x radii x M grid stays within
    PROBE_BLOCK_POINTS; a run holds at least one radius."""
    step = max(1, PROBE_BLOCK_POINTS // max(1, members * M))
    return [radii[lo:lo + step] for lo in range(0, radii.size, step)]


def injectivity_probe(
    h,
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
    series restricts to an orientation-preserving homeomorphism.  A zero on
    a circle or a non-integer winding integral counts as failed evidence,
    not as an error; a Jacobian that is not finite raises
    NumericOverflowError.  For a SeriesStack both fields are arrays with
    one entry per member.

    The grid and the circles are evaluated in blocks of radii, each block
    one circle_grid_fields call of at most PROBE_BLOCK_POINTS (8 x 24 x 96)
    members x radii x angles, or of one radius where a single circle of
    the stack is larger.  At the default sizes a series, and a stack of at
    most 8 members, takes one block.  Every circle is transformed on its
    own, so the result does not depend on the blocks.
    """
    require_outer(R)
    members = len(h) if isinstance(h, SeriesStack) else 1
    rhos = np.linspace(1.0, R, rho_samples + 2)[1:-1]
    jac_min = []
    for block in _radius_blocks(rhos, members, theta_samples):
        f = circle_grid_fields(h, block, theta_samples, ("d_rho", "d_theta"))
        with np.errstate(over="ignore", invalid="ignore"):
            # f.jacobian(block), formed in the probe's own field buffer
            product = np.conjugate(f.d_rho, out=f.d_rho)
            product *= f.d_theta
            jac = product.imag / block[:, None]
        del f, product
        if not np.isfinite(jac).all():
            raise NumericOverflowError(
                f"the Jacobian on A(1, {R}) overflowed; injectivity probe undefined")
        jac_min.append(jac.min(axis=(-2, -1)))
        del jac  # the next block needs the room
    radii = np.linspace(1.0, R, circles + 2)[1:-1]
    M = cfg.angular_count(2 * h.N)
    ok = []
    for block in _radius_blocks(radii, members, M):
        f = circle_grid_fields(h, block, M, ("values", "d_theta"))
        ok.append(has_winding(f.values, f.d_theta, 1).all(axis=-1))
        del f
    jac_min, ok = np.min(jac_min, axis=0), np.all(ok, axis=0)
    if jac_min.shape:
        return InjectivityProbe(jacobian_min=jac_min, windings_ok=ok)
    return InjectivityProbe(jacobian_min=float(jac_min), windings_ok=bool(ok))
