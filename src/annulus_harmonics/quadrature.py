"""Quadrature over circles and radial intervals.

Angular integrals use the equally spaced trapezoidal rule, which on a full
period integrates trigonometric polynomials of degree < M exactly.  Since
every integrand built from a truncated series is band-limited, circle means
computed here are exact up to rounding once M exceeds twice the integrand
degree; the default M = max(256, 4N + 8) leaves a wide margin.  The fields
on the M angles come from the inverse-FFT circle kernel of the series
module (mode n in bin n mod M, no aliasing at these M), and the Dirichlet
energy evaluates its Gauss nodes' circles in batches of radii.  The means
are computed as trapezoid sums over the sampled fields, never from the
spectrum by Parseval, so they stay an independent check of the closed
forms in the means module.  One reduction (_field_means) takes these
means over fields of any leading shape: a single circle, or the block of
circles a batched caller has filled.  The circle means of a series are
memoised per (series, rho, M) (_circle_means), so the quadratic mean, the
enclosed area, the circular mean and the scalar operator identities of one
circle share one evaluation.

Radial integrals use composite Gauss-Legendre panels whose edges are
cosine-graded (clustered toward both endpoints), with a doubling refinement
loop that serves as the error estimate.  An integrand may return a stack of
integrands at once (one per member of a SeriesStack, each on its own
interval): they share the panels and refine until the worst has converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    NumericOverflowError,
    ParameterDomainError,
    QuadratureConvergenceError,
    WindingNotIntegerError,
    ZeroOnCircleError,
)
from .series import (
    HarmonicSeries,
    circle_angles,
    circle_fields,
    circle_grid_fields,
    require_radii,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_MIN_MODULUS_ON_CIRCLE = 1e-9
_WINDING_TOL = 1e-6

# Radii per batched circle evaluation in dirichlet_energy: caps the
# (radii, 3, M) field arrays at a few MiB for the largest angle counts.
_ENERGY_RADII_PER_BATCH = 16

# Upper bounds of the QuadratureConfig node counts.  MAX_ANGULAR_NODES is
# above the angle count of the largest series read from JSON
# (angular_count(2 * MAX_JSON_ORDER) = 32776).
MAX_ANGULAR_NODES = 2**16
MAX_RADIAL_NODES_PER_UNIT = 2**16

# Most nodes (over all integrands of a stack) one refinement level of
# radial_integrate may evaluate; a level past it raises instead.
_RADIAL_NODE_BUDGET = 2**20


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and refinement policy.

    angular_nodes: minimum number M of equally spaced angles per circle.
    radial_nodes_per_unit: Gauss-Legendre nodes per unit of log-radius.
    refinement: panel multiplication factor between refinement levels (>= 2).
    rel_tol: stop refining once successive levels agree to this relative
        tolerance.
    """

    angular_nodes: int = 256
    radial_nodes_per_unit: int = 64
    refinement: int = 2
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 4 <= self.angular_nodes <= MAX_ANGULAR_NODES:
            raise ParameterDomainError(
                f"angular_nodes must lie in 4..{MAX_ANGULAR_NODES}, got {self.angular_nodes}")
        if not 32 <= self.radial_nodes_per_unit <= MAX_RADIAL_NODES_PER_UNIT:
            raise ParameterDomainError(
                f"radial_nodes_per_unit must lie in 32..{MAX_RADIAL_NODES_PER_UNIT}, "
                f"got {self.radial_nodes_per_unit}")
        if self.refinement < 2:
            raise ParameterDomainError("refinement factor must be >= 2")

    def angular_count(self, degree: int) -> int:
        """Angle count guaranteeing exactness on mode products up to `degree`."""
        return max(self.angular_nodes, 4 * degree + 8)


DEFAULT_CONFIG = QuadratureConfig()


def _field_means(fields: np.ndarray) -> tuple:
    """Trapezoid means over the last axis of circle fields stacked as
    (..., 3, M) (values, d_rho, d_theta on M equally spaced angles): the
    mean of h (complex), then of |h|^2, Re(conj(h) h_rho), |h_rho|^2,
    |h_theta|^2 and Im(conj(h) h_theta), each of shape (...)."""
    M = fields.shape[-1]
    values = fields[..., 0, :]
    # np.add.reduce(x) / M is np.mean(x) without its Python-level overhead;
    # the temporaries are squared and multiplied in place, one row at a time
    squares = np.abs(fields)
    squares = np.add.reduce(np.square(squares, out=squares), axis=-1) / M
    conj = np.conj(values)
    radial = np.add.reduce((conj * fields[..., 1, :]).real, axis=-1) / M
    angular = np.multiply(conj, fields[..., 2, :], out=conj).imag
    angular = np.add.reduce(angular, axis=-1) / M
    return (np.add.reduce(values, axis=-1) / M, squares[..., 0], radial,
            squares[..., 1], squares[..., 2], angular)


@lru_cache(maxsize=32)
def _circle_means(h: HarmonicSeries, rho: float, M: int) -> tuple:
    """The _field_means of h on C_rho over circle_angles(M), as a complex
    and five floats, from one circle_fields call.  The key holds the series
    by identity; a rho outside the domain never enters the memo, since
    circle_fields rejects it."""
    mean, *real = _field_means(np.stack(circle_fields(h, rho, circle_angles(M))))
    return (complex(mean), *map(float, real))


def circular_mean(
    f: HarmonicSeries | Callable[[float, np.ndarray], np.ndarray],
    rho: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """Normalized mean over the circle of radius rho.

    `f` is either a HarmonicSeries or a callable f(rho, thetas) returning
    values at an array of angles.  The mean of a series is a0*log(rho) + b0
    and the rule reproduces it exactly.
    """
    require_radii(rho)
    if isinstance(f, HarmonicSeries):
        return _circle_means(f, float(rho), cfg.angular_count(f.N))[0]
    values = np.asarray(f(rho, circle_angles(cfg.angular_nodes)))
    return complex(np.mean(values))


def quadratic_mean_numeric(
    h: HarmonicSeries, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Mean of |h|^2 over C_rho by angular quadrature (the oracle for the
    closed-form profile in the means module)."""
    return _circle_means(h, float(rho), cfg.angular_count(2 * h.N))[1]


def winding_number(
    h: HarmonicSeries, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> int:
    """Winding of the image curve h(C_rho) about the origin.

    Computes the contour integral of dh/h over the circle as the mean of
    h_theta / (i h).  Raises NumericOverflowError if the fields are not
    finite, ZeroOnCircleError if min |h| <= 1e-9 on the nodes and
    WindingNotIntegerError if the mean is farther than 1e-6 from an integer.
    """
    M = cfg.angular_count(2 * h.N)
    f = circle_fields(h, rho, circle_angles(M))
    return winding_from_fields(f.values, f.d_theta, rho)


def _winding_integrals(values: np.ndarray, d_theta: np.ndarray):
    """Per circle (the last axis holds the angles): whether h and h_theta
    are finite, min |h|, and the winding integral mean(h_theta / (i h))."""
    finite = np.isfinite(values).all(axis=-1) & np.isfinite(d_theta).all(axis=-1)
    min_mod = np.min(np.abs(values), axis=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = 1j * values
        w = np.mean(np.divide(d_theta, ratio, out=ratio), axis=-1)
    return finite, min_mod, w


def _nearest_winding(w):
    """The nearest integer to each winding integral, and whether it lies
    within 1e-6 of it."""
    nearest = np.round(np.real(w))
    return nearest, np.abs(w - nearest) <= _WINDING_TOL


def has_winding(values: np.ndarray, d_theta: np.ndarray, n: int) -> np.ndarray:
    """Per circle of a batch (the last axis holds the angles): whether h and
    h_theta are finite, |h| stays above 1e-9 and the winding integral lies
    within 1e-6 of n; the conditions winding_number raises on, as flags."""
    finite, min_mod, w = _winding_integrals(values, d_theta)
    nearest, close = _nearest_winding(w)
    return finite & (min_mod > _MIN_MODULUS_ON_CIRCLE) & close & (nearest == n)


def winding_from_fields(values: np.ndarray, d_theta: np.ndarray, rho: float) -> int:
    """Winding number from h and h_theta on an equally spaced circle grid,
    with the checks and errors of winding_number."""
    finite, min_mod, w = _winding_integrals(values, d_theta)
    if not finite:
        raise NumericOverflowError(f"fields on C_{rho} overflowed; winding undefined")
    if min_mod <= _MIN_MODULUS_ON_CIRCLE:
        raise ZeroOnCircleError(
            f"|h| reaches {min_mod:.3e} on C_{rho}; winding undefined"
        )
    nearest, close = _nearest_winding(w)
    if not close:
        raise WindingNotIntegerError(
            f"winding integral {complex(w)} is not within {_WINDING_TOL} of an integer"
        )
    return int(nearest)


def enclosed_area(
    h: HarmonicSeries, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Signed area enclosed by the image curve h(C_rho).

    Equals pi times the circle mean of Im(conj(h) * h_theta).
    """
    return float(np.pi * _circle_means(h, float(rho), cfg.angular_count(2 * h.N))[5])


def _is_scalar(x) -> bool:
    """Whether x is one number (a Python or numpy scalar, or a 0-d array)."""
    return isinstance(x, (float, int)) or np.ndim(x) == 0


def _panel_edges(a: float, b, panels: int) -> np.ndarray:
    # Cosine grading clusters panels toward both endpoints; the weighted
    # integrands used here vanish at the outer edge, so the grading keeps
    # endpoint resolution without adaptive logic.
    t = np.linspace(0.0, np.pi, panels + 1)
    width = b - a if _is_scalar(b) else (np.asarray(b) - a)[..., None]
    return a + width * 0.5 * (1.0 - np.cos(t))


def _composite_gauss(g: Callable[[np.ndarray], np.ndarray],
                     a: float, b, panels: int):
    edges = _panel_edges(a, b, panels)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = np.asarray(g(nodes.reshape(nodes.shape[:-2] + (-1,))), dtype=np.float64)
    terms = half[..., None] * _GL_WEIGHTS * vals.reshape(vals.shape[:-1] + nodes.shape[-2:])
    return terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)


def radial_integrate(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    max_refinements: int = 8,
):
    """Integral of g over [a, b] with a refinement-based error estimate.

    `g` must accept an array of radii and return values elementwise.
    Panels are doubled (by cfg.refinement) until two successive levels agree
    to cfg.rel_tol relative; QuadratureConvergenceError is raised if that
    never happens, or before a level would evaluate more than
    _RADIAL_NODE_BUDGET nodes.  `b` may be an array of upper limits, one
    per integrand of a stack: g then receives radii of shape
    b.shape + (nodes,), and every member gets the panel count of the
    widest interval and is refined until the worst member has converged.  g may also return leading axes
    of its own (one integrand per member of a stack on one interval).  The
    result is a float, or an array over those axes.
    """
    require_radii(a)
    require_radii(b)
    scalar = _is_scalar(b)
    if not (a < b if scalar else np.all(a < b)):
        raise ParameterDomainError("need a < b for a radial integral")
    top = b if scalar else np.max(b)  # the widest interval is [a, top]
    span = max(math.log(top / a), 1e-6)
    panels = max(4, math.ceil(cfg.radial_nodes_per_unit * span / len(_GL_NODES)))
    nodes_per_panel = len(_GL_NODES) * np.size(b)

    def level(panels: int):
        nodes = panels * nodes_per_panel
        if nodes > _RADIAL_NODE_BUDGET:
            raise QuadratureConvergenceError(
                f"radial quadrature on [{a}, {top}] would evaluate {nodes} nodes "
                f"at one level, past the budget of {_RADIAL_NODE_BUDGET}")
        return _composite_gauss(g, a, b, panels)

    prev = level(panels)
    for _ in range(max_refinements):
        panels *= cfg.refinement
        cur = level(panels)
        change = abs(cur - prev)
        # a scalar comparison costs a tenth of an array's .all()
        ok = change <= cfg.rel_tol * (1.0 + abs(cur))
        if ok if cur.ndim == 0 else ok.all():
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureConvergenceError(
        f"radial quadrature on [{a}, {top}] did not stabilize "
        f"(last change {np.max(change):.3e})"
    )


def dirichlet_energy(
    h: HarmonicSeries,
    rho1: float,
    rho2: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Energy integral of |Dh|^2 (squared Hilbert-Schmidt norm) over the
    annulus rho1 < |z| < rho2, with the standard area element.

    For the identity map on A(1, 2) this is 2 * area = 6*pi.  The radial
    direction is integrated by refined Gauss-Legendre panels and each circle
    mean by the exact trapezoidal rule.
    """
    M = cfg.angular_count(2 * h.N)

    def ring_density(rhos: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhos)
        for lo in range(0, rhos.size, _ENERGY_RADII_PER_BATCH):
            r = rhos[lo:lo + _ENERGY_RADII_PER_BATCH]
            g = circle_grid_fields(h, r, M).grad_norm_sq(r)
            out[lo:lo + r.size] = 2.0 * np.pi * r * np.mean(g, axis=-1)
        return out

    return radial_integrate(ring_density, rho1, rho2, cfg)
