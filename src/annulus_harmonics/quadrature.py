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
forms in the means module.

Radial integrals use composite Gauss-Legendre panels whose edges are
cosine-graded (clustered toward both endpoints), with a doubling refinement
loop that serves as the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if self.angular_nodes < 4:
            raise ParameterDomainError("angular_nodes must be at least 4")
        if self.radial_nodes_per_unit < 32:
            raise ParameterDomainError("radial_nodes_per_unit must be >= 32")
        if self.refinement < 2:
            raise ParameterDomainError("refinement factor must be >= 2")

    def angular_count(self, degree: int) -> int:
        """Angle count guaranteeing exactness on mode products up to `degree`."""
        return max(self.angular_nodes, 4 * degree + 8)


DEFAULT_CONFIG = QuadratureConfig()


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
        M = cfg.angular_count(f.N)
        values = circle_fields(f, rho, circle_angles(M)).values
    else:
        values = np.asarray(f(rho, circle_angles(cfg.angular_nodes)))
    return complex(np.mean(values))


def quadratic_mean_numeric(
    h: HarmonicSeries, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Mean of |h|^2 over C_rho by angular quadrature (the oracle for the
    closed-form profile in the means module)."""
    M = cfg.angular_count(2 * h.N)
    values = circle_fields(h, rho, circle_angles(M)).values
    return float(np.mean(np.abs(values) ** 2))


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


def winding_from_fields(values: np.ndarray, d_theta: np.ndarray, rho: float) -> int:
    """Winding number from h and h_theta on an equally spaced circle grid,
    with the checks and errors of winding_number."""
    if not (np.isfinite(values).all() and np.isfinite(d_theta).all()):
        raise NumericOverflowError(f"fields on C_{rho} overflowed; winding undefined")
    min_mod = float(np.min(np.abs(values)))
    if min_mod <= _MIN_MODULUS_ON_CIRCLE:
        raise ZeroOnCircleError(
            f"|h| reaches {min_mod:.3e} on C_{rho}; winding undefined"
        )
    w = complex(np.mean(d_theta / (1j * values)))
    nearest = round(w.real)
    if abs(w - nearest) > _WINDING_TOL:
        raise WindingNotIntegerError(
            f"winding integral {w} is not within {_WINDING_TOL} of an integer"
        )
    return int(nearest)


def enclosed_area(
    h: HarmonicSeries, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Signed area enclosed by the image curve h(C_rho).

    Equals pi times the circle mean of Im(conj(h) * h_theta).
    """
    M = cfg.angular_count(2 * h.N)
    f = circle_fields(h, rho, circle_angles(M))
    return float(np.pi * np.mean((np.conj(f.values) * f.d_theta).imag))


def _panel_edges(a: float, b: float, panels: int) -> np.ndarray:
    # Cosine grading clusters panels toward both endpoints; the weighted
    # integrands used here vanish at the outer edge, so the grading keeps
    # endpoint resolution without adaptive logic.
    t = np.linspace(0.0, np.pi, panels + 1)
    return a + (b - a) * 0.5 * (1.0 - np.cos(t))


def _composite_gauss(g: Callable[[np.ndarray], np.ndarray],
                     a: float, b: float, panels: int) -> float:
    edges = _panel_edges(a, b, panels)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(g(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))


def radial_integrate(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    max_refinements: int = 8,
) -> float:
    """Integral of g over [a, b] with a refinement-based error estimate.

    `g` must accept a 1-d array of radii and return values elementwise.
    Panels are doubled (by cfg.refinement) until two successive levels agree
    to cfg.rel_tol relative; QuadratureConvergenceError is raised if that
    never happens.
    """
    require_radii(a)
    require_radii(b)
    if not a < b:
        raise ParameterDomainError("need a < b for a radial integral")
    span = max(math.log(b / a), 1e-6)
    panels = max(4, math.ceil(cfg.radial_nodes_per_unit * span / len(_GL_NODES)))
    prev = _composite_gauss(g, a, b, panels)
    for _ in range(max_refinements):
        panels *= cfg.refinement
        cur = _composite_gauss(g, a, b, panels)
        if abs(cur - prev) <= cfg.rel_tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"radial quadrature on [{a}, {b}] did not stabilize "
        f"(last change {abs(cur - prev):.3e})"
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
