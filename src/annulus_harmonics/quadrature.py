"""Quadrature over circles and radial intervals, on one fixed policy.

Angular integrals use the equally spaced trapezoidal rule, which on a full
period integrates trigonometric polynomials of degree < M exactly
(Trefethen & Weideman, SIAM Review 56(3), 2014).  Two angle counts serve
two kinds of integrand.  The circle means, the enclosed area, the operator
identities and the Dirichlet energy average products of the fields of a
truncated series, trigonometric polynomials of degree at most 2N, so they
are exact up to rounding once M exceeds that degree; they take
angular_count(degree) angles, the smallest 5-smooth M (2^i 3^j 5^k, the
sizes the FFT transforms fastest) that exceeds twice the integrand
degree.  Integrands that are not band-limited, such as the winding
integral of dh/h, are sampled instead, on winding_count(N) =
max(ANGULAR_NODES, 8 N + 8) angles.  The fields on
the M angles come from the inverse-FFT circle kernel of the series module
(mode n in bin n mod M, no aliasing at these M), and the Dirichlet energy
evaluates its Gauss nodes' circles in batches of at most
_ENERGY_POINTS_PER_BATCH angle points.  The means are computed as
trapezoid sums over the sampled fields, never from the spectrum by
Parseval, so they stay an independent check of the closed forms in the
means module.  One reduction (_field_means) takes these means over fields
of any leading shape: a single circle, or the block of circles a batched
caller has filled.  The circle means of a series are memoised per
(series, rho, M) (_circle_means), and all of them take angular_count(2 N)
angles, so the quadratic mean, the enclosed area, the circular mean and
the scalar operator identities of one circle share one evaluation.

Radial integrals use composite Gauss-Legendre panels whose edges are
cosine-graded (clustered toward both endpoints), RADIAL_NODES_PER_UNIT
nodes per unit of log-radius at first, with a doubling refinement loop
that serves as the error estimate: it stops once two levels agree to
RADIAL_REL_TOL.  The grading 1 - cos(t) on the panel count's equally
spaced t in [0, pi] is tabulated once per panel count (_grading, read-only)
and scaled to each interval as a + width * 0.5 * grading, the same bits
as computing it afresh.  An integrand may return a stack of integrands at
once (one per member of a SeriesStack, each on its own interval): they
share the panels and refine until the worst has converged.  Nearly every
integral stops at the first doubling, so the first two levels (p and 2p
panels) are evaluated by one call of the integrand on both levels' nodes,
concatenated along the node axis, whenever their 3p panels' nodes fit
_RADIAL_NODE_BUDGET; each later level is one call.  The integrand must
therefore be pure and elementwise in the radii: each level's sum then has
the bits it has from a call of its own.

The policy has no knobs: the angular rule is exact, and the radial rule
refines until it has converged, so other node counts would change results
only at rounding level.
"""

from __future__ import annotations

import math
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

# Angle points (radii x M) per batched circle evaluation in dirichlet_energy:
# caps its two (radii, M) field rows at 256 KiB, whatever M, and takes all of
# a small series' Gauss nodes in one call.
_ENERGY_POINTS_PER_BATCH = 2**13

# Most nodes (over all integrands of a stack) one refinement level of
# radial_integrate may evaluate; a level past it raises instead.
_RADIAL_NODE_BUDGET = 2**20

# The quadrature policy: the fewest equally spaced angles of a sampled (not
# band-limited) circle integrand, the Gauss-Legendre nodes per unit of
# log-radius of the first radial level, the relative agreement of two
# successive levels that stops the refinement, and the most panel doublings
# after the first level.
ANGULAR_NODES = 256
RADIAL_NODES_PER_UNIT = 64
RADIAL_REL_TOL = 1e-9
_MAX_REFINEMENTS = 8


@lru_cache(maxsize=256)
def angular_count(degree: int) -> int:
    """Angle count guaranteeing exactness on mode products up to `degree`:
    the smallest 5-smooth integer above 2 degree.  Memoised, since the
    scalar identities ask for it on every call."""
    M = 2 * degree + 1
    while True:
        rest = M
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return M
        M += 1


def winding_count(N: int) -> int:
    """Angle count of the winding integral mean(h_theta / (i h)) of a series
    of order N.  The integrand is not band-limited, so it is sampled on
    max(ANGULAR_NODES, 8 N + 8) angles."""
    return max(ANGULAR_NODES, 8 * N + 8)


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


def circular_mean(h: HarmonicSeries, rho: float) -> complex:
    """Normalized mean of h over the circle of radius rho.  It is
    a0*log(rho) + b0, and the rule reproduces it exactly.  It takes the
    quadratic mean's angle count, so the two share one circle evaluation."""
    require_radii(rho)
    return _circle_means(h, float(rho), angular_count(2 * h.N))[0]


def quadratic_mean_numeric(h: HarmonicSeries, rho: float) -> float:
    """Mean of |h|^2 over C_rho by angular quadrature (the oracle for the
    closed-form profile in the means module)."""
    return _circle_means(h, float(rho), angular_count(2 * h.N))[1]


def winding_number(h: HarmonicSeries, rho: float) -> int:
    """Winding of the image curve h(C_rho) about the origin.

    Computes the contour integral of dh/h over the circle as the mean of
    h_theta / (i h).  Raises NumericOverflowError if the fields are not
    finite, ZeroOnCircleError if min |h| <= 1e-9 on the nodes and
    WindingNotIntegerError if the mean is farther than 1e-6 from an integer.
    """
    f = circle_fields(h, rho, circle_angles(winding_count(h.N)))
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


def enclosed_area(h: HarmonicSeries, rho: float) -> float:
    """Signed area enclosed by the image curve h(C_rho).

    Equals pi times the circle mean of Im(conj(h) * h_theta).
    """
    return float(np.pi * _circle_means(h, float(rho), angular_count(2 * h.N))[5])


def _is_scalar(x) -> bool:
    """Whether x is one number (a Python or numpy scalar, or a 0-d array)."""
    return isinstance(x, (float, int)) or np.ndim(x) == 0


@lru_cache(maxsize=64)
def _grading(panels: int) -> np.ndarray:
    """1 - cos(t) on panels + 1 equally spaced t in [0, pi], read-only."""
    out = 1.0 - np.cos(np.linspace(0.0, np.pi, panels + 1))
    out.flags.writeable = False
    return out


def _panel_edges(a: float, b, panels: int) -> np.ndarray:
    # Cosine grading clusters panels toward both endpoints; the weighted
    # integrands used here vanish at the outer edge, so the grading keeps
    # endpoint resolution without adaptive logic.
    width = b - a if _is_scalar(b) else (np.asarray(b) - a)[..., None]
    return a + width * 0.5 * _grading(panels)


def _composite_gauss(g: Callable[[np.ndarray], np.ndarray],
                     a: float, b, *panel_counts: int) -> list:
    """The composite Gauss-Legendre sums of g over [a, b], one per panel
    count, from one call of g on all their nodes: the levels' panels are
    concatenated in the order given, and each level's weighted terms are
    summed apart, so every sum has the bits of a call of its own."""
    edges = [_panel_edges(a, b, panels) for panels in panel_counts]
    lo = np.concatenate([e[..., :-1] for e in edges], axis=-1)
    hi = np.concatenate([e[..., 1:] for e in edges], axis=-1)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = np.asarray(g(nodes.reshape(nodes.shape[:-2] + (-1,))), dtype=np.float64)
    terms = half[..., None] * _GL_WEIGHTS * vals.reshape(vals.shape[:-1] + nodes.shape[-2:])
    sums, start = [], 0
    for panels in panel_counts:
        level = terms[..., start:start + panels, :]
        sums.append(level.reshape(level.shape[:-2] + (-1,)).sum(axis=-1))
        start += panels
    return sums


def radial_integrate(g: Callable[[np.ndarray], np.ndarray], a: float, b):
    """Integral of g over [a, b] with a refinement-based error estimate.

    `g` must accept an array of radii and return values elementwise, and
    be pure: it may be called on the nodes of two levels at once.
    Panels are doubled until two successive levels agree to RADIAL_REL_TOL
    relative; QuadratureConvergenceError is raised if that does not happen
    within 8 doublings, or before a level would evaluate more than
    _RADIAL_NODE_BUDGET nodes.  The first two levels (p and 2p panels) are
    one call of g when their 3p panels' nodes fit that budget together;
    otherwise level p is a call of its own, so no call passes the budget
    and the raise comes after the same level.  Each later level is one
    call.  `b` may be an array of upper limits, one per integrand of a
    stack: g then receives radii of shape b.shape + (nodes,), and every
    member gets the panel count of the widest interval and is refined
    until the worst member has converged.  g may also return leading axes
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
    panels = max(4, math.ceil(RADIAL_NODES_PER_UNIT * span / len(_GL_NODES)))
    nodes_per_panel = len(_GL_NODES) * np.size(b)

    def level(panels: int):
        nodes = panels * nodes_per_panel
        if nodes > _RADIAL_NODE_BUDGET:
            raise QuadratureConvergenceError(
                f"radial quadrature on [{a}, {top}] would evaluate {nodes} nodes "
                f"at one level, past the budget of {_RADIAL_NODE_BUDGET}")
        return _composite_gauss(g, a, b, panels)[0]

    # Nearly every integral stops at the first doubling, so levels p and 2p
    # share one call of g whenever their 3p panels fit the budget together.
    if 3 * panels * nodes_per_panel <= _RADIAL_NODE_BUDGET:
        prev, doubled = _composite_gauss(g, a, b, panels, 2 * panels)
    else:
        prev, doubled = level(panels), None
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        cur = level(panels) if doubled is None else doubled
        doubled = None
        change = abs(cur - prev)
        # a scalar comparison costs a tenth of an array's .all()
        ok = change <= RADIAL_REL_TOL * (1.0 + abs(cur))
        if ok if cur.ndim == 0 else ok.all():
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureConvergenceError(
        f"radial quadrature on [{a}, {top}] did not stabilize "
        f"(last change {np.max(change):.3e})"
    )


def dirichlet_energy(h: HarmonicSeries, rho1: float, rho2: float) -> float:
    """Energy integral of |Dh|^2 (squared Hilbert-Schmidt norm) over the
    annulus rho1 < |z| < rho2, with the standard area element.

    For the identity map on A(1, 2) this is 2 * area = 6*pi.  The radial
    direction is integrated by refined Gauss-Legendre panels and each circle
    mean by the exact trapezoidal rule.
    """
    M = angular_count(2 * h.N)
    radii_per_batch = max(1, _ENERGY_POINTS_PER_BATCH // M)

    def ring_density(rhos: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhos)
        for lo in range(0, rhos.size, radii_per_batch):
            r = rhos[lo:lo + radii_per_batch]
            g = circle_grid_fields(h, r, M, ("d_rho", "d_theta")).grad_norm_sq(r)
            out[lo:lo + r.size] = 2.0 * np.pi * r * np.mean(g, axis=-1)
        return out

    return radial_integrate(ring_density, rho1, rho2)
