"""Quadrature over circles and radial intervals, on one fixed policy.

Angular integrals use the equally spaced trapezoidal rule, which on a full
period integrates trigonometric polynomials of degree < M exactly
(Trefethen & Weideman, SIAM Review 56(3), 2014).  Two angle counts serve
two kinds of integrand.  The circle means, the enclosed area, the operator
identities and the Dirichlet energy average products of the fields of a
truncated series, trigonometric polynomials of degree at most 2N, so they
are exact up to rounding once M exceeds that degree; they take
angular_count(2 N) angles, the smallest 5-smooth M (2^i 3^j 5^k, the
sizes the FFT transforms fastest) above the integrand degree 2N.  The one
circle quantity that is not band-limited, the winding number of h(C_rho)
about 0, is not sampled on a fixed count: it is proved by an argument
count whose angle count the series' own mode sums pick (winding_counts).
The fields on the M angles come from the inverse-FFT circle kernel of the
series module (mode n in bin n mod M, one mode per bin since M >= 2N + 1
covers the 2N + 1 modes -N..N).  Every batched request of that kernel, the
Dirichlet energy's Gauss-node circles, a winding decision's open circles
and the injectivity probe's grid, holds at most REQUEST_POINTS angle
points.  The means are computed as trapezoid sums over the sampled fields,
never from the spectrum by Parseval, so they stay an independent check of
the closed forms in the means module.  One reduction (_field_means) takes
these means over fields of any leading shape: a single circle, or the block
of circles a batched caller has filled.  One memo per (series, rho)
(_circle_means) holds what the scalar functions read of a circle: its means,
from the (3, M) block of one kernel call on angular_count(2 N) angles, and
U's closed-form jet at rho, so the quadratic mean, the enclosed area, the
circular mean and the scalar operator identities of one circle share one
evaluation.  A radius that is not one number, or circle means that
overflow, raise a typed error and never enter the memo.

Radial integrals are one call of the integrand on one Gauss-Legendre rule
in t = log r, whose node count a proved error bound picks before the call
(radial_integrate): each integrand here is, in t, a finite sum of e^(e t)
(|e| <= its degree), 1, t and t^2, times, for the K functional, rational
weights whose only poles lie at r^2 = -lambda, so it is analytic in a known
Bernstein ellipse and the rule errs by at most RADIAL_EPS = 1e-15 times
the integral of the integrand's termwise bound.  The count needs only the
degree, lambda and the interval; the Gauss-Legendre rules of every count
it can take are built together on first use and kept, read-only.  As
lambda nears -1 the pole nears the interval, and the interval is split
into panels graded geometrically toward it, each sized by the same bound;
past a cap on the nodes the rule raises instead of calling the integrand.
A stack's members each get their own rule, sized by the same bound
(_rule_size, its one statement) and padded to the longest with zero-weight
nodes, in one call of the integrand.

The policy has no knobs: the angular rule is exact, the radial rule is
sized by its bound and a winding number is proved or not given, so other
node counts would change results only at rounding level.
"""

from __future__ import annotations

import contextlib
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    NumericOverflowError,
    ParameterDomainError,
    QuadratureConvergenceError,
    ZeroOnCircleError,
)
from .means import quadratic_mean_profile
from .series import (
    HarmonicSeries,
    SeriesStack,
    _blocks,
    _grid_fields,
    _in_float_range,
    _member_orders,
    _is_scalar,
    _mode_spectrum,
    _result,
    _scalar,
    _shown,
    _within,
    circle_grid_fields,
    require_lambda,
    require_radii,
)

# The quadrature policy: the most angles a winding decision may take; the
# injectivity probe's grid, PROBE_RADII interior radii x PROBE_ANGLES angles
# for the Jacobian and PROBE_CIRCLES interior circles for the winding
# (sampling.injectivity_probe); the most field points (members x radii x
# angles) of one batched circle_grid_fields request, of the Dirichlet
# energy's rings, of a winding decision or of the probe, the probe's grid of
# 8 members, whose two complex field rows take 576 KiB, or 68 of the energy's
# rings at N = 128 (270 angles); and the error of a radial
# rule relative to the integral S of its integrand's termwise bound (see
# radial_integrate).  The weighted sum
# of the rule itself rounds at about u S, u = 2^-53 ~ 1.1e-16 per term, so a
# proved truncation error of 1e-15 S is within ten units of that floor: a
# smaller RADIAL_EPS would add nodes but no accuracy.
MAX_WINDING_ANGLES = 2**16
PROBE_RADII, PROBE_ANGLES, PROBE_CIRCLES = 24, 96, 8
REQUEST_POINTS = 8 * PROBE_RADII * PROBE_ANGLES
RADIAL_EPS = 1e-15


@lru_cache(maxsize=256)
def angular_count(degree: int) -> int:
    """Angle count on which the trapezoid rule is exact for trigonometric
    polynomials up to `degree`: the smallest 5-smooth integer above the
    integrand degree.  Memoised, as its few degrees are asked for often."""
    M = degree + 1
    while True:
        rest = M
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return M
        M += 1


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
def _circle_means(h: HarmonicSeries, rho: float) -> tuple:
    """The _field_means of h on C_rho over circle_angles(angular_count(2 N)),
    a complex and five floats from the (3, M) block of one _grid_fields
    call, then U, U' and U'' at rho (inf where U's profile or jet raises
    NumericOverflowError: the closed form can overflow where the means do
    not), which identity_residuals tests.  Keyed by the series' identity and
    the radius.  Raises ParameterDomainError unless rho is positive and
    finite, and NumericOverflowError if a mean is not finite: neither
    enters the memo."""
    require_radii(rho)
    jet = (math.inf,) * 3
    with contextlib.suppress(NumericOverflowError):
        jet = quadratic_mean_profile(h).jet(rho)

    def means():
        mean, *real = _field_means(_grid_fields(h, rho, angular_count(2 * h.N)))
        return (complex(mean), *map(float, real))

    return _in_float_range("the circle means of h at rho", rho, means) + jet


def circular_mean(h: HarmonicSeries, rho: float) -> complex:
    """Normalized mean of h over the circle of radius rho.  It is
    a0*log(rho) + b0, and the rule reproduces it exactly.  It takes the
    quadratic mean's angle count, so the two share one circle evaluation.
    Raises ParameterDomainError unless rho is one positive finite radius,
    and NumericOverflowError if the circle's means overflow; so do
    quadratic_mean_numeric and enclosed_area."""
    return _circle_means(h, _scalar(rho, "rho"))[0]


def quadratic_mean_numeric(h: HarmonicSeries, rho: float) -> float:
    """Mean of |h|^2 over C_rho by angular quadrature (the oracle for the
    closed-form profile in the means module)."""
    return _circle_means(h, _scalar(rho, "rho"))[1]


def winding_number(h: HarmonicSeries, rho: float) -> int:
    """Winding of the image curve h(C_rho) about the origin, proved by the
    argument count of winding_counts.

    Raises ParameterDomainError unless rho is one positive finite radius,
    NumericOverflowError if the mode sums of h on C_rho are not finite, and
    ZeroOnCircleError, with the smallest |h| sampled, if no count up to
    MAX_WINDING_ANGLES angles proves the winding (|h| falls to about
    2 pi S / MAX_WINDING_ANGLES or below, as at or near a zero on the
    circle).
    """
    rho = require_radii(_scalar(rho, "rho"))
    finite, min_mod, count = winding_counts(h, np.array([rho]))
    if not finite[0]:
        raise NumericOverflowError(f"fields on C_{rho} overflowed; winding undefined")
    if math.isnan(count[0]):
        raise ZeroOnCircleError(
            f"|h| reaches {min_mod[0]:.3e} on C_{rho}; no count up to "
            f"{MAX_WINDING_ANGLES} angles proves the winding")
    return int(count[0])


def winding_counts(h, rhos: np.ndarray) -> tuple:
    """Winding numbers about 0 of the curves h(C_rho), rho in the 1-d
    `rhos`, by a proved argument count: for a series arrays of shape
    (radii,), for a SeriesStack of shape (members, radii).  Returns
    (finite, min_mod, counts): whether the circle's mode sums are finite,
    the smallest |h| on the last angles sampled (NaN where none were), and
    the winding number, NaN where it is not proved.

    Proof.  On C_rho, h(theta) = sum_n c_n e^(i n theta), so everywhere on
    the circle |h_theta| <= S = sum_n |n| |c_n|, the modulus sum of the
    d_theta row of the mode spectrum.  If every sample of M equally spaced
    angles has |h(theta_k)| > (2 pi/M) S, then along the arc to the next
    sample |h(theta) - h(theta_k)| < |h(theta_k)|: the curve stays in a
    disk about h(theta_k) that leaves out 0, so it turns by less than pi/2
    and its turn is the principal Arg(h(theta_(k+1))/h(theta_k)).  The
    winding number is then the sum of those arguments over 2 pi, which
    errs by far less than 1/2 and is rounded.  The samples are h computed by
    an FFT of L < M + 2N + 1 bins, which errs by at most about log2(L) u A,
    A = sum_n |c_n| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, Sec. 24.1); an allowance of
    8 eps (log2(M + 2N + 1) A + (2N + 1) S), eps = 2^-52, is taken off
    every |h(theta_k)| before the test, and also covers the rounding of S.
    N is the member's own order (its highest nonzero mode), not the order
    of the stack it sits in, since the zero modes a stack pads it with are
    exact and add no terms to A, S or the folded bins.

    M starts at 8 and doubles up to MAX_WINDING_ANGLES; each circle stops
    at the first M that proves it.  A circle with a sample within the
    allowance of 0 stops unproved at once, since every finer grid holds
    that sample too, and a circle whose mode sums are not finite is not
    sampled.  The circles still open at each M are evaluated in requests
    of at most REQUEST_POINTS angle points, or of one circle where a
    single circle is larger.  Each circle is transformed on its own, and
    its allowance is sized by its own order, so its decision does not
    depend on the requests or on the other members; only the last-bit
    rounding of sums that run over a stack's padded zero modes can differ
    from a lone call's.
    """
    stack = h if isinstance(h, SeriesStack) else SeriesStack.of([h])
    radii = rhos.size
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.sum(np.abs(_mode_spectrum(stack, rhos, (0, 2))), axis=-1)
    A, S = sums[0].ravel(), sums[1].ravel()  # each (members, radii)
    finite = np.isfinite(A) & np.isfinite(S)
    min_mod = np.full(A.size, math.nan)
    counts = np.full(A.size, math.nan)
    eps = np.finfo(np.float64).eps
    terms = 2.0 * np.repeat(_member_orders(stack), radii) + 1.0  # 2N + 1 per circle
    pending = np.flatnonzero(finite)
    M = 8
    while pending.size and M <= MAX_WINDING_ANGLES:
        # scalar factors first, so that a finite A or S near the float
        # range does not overflow
        allowance = (8.0 * eps * np.log2(M + terms)) * A + (8.0 * eps * terms) * S
        keep = []
        for block in _blocks(pending.size, M, REQUEST_POINTS):
            circles = pending[block]
            values = circle_grid_fields(stack[circles // radii], rhos[circles % radii, None],
                                        M, ("values",)).values[:, 0, :]
            moduli = np.abs(values)
            min_mod[circles] = np.min(moduli, axis=-1)
            slack = moduli - allowance[circles, None]
            proved = np.all(slack > (2.0 * math.pi / M) * S[circles, None], axis=-1)
            # each Arg(h_(k+1)/h_k), as a difference of phases wrapped into
            # [-pi, pi), which unlike the quotient cannot overflow
            phases = np.angle(values[proved])
            turns = np.diff(phases, axis=-1, append=phases[:, :1]) + math.pi
            turns = np.remainder(turns, 2.0 * math.pi, out=turns) - math.pi
            counts[circles[proved]] = np.rint(np.sum(turns, axis=-1) / (2.0 * math.pi))
            keep.append(circles[~proved & np.all(slack > 0.0, axis=-1)])
        pending = np.concatenate(keep)
        M *= 2
    shape = (len(stack), radii) if isinstance(h, SeriesStack) else (radii,)
    return finite.reshape(shape), min_mod.reshape(shape), counts.reshape(shape)


def enclosed_area(h: HarmonicSeries, rho: float) -> float:
    """Signed area enclosed by the image curve h(C_rho).

    Equals pi times the circle mean of Im(conj(h) * h_theta).
    """
    return np.pi * _circle_means(h, _scalar(rho, "rho"))[5]


# The radial rule.  _RADIAL_RHOS are the Bernstein-ellipse parameters tried,
# and with each its semi-axes (rho +- 1/rho)/2 and log rho, as Python floats;
# a rule has a multiple of _RULE_STEP nodes, at most _RULE_CAP, and a member's
# panels at most _RADIAL_NODE_CAP nodes in all.
_RADIAL_RHOS = tuple(
    (0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho), math.log(rho),
     math.log(64.0 / 15.0 / (2.0 * (rho * rho - 1.0)) / RADIAL_EPS))
    for rho in (20.0, 10.0, 6.0, 4.0, 3.0, 2.5, 2.0, 1.75, 1.5, 1.35, 1.2, 1.1))
_RULE_STEP = 8
_RULE_CAP = 128
_RADIAL_NODE_CAP = 2**12


@lru_cache(maxsize=1)
def _gauss_rules() -> dict:
    """Every n-point Gauss-Legendre rule the radial rule asks for, n =
    _RULE_STEP.._RULE_CAP in steps of _RULE_STEP, as {n: (nodes, weights)}
    on [-1, 1], read-only, built on first use in one pass over the positive
    nodes of all of them.

    numpy's leggauss weights err by up to 1e-12 relative from n = 48 on,
    which would show in every K integral, so the rules are computed here:
    Newton's method in extended precision (np.longdouble, 64-bit mantissa
    on x86) from Tricomi's estimate of the positive nodes, on the
    three-term recurrence of P_n, and w = 2/((1 - x^2) P_n'(x)^2); nodes
    and weights are then correctly rounded.  The nodes are ordered by
    their rule's n, largest first, so the nodes still in the recurrence at
    step j are a prefix: a rule's nodes leave it after j = n, and each node
    goes through the operations of its own rule's recurrence, in their
    order, with the same bits as a pass over that rule alone
    (tests/test_quadrature.py keeps such a pass as the reference).
    """
    sizes = range(_RULE_CAP, 0, -_RULE_STEP)
    halves = [n // 2 for n in sizes]
    ends = np.cumsum(halves).tolist()
    n = np.repeat(np.array(sizes, dtype=np.longdouble), halves)
    k = np.concatenate([np.arange(h, 0, -1, dtype=np.longdouble) for h in halves])
    x = (1 - (n - 1) / (8 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(2, _RULE_CAP + 1):
            m = ends[(_RULE_CAP - j) // _RULE_STEP]  # the nodes of the rules with n >= j
            p0[:m], p1[:m] = p1[:m], ((2 * j - 1) * x[:m] * p1[:m] - (j - 1) * p0[:m]) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    w = (2 / ((1 - x * x) * dp * dp)).astype(np.float64)
    x = x.astype(np.float64)
    rules = {}
    for size, lo, hi in zip(sizes, [0, *ends], ends):
        xs, ws = x[lo:hi], w[lo:hi]
        rule = (np.concatenate((-xs[::-1], xs)), np.concatenate((ws[::-1], ws)))
        for array in rule:
            array.flags.writeable = False
        rules[size] = rule
    return rules


def _weight_bound(lam: float, R2: float, x0: float, x1: float, y: float) -> float:
    """G: a bound of |Q| for the three weights Q of the K integrand,
    (R^2 - r^2)/(r^2 + lam) times 1, (3 lam - r^2)/(r^2 + lam) and
    -8 lam r^2/(r^2 + lam)^2, over r = e^t with x0 <= Re t <= x1 and
    |Im t| <= y; inf where no positive lower bound D of |r^2 + lam| is
    found, as where the region reaches the pole."""
    if x1 > 350.0:  # r^2 past 1e304: no finite bound
        return math.inf
    D = math.exp(2.0 * x0) - abs(lam)  # |r^2 + lam| >= |r^2| - |lam|
    if lam >= 0.0 and 2.0 * y < 0.5 * math.pi:  # Re r^2 >= e^(2 x0) cos(2 y)
        D = max(D, math.exp(2.0 * x0) * math.cos(2.0 * y) + lam)
    if D <= 0.0:
        return math.inf
    E1 = math.exp(2.0 * x1)
    return (R2 + E1) / D * max(1.0, (3.0 * abs(lam) + E1) / D, 8.0 * abs(lam) * E1 / (D * D))


def _rule_size(d: float, lam, log_R: float, lo: float, hi: float) -> int:
    """The fewest nodes, a multiple of _RULE_STEP, whose Bernstein bound
    meets RADIAL_EPS on [lo, hi] in t = log r (see radial_integrate) for
    the K weights of outer radius e^log_R when lam is given, or 0 if more
    than _RULE_CAP would be needed: the one statement of the bound."""
    mid, w = 0.5 * (hi + lo), 0.5 * (hi - lo)
    dw = d * w
    # e^(e t), |e| <= d: the ellipse's largest |e^(e t)| over the real mean
    # is at most e^(dw (a - 1)) 2 dw/(1 - e^(-2 dw)), increasing in dw
    log_spread = math.log(2.0 * dw / -math.expm1(-2.0 * dw)) if dw > 0.0 else 0.0
    R2 = math.exp(2.0 * log_R) if log_R < 350.0 else math.inf  # past it: no finite bound
    g1 = 1.0 if lam is None else _weight_bound(lam, R2, lo, hi, 0.0)
    if g1 == math.inf:
        return 0
    # Every rho of the ladder gives a valid count.  From the largest down,
    # skip those whose ellipse reaches the pole and stop at the first that
    # counts more than the one before.
    best = math.inf
    for a, b, log_rho, log_c in _RADIAL_RHOS:
        # log of the growth; 1, t and t^2 grow by at most 1 + 3 a^2
        # (Cauchy-Schwarz)
        growth = max(dw * (a - 1.0) + log_spread, math.log(1.0 + 3.0 * a * a))
        if lam is not None:
            G = _weight_bound(lam, R2, mid - w * a, mid + w * a, w * b)
            if G == math.inf:
                continue
            growth += math.log(G / g1)
        # (64/15) rho^(-2(n-1))/(2 (rho^2 - 1)) e^growth <= RADIAL_EPS
        n = 1.0 + (log_c + growth) / (2.0 * log_rho)
        if n > best:
            break
        best = n
    if best > _RULE_CAP:
        return 0
    return math.ceil(best / _RULE_STEP) * _RULE_STEP


def _radial_rule(d: float, lam, lo: float, hi: float) -> tuple:
    """One member's rule on [lo, hi] in t = log r, as radii r and weights
    of dr.  When _rule_size finds one rule for the whole interval, the
    usual case, that one panel is the rule, with no list or concatenation
    built.  Otherwise the interval is split until every piece has a rule,
    and the panels are concatenated.  Toward a real pole at
    t0 = log(-lam)/2 < lo a piece at distance delta from it is split at
    delta from its left end, so that the edges are lo + delta (2^k - 1);
    any other piece is halved.  Raises QuadratureConvergenceError before
    the panels pass _RADIAL_NODE_CAP nodes."""
    n = _rule_size(d, lam, hi, lo, hi)
    if n:
        return _panel(n, lo, hi)
    pole = 0.5 * math.log(-lam) if lam is not None and lam < 0.0 else -math.inf
    panels, pending = [], []
    left, right = lo, hi
    while True:
        if n:
            panels.append((left, right, n))
        else:
            cut = left + (left - pole)
            if not left < cut < right:
                cut = 0.5 * (left + right)
            pending += [(cut, right), (left, cut)]
        # every piece still pending takes at least _RULE_STEP nodes
        if sum(p[2] for p in panels) + _RULE_STEP * len(pending) > _RADIAL_NODE_CAP:
            raise QuadratureConvergenceError(
                f"the radial rule of degree {d} on log-radii [{lo}, {hi}]"
                + ("" if lam is None else f" at lambda={lam}")
                + f" would pass {_RADIAL_NODE_CAP} nodes")
        if not pending:
            break
        left, right = pending.pop()
        n = _rule_size(d, lam, hi, left, right)
    rules = [_panel(n, left, right) for left, right, n in panels]
    return np.concatenate([r for r, _ in rules]), np.concatenate([w for _, w in rules])


def _panel(n: int, left: float, right: float) -> tuple:
    """The n-point Gauss-Legendre rule (x, w) on [left, right] in t = log r,
    as radii r = exp(mid + half x) and weights half w r of dr."""
    x, w = _gauss_rules()[n]
    mid, half = 0.5 * (right + left), 0.5 * (right - left)
    r = np.exp(mid + half * x)
    return r, half * w * r  # dr = r dt


def _stack_rule(d: np.ndarray, lam, lo: float, hi: np.ndarray) -> tuple:
    """Each member's _radial_rule on [lo, hi] in t = log r, for 1-d arrays
    d and hi and lam (None or one more), as radii and weights of dr of
    shape (members, width), each row padded to the longest rule with
    zero-weight nodes inside its member's interval.  _rule_size sizes each
    member as _radial_rule does, and the members of one count get their
    panels from one _panel call.  Only the members one panel cannot take
    (count 0) go through _radial_rule, in member order, so the first whose
    panels would pass the node cap raises before any rule is built.  Every
    rule, as (rows, radii, weights), is laid out in its rows the same way."""
    members = list(zip(d.tolist(), [None] * hi.size if lam is None else lam.tolist(),
                       hi.tolist()))
    sizes = np.array([_rule_size(d_i, lam_i, hi_i, lo, hi_i) for d_i, lam_i, hi_i in members])
    rules = [([row], *(x[None] for x in _radial_rule(d_i, lam_i, lo, hi_i)))
             for row, (d_i, lam_i, hi_i) in enumerate(members) if sizes[row] == 0]
    for n in sorted(set(sizes.tolist()) - {0}):  # np.unique would load numpy.ma
        rows = np.flatnonzero(sizes == n)
        rules.append((rows, *_panel(n, lo, hi[rows, None])))
    width = max(nodes.shape[1] for _, nodes, _ in rules)
    r, weights = np.empty((hi.size, width)), np.zeros((hi.size, width))
    for rows, nodes, w in rules:
        r[rows, :nodes.shape[1]] = nodes
        r[rows, nodes.shape[1]:] = nodes[:, :1]
        weights[rows, :w.shape[1]] = w
    return r, weights


def radial_integrate(g: Callable[[np.ndarray], np.ndarray], a: float, b,
                     degree, lam=None):
    """Integral of g over [a, b] by one Gauss-Legendre rule in t = log r,
    sized by a proved error bound: |I - I_n| <= RADIAL_EPS * S.

    The integrand must be of the form the bound is proved for:
    r g(r) = Q(t) sum_j c_j beta_j(t), with beta_j in e^(e_j t) (|e_j| <=
    `degree`), 1, t and t^2, and Q = 1 when `lam` is None.  With `lam`,
    g is a K integrand (see operators.k_functional) and Q runs over the
    weights (b^2 - r^2)/(r^2 + lam) times 1, (3 lam - r^2)/(r^2 + lam)
    and -8 lam r^2/(r^2 + lam)^2, each term carrying one of them.  S is
    the integral over [log a, log b] of the termwise bound
    G(1) sum_j |c_j| |beta_j(t)|, where G(1) bounds |Q| there; so S >= |I|,
    and S = I when every term is nonnegative and Q = 1.

    The bound is Trefethen's (Approximation Theory and Approximation
    Practice, SIAM 2013, Thm 19.3): for f analytic in the Bernstein
    ellipse E_rho of [-1, 1] and bounded there by M, n-point
    Gauss-Legendre errs by at most (64/15) M rho^(-2(n-1))/(rho^2 - 1).
    On the ellipse of the t-interval, of half-width w, |Q| <= G(rho)
    (_weight_bound), each exponential term grows over its real mean by at
    most e^(d w (a - 1)) 2 d w/(1 - e^(-2 d w)) and each of 1, t, t^2 by at
    most 1 + 3 a^2, a = (rho + 1/rho)/2.  So the rule errs by at most
    RADIAL_EPS S once (64/15)/(2 (rho^2 - 1) rho^(2(n-1))) G(rho)/G(1)
    times that growth is at most RADIAL_EPS, for some rho of a fixed
    ladder; n is the least such count, rounded up to a multiple of 8.  The
    count takes only (degree, lam, a, b), and the Gauss-Legendre rules of
    every count are built together on first use.  When one rule would
    take more than 128 nodes (lam near -1, whose pole at t0 = log(-lam)/2
    nears the interval, or a huge degree), the interval is split into
    panels, each sized by the same bound (_radial_rule);
    QuadratureConvergenceError is raised, before g is called, if a
    member's panels would pass 4096 nodes.

    `a` is one radius, `degree` a finite number >= 0 and `lam`, when
    given, lies in (-1, 1], else ParameterDomainError.
    `b`, `degree` and `lam` may be arrays, broadcast to one entry per
    member of a stack: each member gets its own rule (_stack_rule), its
    rows padded to the longest with zero-weight nodes inside its interval,
    g is called once on radii of shape (members, nodes), and each row is
    summed with its weights; with no members (a zero-member stack) the
    result is an empty array, no rule is sized and g is not called.  Each
    member's rule is sized by _rule_size, and the rules are built with one
    exp per distinct count; only members whose interval must be split go
    through _radial_rule.  Otherwise, on the scalar path, the one rule is
    _radial_rule's, and g is called once on radii of shape (nodes,); it
    may return leading axes of its own (one integrand per member of a
    stack on one interval).  g must be elementwise in the radii.  The
    result is a float, or an array over the members or those axes.
    """
    a = require_radii(_scalar(a, "a"))
    b = require_radii(b)
    if not _within(degree, 0.0, math.inf, lo_closed=True):
        raise ParameterDomainError(f"degree must be a finite number >= 0, got {_shown(degree)}")
    if lam is not None:
        lam = require_lambda(lam)
    scalar = _is_scalar(b) and _is_scalar(degree) and (lam is None or _is_scalar(lam))
    if not (a < b if _is_scalar(b) else np.all(np.less(a, b))):
        raise ParameterDomainError("need a < b for a radial integral")
    lo = math.log(a)
    if scalar:
        r, w = _radial_rule(float(degree), None if lam is None else float(lam),
                            lo, math.log(b))
        return _result(np.sum(np.asarray(g(r), dtype=np.float64) * w, axis=-1))
    try:
        his, ds, lams = np.broadcast_arrays(np.log(b), degree, np.nan if lam is None else lam)
    except ValueError:  # lengths that are neither one nor one per member
        raise ParameterDomainError("b, degree and lam must broadcast to one shape") from None
    if his.size == 0:  # no members: nothing to size or integrate
        return np.zeros(his.shape)
    r, weights = _stack_rule(ds.ravel(), None if lam is None else lams.ravel(), lo,
                             his.ravel())
    vals = np.asarray(g(r.reshape(his.shape + r.shape[-1:])), dtype=np.float64)
    return np.sum(vals * weights.reshape(vals.shape), axis=-1)


def dirichlet_energy(h: HarmonicSeries, rho1: float, rho2: float) -> float:
    """Energy integral of |Dh|^2 (squared Hilbert-Schmidt norm) over the
    annulus rho1 < |z| < rho2, with the standard area element.

    For the identity map on A(1, 2) this is 2 * area = 6*pi.  Each circle
    mean is taken by the exact trapezoidal rule, and the radial direction
    by radial_integrate at degree 2N: r times the ring density
    2 pi r mean |Dh|^2 is 2 pi (|a0|^2 + sum over n of n^2 (|a_n r^n -
    b_n r^-n|^2 + |a_n r^n + b_n r^-n|^2)), a sum of r^(+-2n) and 1, so the
    result errs by at most RADIAL_EPS times S, the same sum with each
    coefficient's modulus, integrated.  Raises ParameterDomainError unless
    rho1 and rho2 are numbers with 0 < rho1 < rho2 < inf, and
    NumericOverflowError if the energy is not finite (a radius so large
    that the fields overflow).
    """
    rho1, rho2 = _scalar(rho1, "rho1"), _scalar(rho2, "rho2")
    M = angular_count(2 * h.N)

    def ring_density(rhos: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhos)
        for block in _blocks(rhos.size, M, REQUEST_POINTS):
            r = rhos[block]
            g = circle_grid_fields(h, r, M, ("d_rho", "d_theta")).grad_norm_sq(r)
            out[block] = 2.0 * np.pi * r * np.mean(g, axis=-1)
        return out

    return _in_float_range("the Dirichlet energy on rho1 < |z| < rho2 at (rho1, rho2)",
                           (rho1, rho2), radial_integrate, ring_density, rho1, rho2, 2 * h.N)
