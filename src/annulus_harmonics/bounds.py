"""Sharp lower bounds for the mean outer radius, and their certificates.

A harmonic homeomorphism of A(1, R) onto a ring with unit inner boundary
cannot compress the outer boundary below (R + 1/R)/2 in mean radius, at
least when the distortion is moderate (modulus log R <= 3/2) or when either
the inner-circle average of h or of its normal derivative vanishes. With
the inner normalization and nonnegative initial speed the bound sharpens to
(R^2 + lam)/((1 + lam) R), attained exactly by rotations of h^lam.

This module provides the scalar bounds, the gate conditions, the positivity
certificates used in the wide-annulus argument (a sign function of R, a
per-mode quadratic-form determinant, a weight function), the per-mode and
boundary identities they rest on, a refinement of Schottky's theorem for
conformal maps, a theorem gate producing structured BoundReports, and a
falsification probe for the equality case at the critical configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import ParameterDomainError
from .means import (
    CLASS_TOL,
    is_class_D,
    is_class_N,
    mean_outer_radius,
    quadratic_mean_mode,
    quadratic_mean_profile,
    variance_profile,
)
from .operators import k_functional, lambda_from_speed, speed_bound
from .quadrature import angular_count
from .series import (
    HarmonicSeries,
    SeriesStack,
    _in_float_range,
    _member_orders,
    _per_member,
    _require_int,
    _scalar,
    _shown,
    _within,
    circle_grid_fields,
    require_lambda,
    require_outer,
    require_radii,
)

GATE_TOL = 1e-9
MODULUS_LIMIT = 1.5


# ---------------------------------------------------------------------------
# Scalar lower bounds for R_*/r_* with r_* = 1.
# ---------------------------------------------------------------------------

def nitsche_bound(R: float) -> float:
    """The sharp bound (R + 1/R)/2 = cosh(log R); like the bounds below, it
    takes one number R in (1, inf) or raises ParameterDomainError."""
    R = require_outer(_scalar(R, "R"))
    return 0.5 * (R + 1.0 / R)


def weitsman_bound(R: float) -> float:
    """Weitsman's bound 1 + log(R)^2 / (2 R^2); it tends to 1 as R grows."""
    R = require_outer(_scalar(R, "R"))  # a float's ** raises OverflowError, numpy's warns
    try:
        return 1.0 + 0.5 * math.log(R) ** 2 / R**2
    except OverflowError:  # R**2 past the float range: the bound rounds to 1
        return 1.0


def kalaj_bound(R: float) -> float:
    """Kalaj's bound 1 + log(R)^2 / 2."""
    R = require_outer(_scalar(R, "R"))
    return 1.0 + 0.5 * math.log(R) ** 2


def condition_modulus(R: float) -> bool:
    """Whether the unconditional gate log(R) <= 3/2 holds."""
    R = require_outer(_scalar(R, "R"))
    return math.log(R) <= MODULUS_LIMIT + 1e-12


# ---------------------------------------------------------------------------
# Positivity certificates for the weighted-integral argument.
# ---------------------------------------------------------------------------

def gz_weight(R: float, lam: float, rho):
    """Weight (R^2 - lam) log(R/rho) + (R^2 - rho^2) lam / rho^2.

    This multiplies the conformal part of the gradient inside the weighted
    integral; it is nonnegative for 1 <= rho <= R and -1 < lam <= 1.
    Raises NumericOverflowError if a value is not finite (R past about
    1e153).
    """
    R, lam, rho = require_outer(R), require_lambda(lam), require_radii(rho)
    out = _in_float_range(
        "the conformal-part weight at R", R,
        lambda R, lam, r: (R**2 - lam) * np.log(R / r) + (R**2 - r**2) * lam / r**2,
        R, lam, np.asarray(rho, dtype=np.float64))
    return out if out.shape else float(out)


def gzbar_gate_margin(R: float, lam: float) -> float:
    """Margin R^2 - 1 - (R^2 - lam) log R of the anticonformal-weight gate.

    Nonnegativity makes the weight on the anticonformal part of the
    gradient nonnegative on all of [1, R] (it is concave in rho and
    vanishes at rho = R).  For lam = 1 it holds up to R = e, and for lam = 0
    up to R = 2.  Raises ParameterDomainError unless R and lam are single
    numbers with 1 < R < inf and -1 < lam <= 1, and NumericOverflowError if
    the margin is not finite (R past about 1e153).
    """
    R, lam = require_outer(_scalar(R, "R")), require_lambda(_scalar(lam, "lambda"))
    return _in_float_range("the anticonformal gate margin at R", R,
                           lambda R, lam: R**2 - 1.0 - (R**2 - lam) * math.log(R), R, lam)


def wide_annulus_certificate(R):
    """Sign certificate 4R^2(R^2-3) log(R)^2 + 8R^2(R^2-1) log(R)
    - (R^2-1)(R^4-1).

    Positivity on [e, e^(3/2)] makes the quadratic form in the log and
    constant coefficients positive definite, which closes the bound for
    moduli in (1, 3/2].  At the endpoints the value reduces to
    13e^4 - e^6 - 19e^2 - 1 and 22e^6 - e^9 - 38e^3 - 1, both positive.
    Raises ParameterDomainError unless 1 < R < inf (every entry of an
    array), and NumericOverflowError if a value is not finite (R past about
    2.4e51, where the value, about -R^6, leaves the float range).
    """
    require_outer(R)

    def certificate(r):
        log_r = np.log(r)
        return (
            4.0 * r**2 * (r**2 - 3.0) * log_r**2
            + 8.0 * r**2 * (r**2 - 1.0) * log_r
            - (r**2 - 1.0) * (r**4 - 1.0)
        )

    out = _in_float_range("the wide-annulus certificate at R", R, certificate,
                          np.asarray(R, dtype=np.float64))
    return out if out.shape else float(out)


class ModeFormCoeffs(NamedTuple):
    """Coefficients of the per-mode quadratic form in (a_n, b_n)."""

    A: float
    B: float
    C: float


def _mode_form_coeffs(n, R) -> ModeFormCoeffs:
    cross = (R**2 - 3.0) * (R**2 + 1.0)
    A = 4.0 * R ** (2 * n + 2) + cross - 4.0 * n * (R**4 - 1.0)
    B = 4.0 * R ** (2 - 2 * n) + cross
    C = -(R**2 - 1.0) * (2.0 * n * (R**2 + 1.0) - R**2 - 3.0)
    return ModeFormCoeffs(A, B, C)


def _mode_form_certificate(n, R):
    coeffs = _mode_form_coeffs(n, R)
    reduced_b = (R**2 - 3.0) * (R**2 + 1.0)
    return coeffs.A * reduced_b - coeffs.C**2


def _mode_form_certificate_expanded(n, R):
    return 4.0 * (
        R ** (2 * n + 2) * (R**4 - 2.0 * R**2 - 3.0)
        - n**2 * R**8
        + (4.0 * n - 2.0) * R**6
        + 2.0 * n**2 * R**4
        + (6.0 - 4.0 * n) * R**2
        - n**2
    )


def mode_form_coeffs(n, R) -> ModeFormCoeffs:
    """Quadratic-form coefficients for mode n >= 1 at outer radius R.

    A_n = 4 R^(2n+2) + (R^2-3)(R^2+1) - 4n(R^4-1)
    B_n = 4 R^(2-2n) + (R^2-3)(R^2+1)
    C_n = -(R^2-1)(2n(R^2+1) - R^2 - 3)

    n and R may be arrays (broadcast against each other).  Raises
    NumericOverflowError if a coefficient is not finite (R^(2n+2) past the
    float range).
    """
    n, R = _require_int(n, "mode index n", 1, many=True), require_outer(R)
    return _in_float_range("the per-mode form at R", R, _mode_form_coeffs, n, R)


def mode_form_certificate(n, R):
    """Determinant-style certificate A_n * (R^2-3)(R^2+1) - C_n^2.

    Positive for every n >= 2 and R >= e; positivity makes the per-mode
    quadratic form positive definite after shrinking B_n to (R^2-3)(R^2+1).
    n and R may be arrays (broadcast against each other).  Raises
    NumericOverflowError if a value is not finite.
    """
    n, R = _require_int(n, "mode index n", 2, many=True), require_outer(R)
    return _in_float_range("the per-mode certificate at R", R, _mode_form_certificate, n, R)


def mode_form_certificate_expanded(n, R):
    """Expanded polynomial form of the same certificate.

    4 [ R^(2n+2)(R^4 - 2R^2 - 3) - n^2 R^8 + (4n-2) R^6 + 2 n^2 R^4
        + (6-4n) R^2 - n^2 ]

    n and R may be arrays (broadcast against each other).  Raises
    NumericOverflowError if a value is not finite.
    """
    n, R = _require_int(n, "mode index n", 2, many=True), require_outer(R)
    return _in_float_range("the expanded per-mode certificate at R", R,
                           _mode_form_certificate_expanded, n, R)


# ---------------------------------------------------------------------------
# Identities feeding the wide-annulus argument.
# ---------------------------------------------------------------------------

def mode_energy_excess(h):
    """sum over n != 0 of (n - 1) |a_n + b_n|^2 (one per member of a stack).

    Equal, through the inner-circle identity below, to the boundary data
    (1/i) mean(conj(h) h_theta) - mean(|h|^2) + |mean h|^2 at rho = 1.
    """
    ns = h.mode_numbers.astype(np.float64)
    out = np.sum((ns - 1.0) * np.abs(h.a + h.b) ** 2, axis=-1)
    return out if out.shape else float(out)


def inner_circle_identity_residual(h):
    """Residual of the inner-circle identity tying the boundary data of h
    to the mode sums (left side by quadrature at rho = 1, right side from
    coefficients); one per member of a stack."""
    M = angular_count(2 * h.N)
    f = circle_grid_fields(h, 1.0, M, ("values", "d_theta"))
    rotation_flux = np.mean(np.conj(f.values) * f.d_theta, axis=-1)
    lhs = (
        rotation_flux.imag
        - np.mean(np.abs(f.values) ** 2, axis=-1)
        + np.abs(np.mean(f.values, axis=-1)) ** 2
    )
    out = np.abs(lhs - mode_energy_excess(h))
    return out if out.shape else float(out)


def mode_quadratic_form_residual(h, n, R):
    """Residual of the per-mode identity (lam = 1): the weighted integral of
    the operator applied to the single-mode mean, minus (R^2-1)(n-1)
    |a_n + b_n|^2, equals the quadratic form with the A/B/C coefficients
    divided by 2(R^2 + 1).

    For a SeriesStack, n and R hold one entry per member (or one for all);
    the members are integrated together and the result holds one residual
    per member.
    """
    n = _require_int(n, "mode index n", 1, many=isinstance(h, SeriesStack))
    R = require_outer(R)
    if isinstance(h, SeriesStack):
        _per_member(R, len(h), "R")
    a_n, b_n = h.coeff(n)
    lhs = k_functional(quadratic_mean_mode(h, n), 1.0, R)
    lhs -= (R**2 - 1.0) * (n - 1.0) * abs(a_n + b_n) ** 2
    A, B, C = mode_form_coeffs(n, R)
    rhs = (
        A * abs(a_n) ** 2 + B * abs(b_n) ** 2 + 2.0 * C * (a_n * np.conj(b_n)).real
    ) / (2.0 * (R**2 + 1.0))
    return abs(lhs - rhs)


def variance_k_bound(h, R):
    """Pair (K_1[V],  (R^2-1) * mode energy excess) for R > e.

    The first dominates the second; summing the per-mode inequality gives
    the variance estimate that drives the wide-annulus bound.  For a stack,
    R may hold one radius per member and both entries are arrays.  Raises
    NumericOverflowError if an entry is not finite (V's jet overflows past
    R = 10**(154/N) or so).
    """
    if not _within(R, math.e, math.inf):
        raise ParameterDomainError(f"the variance estimate requires e < R < inf, got {_shown(R)}")
    R = require_outer(R)  # one number as given, several as one array
    if isinstance(h, SeriesStack):
        _per_member(R, len(h), "R")
    return _in_float_range(
        "the variance estimate at R", R,
        lambda h, R: (k_functional(variance_profile(h), 1.0, R),
                      (R**2 - 1.0) * mode_energy_excess(h)),
        h, R)


# ---------------------------------------------------------------------------
# Refinement of Schottky's theorem for conformal series.
# ---------------------------------------------------------------------------

def _injectivity_certificate(h, R: float):
    """The margin of conformal_injectivity_margin and the Jacobian lower
    bound |a_1|^2 (1 - L)^2, each as an array with one entry per member."""
    ns = h.mode_numbers.astype(np.float64)
    # a_1 is 0 for a series of order 0
    lead = np.abs(h.a[..., 0]) if h.N else np.zeros(h.a.shape[:-1])
    # an overflowed weight leaves L inf or NaN, and a_1 = 0 leaves it inf or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = np.where(ns == 1.0, 0.0, np.abs(ns) * np.maximum(1.0, R ** (ns - 1.0)))
        excess = np.sum(np.abs(h.a) * weights, axis=-1) / lead
        margin = np.where(lead > 0.0, 1.0 - 0.5 * math.pi * excess, -math.inf)
        return margin, (lead * (1.0 - excess)) ** 2


def conformal_injectivity_margin(h, R: float):
    """Margin 1 - (pi/2) L of a coefficient certificate of injectivity on
    the closed annulus 1 <= |z| <= R: a positive margin proves the
    conformal series f = a_1 (z + p(z)) injective there, with
    p = sum over n != 1 of (a_n / a_1) z^n and
    L = sum over n != 1 of |n| |a_n / a_1| max(1, R^(n-1)).

    One margin per member of a stack; -inf where a_1 = 0.  A NaN margin
    (from coefficients or R so large that L overflows) never certifies.
    Only the a coefficients enter: f is taken to be conformal, sum a_n z^n
    with all b_n = 0 and no log or constant term, as schottky_check admits.
    The test costs O(N) per series.  Raises ParameterDomainError unless R
    is one number with 1 < R < inf.

    Proof.  On 1 <= |z| <= R, |z|^(n-1) <= max(1, R^(n-1)) for every n, so
    |p'(z)| <= L.  Any two points z, w of the closed annulus are joined
    inside it by a path of length at most (pi/2)|z - w|: the segment, with
    the chord it may cut through the unit disk replaced by the shorter arc
    of the unit circle, which is at most pi/2 times that chord.
    Integrating f' = a_1 (1 + p') along the path gives
    |f(z) - f(w)| >= |a_1| |z - w| (1 - (pi/2) L), positive for z != w
    when L < 2/pi; this is the path-integral argument behind the
    Noshiro-Warschawski theorem (Duren, Univalent Functions, Springer
    1983).  The same L bounds what the sampled injectivity probe looks at:
    - on the annulus |f'| >= |a_1| (1 - L), so the Jacobian
      J = |f'|^2 >= |a_1|^2 (1 - L)^2 > 0;
    - on every circle C_rho, 1 <= rho <= R, |p(z)/z| <= L < 1 (each term
      is at most its term of L, as |n| >= 1), so by Rouche's theorem
      f = a_1 z (1 + p(z)/z) winds once around 0, as a_1 z does.
    """
    R = require_outer(_scalar(R, "R"))
    margin = _injectivity_certificate(h, R)[0]
    return margin if margin.shape else float(margin)


@dataclass(frozen=True, eq=False)
class SchottkyReport:
    """Outcome of the conformal mean-radius and area checks on A(1, R).

    Each field but R and area_bound holds a Python scalar for a series and
    an array with one entry per member for a SeriesStack.  Reports compare
    by identity, as a NaN field never equals itself and an array field has
    no one truth value: compare two reports field by field.

    `injectivity_margin` is conformal_injectivity_margin(h, R).  A member
    with a positive margin is certified injective: it is not sampled, and
    reports windings_ok = True and jacobian_min = |a_1|^2 (1 - L)^2, the
    proven lower bound of the Jacobian on the annulus.  Every other
    applicable member is sampled by the injectivity probe, and reports the
    probe's windings and the smallest Jacobian on its grid.  A member that
    is not applicable reports NaN for injectivity_margin and jacobian_min
    and windings_ok = False.

    `boundary_deviation` is a proved bound of sup ||h| - 1| on the unit
    circle, up to the rounding of the samples it is taken from:
    T = |h|^2 - 1 is a trigonometric polynomial of degree 2N there, so
    Bernstein's inequality bounds sup|T| by max_k |T(theta_k)| /
    (1 - 2 pi N/M) on M = angular_count(20 N) equally spaced angles, N
    the member's highest mode with a nonzero coefficient, and
    ||h| - 1| <= sup|T| / (1 + sqrt(max(0, 1 - sup|T|))).  A member whose
    bound exceeds 1e-6 is not applicable; NaN where the member is not
    conformal or has a log or constant term.
    """

    applicable: bool
    reason: str
    R: float
    mean_radius: float
    area: float
    area_bound: float
    mode_sum_margin: float
    boundary_deviation: float
    injectivity_margin: float
    jacobian_min: float
    windings_ok: bool
    passed: bool


def schottky_check(h, R: float):
    """Check the conformal refinement of Schottky's theorem on A(1, R).

    For a conformal series (all b_n = 0, no log term) with vanishing
    constant term and |h| = 1 on the unit circle (within 1e-6, by the
    proved bound that boundary_deviation reports): the mean
    outer radius is at least R and the image area of the annulus is at
    least pi (R^2 - 1), with the mode sum over n != 0 of
    |a_n|^2 (R^(2n) - 1) >= R^2 - 1 as intermediate step.  Injectivity is
    reported as evidence of class membership but does not gate
    applicability; failed evidence explains a failed bound.  It is proved
    from the coefficients where conformal_injectivity_margin is positive,
    and sampled by the injectivity probe for the other applicable members
    only; the probe is not called when every applicable member is
    certified (see SchottkyReport).

    A series gives one SchottkyReport of scalars; a SeriesStack, evaluated
    as one batch, gives one whose per-member fields are arrays (NaN or
    False at a member that is not applicable).  A series runs as the stack
    of one.  Raises ParameterDomainError unless R is one number with
    1 < R < inf, and NumericOverflowError if the area bound or an
    applicable member's mode sum or area is not finite (R past about 1e153
    for the identity).  Each term is |a_n|^2 (R^(2n) - 1), so a power
    R^(2n) past the float range raises even where the sum itself is
    representable (a_1 = 1, a_6 = 1e-150 at R = 1e29, a sum near 1e58),
    and, as the batch is one call, it raises for every member of a stack
    padded to that order.
    """
    # read from sampling at call time, so a test can substitute the probe
    from .sampling import injectivity_probe

    R = require_outer(_scalar(R, "R"))
    stack = h if isinstance(h, SeriesStack) else SeriesStack.of([h])
    area_bound = _in_float_range("the area bound pi (R^2 - 1) at R", R,
                                 lambda R: math.pi * (R**2 - 1.0), R)
    conformal = np.max(np.abs(stack.b), axis=-1, initial=0.0) <= CLASS_TOL
    pure = is_class_D(stack) & is_class_N(stack)
    deviation = np.full(len(stack), math.nan)
    screened = conformal & pure
    # T = |f|^2 - 1 on the unit circle, of degree 2N for a member whose
    # highest mode is N, sampled on M > 20 N angles; with Bernstein's
    # inequality |T'| <= 2N sup|T|, every point lies within pi/M of a
    # sample, so sup|T| <= max_k |T(theta_k)| / (1 - 2 pi N/M).  Members are
    # grouped by their own N, so a report does not depend on the stack.
    orders = _member_orders(stack)
    for N in sorted(set(orders[screened].tolist())):  # np.unique would load numpy.ma
        group = screened & (orders == N)
        M = angular_count(20 * N)
        moduli = np.abs(circle_grid_fields(stack[group], 1.0, M, ("values",)).values)
        with np.errstate(over="ignore", invalid="ignore"):
            T = np.max(np.abs((moduli - 1.0) * (moduli + 1.0)), axis=-1)
            T /= 1.0 - 2.0 * math.pi * N / M
            # ||f| - 1| = |T|/(|f| + 1) and |f| >= sqrt(1 - sup|T|)
            deviation[group] = T / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - T)))
    applicable = screened & ~(deviation > 1e-6)

    found = stack[applicable]
    margin, jacobian_min = _injectivity_certificate(found, R)
    certified = margin > 0.0
    windings_ok = certified.copy()
    if not certified.all():
        probe = injectivity_probe(found[~certified], R)
        jacobian_min[~certified] = probe.jacobian_min
        windings_ok[~certified] = probe.windings_ok

    def mode_sum_and_area(R, ns, amps):
        grown = R ** (2.0 * ns) - 1.0
        return np.sum(amps * grown, axis=-1), np.pi * np.sum(ns * amps * grown, axis=-1)

    mode_sum, area = _in_float_range(
        "the mode sum or the image area at R", R, mode_sum_and_area,
        R, found.mode_numbers.astype(np.float64), np.abs(found.a) ** 2)
    measured = mean_outer_radius(found, R)
    passed = ((measured >= R - 1e-9) & (area >= area_bound - 1e-6)
              & (mode_sum >= R**2 - 1.0 - 1e-9))

    def spread(values, fill=math.nan):  # `fill` at the members not applicable
        out = np.full(len(stack), fill, values.dtype)
        out[applicable] = values
        return out

    fields = dict(
        applicable=applicable,
        reason=np.select([applicable, ~conformal, ~pure],
                         ["", "series is not conformal (some b_n != 0)",
                          "log or constant term present"],
                         "boundary values of |h| deviate from 1 beyond 1e-6"),
        mean_radius=spread(measured), area=spread(area),
        mode_sum_margin=spread(mode_sum - (R**2 - 1.0)), boundary_deviation=deviation,
        injectivity_margin=spread(margin), jacobian_min=spread(jacobian_min),
        windings_ok=spread(windings_ok, False), passed=spread(passed, False))
    if not isinstance(h, SeriesStack):
        fields = {name: value.tolist()[0] for name, value in fields.items()}
    return SchottkyReport(R=R, area_bound=area_bound, **fields)


# ---------------------------------------------------------------------------
# The theorem gate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Structured verdict of the gate for one (series, R) pair.

    `measured` is the mean outer radius of the series rescaled so that its
    inner-circle quadratic mean is 1 (the rescaling factor is recorded in
    `inner_scale`; it is 1 for inputs already normalized).  `rule` names
    the strongest applicable hypothesis; `margin` is measured - bound.
    """

    R: float
    modulus: float
    class_D: bool
    class_N: bool
    rule: str
    bound: float
    measured: float
    margin: float
    verdict: str
    inner_scale: float

    def to_dict(self) -> dict:
        return asdict(self)


def theorem_gate(h: HarmonicSeries, R: float) -> BoundReport:
    """Apply the strongest applicable lower bound to the series on A(1, R).

    Order of preference:
      1. vanishing inner mean with nonnegative initial speed: bound
         (R^2 + lam)/((1 + lam) R) with lam from the measured speed (this
         dominates (R + 1/R)/2 for every lam <= 1);
      2. vanishing mean normal derivative: bound (R + 1/R)/2;
      3. modulus gate log R <= 3/2: bound (R + 1/R)/2;
      4. otherwise the verdict is "not-applicable".

    Raises ParameterDomainError unless R is one number with 1 < R < inf.
    """
    R = require_outer(_scalar(R, "R"))
    U = quadratic_mean_profile(h)
    u1 = float(U.value(1.0))
    class_d = is_class_D(h)
    class_n = is_class_N(h)
    base = nitsche_bound(R)
    if u1 <= 0.0:
        return BoundReport(
            R=R, modulus=math.log(R), class_D=class_d, class_N=class_n,
            rule="none", bound=base, measured=0.0, margin=-base,
            verdict="not-applicable", inner_scale=0.0,
        )
    scale = math.sqrt(u1)
    # a tiny U(1) can overflow the rescaling
    measured = _in_float_range("the rescaled mean radius at R", R,
                               lambda: mean_outer_radius(h, R) / scale)
    normalized_speed = float(U.deriv1(1.0)) / (2.0 * u1)

    rule = "none"
    bound = base
    if class_d and normalized_speed >= 0.0:
        lam = lambda_from_speed(normalized_speed)
        bound = speed_bound(R, lam)
        rule = "initial-speed"
    elif class_n:
        rule = "neumann-mean"
    elif condition_modulus(R):
        rule = "modulus"

    margin = measured - bound
    if rule == "none":
        verdict = "not-applicable"
    else:
        verdict = "pass" if margin >= -GATE_TOL else "fail"
    return BoundReport(
        R=R, modulus=math.log(R), class_D=class_d, class_N=class_n,
        rule=rule, bound=bound, measured=measured, margin=margin,
        verdict=verdict, inner_scale=scale,
    )


# ---------------------------------------------------------------------------
# Equality-case falsification probe at the critical configuration.
# ---------------------------------------------------------------------------

# The perturbation sizes of uniqueness_probe, 1e-4 to 1e-2.
UNIQUENESS_EPSILONS = tuple(np.geomspace(1e-4, 1e-2, 9).tolist())


@dataclass(frozen=True)
class UniquenessReport:
    """Measured response of the critical configuration to perturbations.

    For each epsilon the critical map gets an n = 2 perturbation of size
    epsilon, is renormalized on the inner circle, and the excess of its
    mean outer radius over the critical value (R + 1/R)/2 is recorded.  The
    excess is strictly positive and quadratic in epsilon (log-log slope 2),
    so equality forces the perturbation to vanish; a constant-term
    perturbation instead trips the vanishing-mean class flag.
    """

    R: float
    critical_radius: float
    epsilons: tuple[float, ...]
    gaps: tuple[float, ...]
    loglog_slope: float
    zero_eps_gap: float
    const_term_breaks_class: bool

    def to_dict(self) -> dict:
        return asdict(self)


def uniqueness_probe(R: float) -> UniquenessReport:
    """The UniquenessReport of the critical map h^1 on A(1, R).  Raises
    ParameterDomainError unless R is one number with 1 < R < inf."""
    # read from sampling at call time, as schottky_check reads the probe,
    # so a substitute set on the sampling module is the one called
    from .sampling import perturb_extremal

    R = require_outer(_scalar(R, "R"))
    eps = np.array(UNIQUENESS_EPSILONS)
    critical = nitsche_bound(R)
    gaps = np.array([
        mean_outer_radius(perturb_extremal(1.0, 2, e, renormalize=True), R)
        - critical
        for e in eps
    ])
    slope = float(np.polyfit(np.log(eps), np.log(gaps), 1)[0])
    zero_gap = abs(
        mean_outer_radius(perturb_extremal(1.0, 2, 0.0, renormalize=True), R)
        - critical
    )
    broken = not is_class_D(perturb_extremal(1.0, 0, 1e-3, renormalize=False))
    return UniquenessReport(
        R=R, critical_radius=critical,
        epsilons=tuple(float(e) for e in eps),
        gaps=tuple(float(g) for g in gaps),
        loglog_slope=slope, zero_eps_gap=zero_gap,
        const_term_breaks_class=broken,
    )
