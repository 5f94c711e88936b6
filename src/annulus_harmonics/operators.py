"""The lambda-family of radial convexity operators and their integrals.

For -1 < lam <= 1 the second-order operator

    L_lam = d^2/drho^2 + (3 lam - rho^2)/(rho (rho^2 + lam)) d/drho
            - 8 lam / (rho^2 + lam)^2

annihilates the quadratic mean of the extremal map h^lam, reduces for
lam = 0 to d^2/drho^2 - (1/rho) d/drho (annihilating rho^2) and for lam = 1
to the operator annihilating (rho^2+1)^2/(4 rho^2).  It admits the
divergence form

    L_lam[P] = ((rho^2 + lam)/rho^3) d/drho [ rho^3 d/drho ( P/(rho^2+lam) ) ],

used here as a finite-difference cross-check on one fixed step,
DIVERGENCE_STEP = 1e-3, and its half.  Two integral identities tie L_lam
applied to the quadratic mean U of an arbitrary series to circle means of
pointwise fields; both are implemented as residual checks with the
left side in closed form and the right side by angular quadrature.  Both
right sides are linear combinations, with lambda-dependent weights, of four
trapezoid means (|h|^2, Re(conj(h) h_rho), |h_rho|^2, |h_theta|^2), so the
circle is evaluated once per (series, rho, angle count) and each lambda
costs a few operations in one function shared by both paths
(_identity_pair): identity_residuals for one series, rho and lambda, and
identity_residuals_stack for a chunk of a SeriesStack.

The weighted radial integral

    K_lam[P] = integral_1^R  rho (R^2 - rho^2)/(rho^2 + lam) * L_lam[P] drho

collapses, after integration by parts, to endpoint data only:

    K_lam[P] = 2 R^2/(R^2+lam) P(R) - 2 (lam R^2 + 1)/(1+lam)^2 P(1)
               - (R^2-1)/(1+lam) P'(1),

which vanishes identically when P is the quadratic mean of h^lam.

One rule, _denominator, pairs a radius rho with a lambda: it returns
rho^2 + lam, and refuses a rho outside require_radii (a stack's 2-d radii
need one row per member), shapes that do not pair, a stack's per-member
lambda of another length and rho^2 + lam <= 0.  rho and lam of the
identities and of a series' profile broadcast; on a stack's profile lam
is one value or one per member, (B,) or (B, 1), paired with the member
axis at one radius, (m,) and (B, m) radii alike.  With the overflow rule
(series._in_float_range), through which L_lam, its divergence form, a
stack's identities and K return, reading U's jet unchecked, it leaves
_on_jet, _identity_pair and _endpoint_form arithmetic only (sympy too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, ParameterDomainError, SpeedSignError
from .means import (
    RadialProfile,
    initial_speed,
    is_class_D,
    mean_outer_radius,
    quadratic_mean_profile,
    variance_profile,
)
from .quadrature import _circle_means, _field_means, angular_count, radial_integrate
from .series import (
    LAMBDA_MIN,
    HarmonicSeries,
    SeriesStack,
    _in_float_range,
    _is_scalar,
    _per_member,
    _result,
    _scalar,
    _shown,
    circle_angles,
    circle_fields,
    require_lambda,
    require_outer,
    require_radii,
)

# The step of the central differences of the divergence-form cross-check
# (LambdaOperator.divergence_form_residual), which extrapolates over it and
# its half.
DIVERGENCE_STEP = 1e-3


@dataclass(frozen=True)
class LambdaOperator:
    """The operator L_lam acting on radial profiles, -1 < lam <= 1; `lam`
    may be an array of lambdas, one operator per entry."""

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", require_lambda(self.lam))

    def apply(self, P: RadialProfile, rho):
        """L_lam[P](rho), vectorized over rho.  On a series' profile rho and
        lam broadcast; on a stack's, lam is one value or one per member,
        (B,) or (B, 1), and row i is member i's value with its own lambda,
        at one radius, (m,) or (B, m) radii.  Other shapes and rho^2 + lam
        <= 0 raise ParameterDomainError, a value not finite NumericOverflowError."""
        return _in_float_range("L_lam of the profile at rho", rho,
                               self._on, rho, _members(P), lambda r: _unchecked_jet(P, r))

    def apply_jet(self, rho, value, d1, d2):
        """L_lam from a profile's jet (value, d1, d2), already evaluated at
        rho, so a caller that needs the jet itself evaluates it once; rho
        and lam broadcast, as on a series' profile.  Raises as apply."""
        return _in_float_range("L_lam of the jet at rho", rho, self._on, rho, (),
                               lambda r: (value, d1, d2))

    def _on(self, rho, members, jet):  # L_lam from jet(r), r paired with lam by _denominator
        r, lam, den = _denominator(rho, self.lam, members)
        return _on_jet(lam, r, den, *jet(r))

    def divergence_form_residual(self, P: RadialProfile, rho):
        """|divergence form - direct form| at rho.

        The divergence form is evaluated by nested central differences of
        P/(rho^2 + lam), whose error is even in the step: c2 step^2 +
        c4 step^4 + ...  Richardson extrapolation over DIVERGENCE_STEP and
        DIVERGENCE_STEP/2 cancels the step^2 term, so the residual is
        O(step^4) plus rounding.  rho and lam pair entry by entry, each one
        value or, on a stack's profile, one per member, as is the result.
        Raises ParameterDomainError unless _denominator accepts every radius
        of the stencil, rho - 2 step to rho + 2 step, with lam, and
        NumericOverflowError if a residual is not finite.
        """
        return _in_float_range("the divergence-form residual at rho", rho,
                               self._divergence_residual, P, rho)

    def _divergence_residual(self, P: RadialProfile, rho):
        r = np.asarray(require_radii(rho), dtype=np.float64)[..., None]  # rho as one column
        # P at the centres r + h, r - h of the outer difference, each taken
        # at +-h again, for h = step and step/2, and its jet at r: one call
        steps = (DIVERGENCE_STEP, 0.5 * DIVERGENCE_STEP)
        x, lam, den = _denominator(
            np.concatenate([c + sign * h for h in steps for c in (r + h, r - h)
                            for sign in (1.0, -1.0)] + [r], axis=-1),
            self.lam[..., None] if np.ndim(self.lam) else self.lam, _members(P))
        value, d1, d2 = _unchecked_jet(P, x)
        scaled, den = value[..., :-1] / den[..., :-1], den[..., -1:]

        def div_form(k: int) -> np.ndarray:
            h = steps[k]
            s = scaled[..., 4 * k:4 * k + 4]
            flux_plus = (r + h) ** 3 * (s[..., 0:1] - s[..., 1:2]) / (2.0 * h)
            flux_minus = (r - h) ** 3 * (s[..., 2:3] - s[..., 3:4]) / (2.0 * h)
            return den / r**3 * ((flux_plus - flux_minus) / (2.0 * h))

        extrapolated = (4.0 * div_form(1) - div_form(0)) / 3.0
        direct = _on_jet(lam, r, den, value[..., -1:], d1[..., -1:], d2[..., -1:])
        return np.abs(extrapolated - direct)[..., 0]


def _denominator(rho, lam, members):
    """(rho, lam, rho^2 + lam) as they pair by the rule of the module
    docstring, a stack's per-member lam reshaped (B,) at one radius, else
    (B, 1).  members is a profile's member shape (_members), or None for the
    identities, whose two Python floats stay Python floats (identity_residuals,
    on circle-dense's hot path); any other rho comes back as a float64 array."""
    if members is None and type(rho) is float and type(lam) is float:
        den = require_radii(rho) ** 2 + lam
    else:
        rho = np.asarray(require_radii(rho, members[0] if members else None),
                         dtype=np.float64)
        lead = members + (1,) * min(rho.ndim, 1) if members else ()
        if lead and np.ndim(lam):  # one lambda per member of a stack
            one_each = lam[..., 0] if np.shape(lam) == members + (1,) else lam
            lam = _per_member(one_each, members[0], "lambda").reshape(lead)
        try:
            np.broadcast_shapes(rho.shape, lead)  # a stack's radii pair with its members
            den = rho**2 + lam
        except ValueError:
            raise ParameterDomainError(f"rho {rho.shape} and lambda {np.shape(lam)} shapes "
                                       f"do not pair (members {members})") from None
    if not (den > 0.0 if type(den) is float else (den > 0.0).all()):
        raise ParameterDomainError(f"rho^2 + lambda must be positive (lambda={_shown(lam)})")
    return rho, lam, den


def _members(P: RadialProfile) -> tuple:
    """The member shape of P's jet: (B,) for a stack's profile, () for a series'."""
    return np.shape(P.jet(1.0)[0])


def _unchecked_jet(P: RadialProfile, r: np.ndarray) -> tuple:
    """P's jet at radii r checked by its caller, which reads it in its rule."""
    t = P._jet(r, False)
    return t[..., 0], t[..., 1], t[..., 2]


def _one_per_member(P: RadialProfile, *named) -> None:
    """ParameterDomainError unless each argument x of the pairs (x, name)
    is one value or, if P is the profile of a stack, one per member."""
    if any(np.ndim(x) for x, _ in named) and (members := _members(P)):
        for x, name in named:
            _per_member(x, *members, name)


def _on_jet(lam, r, den, value, d1, d2):
    """L_lam from the jet (value, d1, d2) of a profile at r, den = r^2 + lam."""
    return d2 + (3.0 * lam - r**2) / (r * den) * d1 - 8.0 * lam / den**2 * value


def speed_bound(rho: float, lam: float) -> float:
    """Sharp lower bound (rho^2 + lam)/((1 + lam) rho) for the mean radius
    on C_rho of a normalized map whose initial speed gives lam; the mean
    radius of h^lam itself.  Raises ParameterDomainError unless rho and lam
    are single numbers in their domains, and NumericOverflowError if the
    bound is not finite."""
    rho, lam = require_radii(_scalar(rho, "rho")), require_lambda(_scalar(lam, "lambda"))
    return _in_float_range("the speed bound at rho", rho,
                           lambda r, lam: (r**2 + lam) / ((1.0 + lam) * r), rho, lam)


def lambda_from_speed(speed: float) -> float:
    """Parameter lam with initial speed (1-lam)/(1+lam) equal to `speed`.

    The map is an involution: lam = (1 - speed) / (1 + speed).  Speeds >= 0
    map onto lam in (-1, 1]; negative speeds are rejected, and a speed so
    large (or infinite) that lam falls within the guard band LAMBDA_MIN of
    -1 raises NumericOverflowError, as does an int past the float range;
    a speed that is not one number raises ParameterDomainError.
    """
    if not _is_scalar(speed):  # not _scalar: a huge integer is an overflow here
        raise ParameterDomainError(f"speed must be one real number, got {_shown(speed)}")
    if speed < 0.0:
        raise SpeedSignError(f"initial speed must be nonnegative, got {_shown(speed)}")
    lam = _in_float_range("the lambda (1 - s)/(1 + s) of the initial speed s", speed,
                          lambda s: (1.0 - s) / (1.0 + s), speed)
    if not lam > LAMBDA_MIN:
        raise NumericOverflowError(
            f"initial speed {speed:.6g} is too large: its lambda (1 - s)/(1 + s) "
            f"= {lam!r} is not above {LAMBDA_MIN!r}")
    return lam


# ---------------------------------------------------------------------------
# Integral identities for L_lam applied to the quadratic mean.
# ---------------------------------------------------------------------------

def identity_residuals(h: HarmonicSeries, lam: float, rho: float) -> tuple[float, float]:
    """Residuals of the two circle-mean identities for L_lam[U] at rho.

    gradient form:  L[U] = 2 mean( |Dh|^2 - (1/rho) d/drho( w |h|^2 ) )
                    with w = (rho^2 - lam)/(rho^2 + lam),
    angular form:   L[U] = (2/rho^2) mean( |h_theta|^2 - |h|^2
                    + | h + rho h_rho - 2 rho^2 h/(rho^2+lam) |^2 ).

    The left side is the closed-form profile; the right sides are
    trapezoid means of pointwise fields on the quadrature circle, with the
    radial derivative taken termwise (see _identity_pair).  The four means
    and U's jet at rho come from the circle memo of the quadrature module,
    so a circle is evaluated once for every lambda.  Returns
    (gradient_residual, angular_residual).  Raises ParameterDomainError
    unless lam and rho are single numbers in their domains, and
    NumericOverflowError if the circle's means or U's jet overflow.
    """
    if type(lam) is not float or type(rho) is not float:  # floats skip the calls
        lam, rho = _scalar(lam, "lambda"), _scalar(rho, "rho")
    # the domain checks run on every call, whether the memo has rho or not
    require_lambda(lam)
    try:
        rho, lam, den = _denominator(rho, lam, None)
        _, A, B, C, D, _, u, du, d2u = _circle_means(h, rho)
        if not (math.isfinite(u) and math.isfinite(du) and math.isfinite(d2u)):
            raise NumericOverflowError(f"U's jet at rho={rho} is not finite")
        return _identity_pair(lam, rho, den, u, du, d2u, A, B, C, D)
    except OverflowError:  # Python's float ** raises where numpy's gives inf
        raise NumericOverflowError(f"the identities overflow at rho={rho}") from None


def identity_residuals_stack(h: SeriesStack, lam, rho):
    """identity_residuals for every member, circle and lambda of a stack.

    rho has shape (B, c), c circles per member, and lam shape (B, c, L),
    L lambdas per circle.  Each circle is one circle_fields call on the
    angles of the stack's order, written into one (B, c, 3, M) block whose
    means _field_means takes at once; U's jet at the (B, c) radii is one
    matmul, and both identities are one broadcast expression over all
    (B, c, L) lambdas.  Returns (gradient, angular) residuals, each of
    shape (B, c, L).  Each circle's radius pairs with its L lambdas; other
    shapes raise ParameterDomainError, a residual not finite NumericOverflowError."""
    rho, lam = np.asarray(require_radii(rho), dtype=np.float64), require_lambda(lam)
    if rho.shape[:1] != (len(h),) or np.ndim(lam) != 3 or np.shape(lam)[:2] != rho.shape:
        raise ParameterDomainError(f"a stack of {len(h)} takes (B, c) radii and (B, c, L) "
                                   f"lambdas, got {rho.shape} and {np.shape(lam)}")
    angles = circle_angles(angular_count(2 * h.N))
    block = np.empty(rho.shape + (3, angles.size), dtype=np.complex128)
    for i, radii in enumerate(rho.tolist()):
        member = h.series(i)
        for j, r in enumerate(radii):
            block[i, j] = circle_fields(member, r, angles)
    _, A, B, C, D, _ = _field_means(block)

    def pair():
        column, lams, den = _denominator(rho[..., None], lam, None)
        jet = _unchecked_jet(quadratic_mean_profile(h), rho)
        return _identity_pair(lams, column, den, *(t[..., None] for t in (*jet, A, B, C, D)))

    return _in_float_range("the identities at rho", rho, pair)


def _identity_pair(lam, rho, den, u, du, d2u, A, B, C, D):
    """|L_lam[U] - right side| of the gradient and angular identities at
    rho, den = rho^2 + lam, from U's jet (u, du, d2u) and the circle means
    A = mean |h|^2, B = mean Re(conj(h) h_rho), C = mean |h_rho|^2,
    D = mean |h_theta|^2; numbers, arrays or symbols broadcast against
    each other.

    Both right sides are linear in the four means (the stretched field is
    -w h + rho h_rho, and w'/rho = 4 lam/(rho^2 + lam)^2), so

        gradient:  2 (C + D/rho^2 - 4 lam A/(rho^2 + lam)^2 - 2 w B/rho),
        angular:   (2/rho^2) (D + (w^2 - 1) A - 2 w rho B + rho^2 C),

    exactly as for the pointwise integrands, the trapezoid rule being
    linear.
    """
    lhs = _on_jet(lam, rho, den, u, du, d2u)
    w = (rho**2 - lam) / den
    rhs_gradient = 2.0 * (C + D / rho**2 - 4.0 * lam * A / den**2
                          - 2.0 * w * B / rho)
    rhs_angular = (2.0 / rho**2) * (
        D + (w * w - 1.0) * A - 2.0 * w * rho * B + rho**2 * C)
    return abs(lhs - rhs_gradient), abs(lhs - rhs_angular)


# ---------------------------------------------------------------------------
# The weighted radial integral K_lam and its endpoint form.
# ---------------------------------------------------------------------------

def k_functional(P: RadialProfile, lam, R):
    """K_lam[P] by radial quadrature of the weighted operator.

    In t = log rho the integrand times rho is Q(t) (rho^2 P'' + ...), with
    rho^2 P'', rho P' and P sums of e^(e t) (|e| <= P.degree), 1, t and t^2,
    and Q the weights of radial_integrate; so the result errs from K_lam[P]
    by at most RADIAL_EPS (1e-15) times S, the integral over [0, log R] of
    the integrand's termwise bound (radial_integrate).  For the profile of
    a stack, lam and R may hold one entry per member, and each member is
    integrated on its own rule; the result holds one entry per member.
    Raises ParameterDomainError for a stack's lam or R of another length,
    and NumericOverflowError if a result is not finite.
    """
    R, lam = require_outer(R), require_lambda(lam)
    lam_col, R_col = lam, R
    if not (_is_scalar(lam) and _is_scalar(R)):
        # one integrand per member, on radii of shape (members, nodes)
        _one_per_member(P, (lam, "lambda"), (R, "R"))
        lam_col, R_col = (x[..., None] if np.ndim(x) else x for x in (lam, R))

    def integrand(r: np.ndarray) -> np.ndarray:
        # the nodes lie in [1, R], inside the domains of L_lam and of P: skip their checks
        den = r**2 + lam_col
        return r * (R_col**2 - r**2) / den * _on_jet(lam_col, r, den, *_unchecked_jet(P, r))

    return _in_float_range("K_lam of the profile at R", R,
                           radial_integrate, integrand, 1.0, R, P.degree, lam)


def k_quadrature(h, lam, R):
    """K_lam applied to the quadratic mean of h, by quadrature."""
    return k_functional(quadratic_mean_profile(h), lam, R)


def k_endpoint(h, lam, R):
    """K_lam applied to the quadratic mean of h, in endpoint closed form;
    for a stack, lam and R may hold one entry per member (another length
    raises ParameterDomainError).  h may also be the quadratic-mean
    profile itself, so that a caller which integrates it with k_functional
    too builds it once.  Raises NumericOverflowError if a result is not
    finite."""
    lam, R = require_lambda(lam), require_outer(R)
    U = h if isinstance(h, RadialProfile) else quadratic_mean_profile(h)
    _one_per_member(U, (lam, "lambda"), (R, "R"))
    u_R = U.value(R) if _is_scalar(R) else U.value(R[..., None])[..., 0]
    return _in_float_range("K_lam of the quadratic mean at R", R,
                           _endpoint_form, lam, R, u_R, *U.jet(1.0)[:2])


def _endpoint_form(lam, R, u_R, u_1, du_1):
    """K_lam[U] on A(1, R) from U(R), U(1) and U'(1)."""
    return (
        2.0 * R**2 / (R**2 + lam) * u_R
        - 2.0 * (lam * R**2 + 1.0) / (1.0 + lam) ** 2 * u_1
        - (R**2 - 1.0) / (1.0 + lam) * du_1
    )


# ---------------------------------------------------------------------------
# Subsolution and sharp-bound checks.
# ---------------------------------------------------------------------------

def variance_subsolution_min(h: HarmonicSeries, lam: float, rho_grid) -> float:
    """Minimum of L_lam applied to the variance of h over a radius grid.

    The variance of any harmonic series is a subsolution of every L_lam, so
    the result is nonnegative up to rounding; it vanishes identically
    exactly when the only nonzero modes of h besides a0, b0 are the n = 1
    pair proportional to (1, lam) and the n = -1 pair proportional to
    (lam, 1).  A lam that is not one number in (-1, 1] or an empty grid
    raises ParameterDomainError, and a minimum that is not finite (a radius
    so large that the variance overflows) NumericOverflowError.
    """
    op = LambdaOperator(_scalar(lam, "lambda"))
    rho = np.asarray(rho_grid)
    if rho.size == 0:
        raise ParameterDomainError("the radius grid is empty")
    return _result(np.min(op.apply(variance_profile(h), rho)))


def evolution_lower_bound(h: HarmonicSeries, s: float) -> tuple[float, float]:
    """Measured mean radius on C_s versus the sharp speed-dependent bound.

    Requires the inner normalization b0 = 0, U(1) = 1 and a nonnegative
    initial speed; with lam derived from the measured speed the pair

        ( sqrt(U(s)),  (s^2 + lam) / ((1 + lam) s) )

    satisfies lhs >= rhs, with equality exactly for rotations of h^lam.
    Raises ParameterDomainError unless s is one number with 1 < s < inf.
    """
    if not is_class_D(h):
        raise ParameterDomainError("normalization requires b0 = 0")
    u1 = quadratic_mean_profile(h).value(1.0)
    if abs(u1 - 1.0) > 1e-9:
        raise ParameterDomainError(f"normalization requires U(1) = 1, got {u1}")
    s = require_outer(_scalar(s, "s"))  # the outer radius of A(1, s)
    lam = lambda_from_speed(initial_speed(h))
    return mean_outer_radius(h, s), speed_bound(s, lam)
