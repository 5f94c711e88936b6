"""The lambda-family of radial convexity operators and their integrals.

For -1 < lam <= 1 the second-order operator

    L_lam = d^2/drho^2 + (3 lam - rho^2)/(rho (rho^2 + lam)) d/drho
            - 8 lam / (rho^2 + lam)^2

annihilates the quadratic mean of the extremal map h^lam, reduces for
lam = 0 to d^2/drho^2 - (1/rho) d/drho (annihilating rho^2) and for lam = 1
to the operator annihilating (rho^2+1)^2/(4 rho^2).  It admits the
divergence form

    L_lam[P] = ((rho^2 + lam)/rho^3) d/drho [ rho^3 d/drho ( P/(rho^2+lam) ) ],

used here as a finite-difference cross-check.  Two integral identities tie
L_lam applied to the quadratic mean U of an arbitrary series to circle
means of pointwise fields; both are implemented as residual checks with the
left side in closed form and the right side by angular quadrature.  Both
right sides are linear combinations, with lambda-dependent weights, of four
trapezoid means (|h|^2, Re(conj(h) h_rho), |h_rho|^2, |h_theta|^2), so the
circle is evaluated once per (series, rho, angle count): a small LRU memo
keeps those four floats and U's jet at rho, and each lambda costs a few
scalar operations.  The memo keys the series by identity and stores only
floats.

The weighted radial integral

    K_lam[P] = integral_1^R  rho (R^2 - rho^2)/(rho^2 + lam) * L_lam[P] drho

collapses, after integration by parts, to endpoint data only:

    K_lam[P] = 2 R^2/(R^2+lam) P(R) - 2 (lam R^2 + 1)/(1+lam)^2 P(1)
               - (R^2-1)/(1+lam) P'(1),

which vanishes identically when P is the quadratic mean of h^lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterDomainError, SpeedSignError
from .means import (
    RadialProfile,
    initial_speed,
    is_class_D,
    quadratic_mean_profile,
    variance_profile,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    circle_angles,
    radial_integrate,
)
from .series import (
    HarmonicSeries,
    circle_fields,
    require_lambda,
    require_outer,
    require_radii,
)


@dataclass(frozen=True)
class LambdaOperator:
    """The operator L_lam acting on radial profiles, -1 < lam <= 1."""

    lam: float

    def __post_init__(self) -> None:
        require_lambda(self.lam)

    def _denominator(self, rho):
        require_radii(rho)
        r = np.asarray(rho, dtype=np.float64)
        den = r**2 + self.lam
        if not (den > 0.0).all():
            raise ParameterDomainError(
                f"rho^2 + lambda must be positive (lambda={self.lam})"
            )
        return r, den

    def apply(self, P: RadialProfile, rho):
        """L_lam[P](rho), vectorized over rho."""
        r, den = self._denominator(rho)
        return self._on_jet(r, den, *P.jet(r))

    def apply_jet(self, rho, value, d1, d2):
        """L_lam from a profile's jet (value, d1, d2), already evaluated at
        rho, so a caller that needs the jet itself evaluates it once."""
        r, den = self._denominator(rho)
        return self._on_jet(r, den, value, d1, d2)

    def _on_jet(self, r, den, value, d1, d2):
        """L_lam from the jet (value, d1, d2) of a profile at r, with
        den = r^2 + lam."""
        return (
            d2
            + (3.0 * self.lam - r**2) / (r * den) * d1
            - 8.0 * self.lam / den**2 * value
        )

    def divergence_form_residual(self, P: RadialProfile, rho: float,
                                 step: float = 1e-3) -> float:
        """|divergence form - direct form| at rho.

        The divergence form is evaluated by nested central differences of
        P/(rho^2 + lam), whose error is even in the step: c2 step^2 +
        c4 step^4 + ...  Richardson extrapolation over `step` and `step`/2
        cancels the step^2 term, so the residual is O(step^4) plus rounding.
        """

        def scaled(r: float) -> float:
            return float(P.value(r)) / (r * r + self.lam)

        def div_form(h: float) -> float:
            def flux(r: float) -> float:
                return r**3 * (scaled(r + h) - scaled(r - h)) / (2.0 * h)

            return (rho**2 + self.lam) / rho**3 * (
                (flux(rho + h) - flux(rho - h)) / (2.0 * h)
            )

        extrapolated = (4.0 * div_form(0.5 * step) - div_form(step)) / 3.0
        return abs(extrapolated - float(self.apply(P, rho)))


def speed_bound(rho: float, lam: float) -> float:
    """Sharp lower bound (rho^2 + lam)/((1 + lam) rho) for the mean radius
    on C_rho of a normalized map whose initial speed gives lam; the mean
    radius of h^lam itself."""
    return (rho**2 + lam) / ((1.0 + lam) * rho)


def lambda_from_speed(speed: float) -> float:
    """Parameter lam with initial speed (1-lam)/(1+lam) equal to `speed`.

    The map is an involution: lam = (1 - speed) / (1 + speed).  Speeds >= 0
    map onto lam in (-1, 1]; negative speeds are rejected.
    """
    if speed < 0.0:
        raise SpeedSignError(f"initial speed must be nonnegative, got {speed}")
    return (1.0 - speed) / (1.0 + speed)


# ---------------------------------------------------------------------------
# Integral identities for L_lam applied to the quadratic mean.
# ---------------------------------------------------------------------------

def identity_residuals(
    h: HarmonicSeries,
    lam: float,
    rho: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Residuals of the two circle-mean identities for L_lam[U] at rho.

    gradient form:  L[U] = 2 mean( |Dh|^2 - (1/rho) d/drho( w |h|^2 ) )
                    with w = (rho^2 - lam)/(rho^2 + lam),
    angular form:   L[U] = (2/rho^2) mean( |h_theta|^2 - |h|^2
                    + | h + rho h_rho - 2 rho^2 h/(rho^2+lam) |^2 ).

    The left side is the closed-form profile; the right sides are
    trapezoid means of pointwise fields on the quadrature circle, with the
    radial derivative taken termwise.  Both right sides are linear in the
    four circle means A = mean |h|^2, B = mean Re(conj(h) h_rho),
    C = mean |h_rho|^2 and D = mean |h_theta|^2 (the stretched field is
    -w h + rho h_rho, and w'/rho = 4 lam/(rho^2 + lam)^2), so

        gradient:  2 (C + D/rho^2 - 4 lam A/(rho^2 + lam)^2 - 2 w B/rho),
        angular:   (2/rho^2) (D + (w^2 - 1) A - 2 w rho B + rho^2 C),

    exactly as for the pointwise integrands, the trapezoid rule being
    linear.  The four means and U's jet at rho come from _circle_terms,
    memoised per (series, rho, M), so a circle is evaluated once for every
    lambda.  Returns (gradient_residual, angular_residual).
    """
    lam, rho = float(lam), float(rho)
    # the domain checks run on every call, whether the memo has rho or not
    op = LambdaOperator(lam)
    require_radii(rho)
    den = rho**2 + lam
    if not den > 0.0:
        raise ParameterDomainError(
            f"rho^2 + lambda must be positive (lambda={lam})")
    u, du, d2u, A, B, C, D = _circle_terms(h, rho, cfg.angular_count(2 * h.N))
    lhs = op._on_jet(rho, den, u, du, d2u)
    w = (rho**2 - lam) / den
    rhs_gradient = 2.0 * (C + D / rho**2 - 4.0 * lam * A / den**2
                          - 2.0 * w * B / rho)
    rhs_angular = (2.0 / rho**2) * (
        D + (w * w - 1.0) * A - 2.0 * w * rho * B + rho**2 * C)
    return abs(lhs - rhs_gradient), abs(lhs - rhs_angular)


@lru_cache(maxsize=32)
def _circle_terms(h: HarmonicSeries, rho: float, M: int) -> tuple[float, ...]:
    """The lambda-free part of identity_residuals, as plain floats:
    U, U', U'' at rho, then the means A, B, C, D of |h|^2,
    Re(conj(h) h_rho), |h_rho|^2 and |h_theta|^2 over circle_angles(M),
    all from one circle_fields call.  The key holds the series by identity.
    """
    u, du, d2u = quadratic_mean_profile(h).jet(rho)
    f = circle_fields(h, rho, circle_angles(M))
    return (
        float(u), float(du), float(d2u),
        float(np.mean(np.abs(f.values) ** 2)),
        float(np.mean((np.conj(f.values) * f.d_rho).real)),
        float(np.mean(np.abs(f.d_rho) ** 2)),
        float(np.mean(np.abs(f.d_theta) ** 2)),
    )


# ---------------------------------------------------------------------------
# The weighted radial integral K_lam and its endpoint form.
# ---------------------------------------------------------------------------

def k_functional(
    P: RadialProfile,
    lam: float,
    R: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """K_lam[P] by radial quadrature of the weighted operator."""
    require_outer(R)
    op = LambdaOperator(lam)

    def integrand(r: np.ndarray) -> np.ndarray:
        # the nodes lie in [1, R], inside apply's domain: skip its checks
        den = r**2 + lam
        return r * (R**2 - r**2) / den * op._on_jet(r, den, *P.jet(r))

    return radial_integrate(integrand, 1.0, R, cfg)


def k_quadrature(
    h: HarmonicSeries, lam: float, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """K_lam applied to the quadratic mean of h, by quadrature."""
    return k_functional(quadratic_mean_profile(h), lam, R, cfg)


def k_endpoint(h: HarmonicSeries, lam: float, R: float) -> float:
    """K_lam applied to the quadratic mean of h, in endpoint closed form."""
    require_lambda(lam)
    require_outer(R)
    U = quadratic_mean_profile(h)
    u_R = U.value(R)
    u_1, du_1, _ = U.jet(1.0)
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
    (lam, 1).
    """
    op = LambdaOperator(lam)
    values = np.asarray(op.apply(variance_profile(h), np.asarray(rho_grid)))
    return float(np.min(values))


def evolution_lower_bound(h: HarmonicSeries, s: float) -> tuple[float, float]:
    """Measured mean radius on C_s versus the sharp speed-dependent bound.

    Requires the inner normalization b0 = 0, U(1) = 1 and a nonnegative
    initial speed; with lam derived from the measured speed the pair

        ( sqrt(U(s)),  (s^2 + lam) / ((1 + lam) s) )

    satisfies lhs >= rhs, with equality exactly for rotations of h^lam.
    """
    if not is_class_D(h):
        raise ParameterDomainError("normalization requires b0 = 0")
    U = quadratic_mean_profile(h)
    u1 = float(U.value(1.0))
    if abs(u1 - 1.0) > 1e-9:
        raise ParameterDomainError(f"normalization requires U(1) = 1, got {u1}")
    require_outer(s)  # the outer radius of A(1, s)
    lam = lambda_from_speed(initial_speed(h))
    measured = math.sqrt(float(U.value(s)))
    return measured, speed_bound(s, lam)
