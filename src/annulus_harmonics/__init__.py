"""Numerics for complex harmonic functions on circular annuli.

The package represents harmonic functions as truncated Laurent-log series,
computes their circular means and Jacobians in closed form and by
quadrature, applies the lambda-family of radial convexity operators, and
verifies to stated tolerances the identities and sharp mean-radius bounds
governing harmonic homeomorphisms between annuli, including the extremal
family h^lam and its equality cases.
"""

from .errors import (
    DegenerateSeriesError,
    NumericOverflowError,
    ParameterDomainError,
    QuadratureConvergenceError,
    SpeedSignError,
    ToolkitError,
    ZeroOnCircleError,
)
from .series import (
    HarmonicSeries,
    extremal_map,
    from_json_dict,
    load_series,
    save_series,
    scale_rotate,
    to_json_dict,
)
from .quadrature import (
    circular_mean,
    dirichlet_energy,
    enclosed_area,
    quadratic_mean_numeric,
    radial_integrate,
    winding_number,
)
from .means import (
    RadialProfile,
    initial_speed,
    is_class_D,
    is_class_N,
    mean_outer_radius,
    quadratic_mean_mode,
    quadratic_mean_profile,
    variance_profile,
)
from .operators import (
    LambdaOperator,
    evolution_lower_bound,
    k_endpoint,
    k_functional,
    k_quadrature,
    lambda_from_speed,
    speed_bound,
    variance_subsolution_min,
)
from .bounds import (
    BoundReport,
    SchottkyReport,
    UniquenessReport,
    conformal_injectivity_margin,
    kalaj_bound,
    mode_form_certificate,
    mode_form_coeffs,
    nitsche_bound,
    schottky_check,
    theorem_gate,
    uniqueness_probe,
    weitsman_bound,
    wide_annulus_certificate,
)
from .sampling import (
    SamplerConfig,
    injectivity_probe,
    normalize_inner,
    perturb_extremal,
    random_series,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DegenerateSeriesError",
    "HarmonicSeries",
    "LambdaOperator",
    "NumericOverflowError",
    "ParameterDomainError",
    "QuadratureConvergenceError",
    "RadialProfile",
    "SamplerConfig",
    "SchottkyReport",
    "SpeedSignError",
    "ToolkitError",
    "UniquenessReport",
    "ZeroOnCircleError",
    "circular_mean",
    "conformal_injectivity_margin",
    "dirichlet_energy",
    "enclosed_area",
    "evolution_lower_bound",
    "extremal_map",
    "from_json_dict",
    "initial_speed",
    "injectivity_probe",
    "is_class_D",
    "is_class_N",
    "k_endpoint",
    "k_functional",
    "k_quadrature",
    "kalaj_bound",
    "lambda_from_speed",
    "load_series",
    "mean_outer_radius",
    "mode_form_certificate",
    "mode_form_coeffs",
    "nitsche_bound",
    "normalize_inner",
    "perturb_extremal",
    "quadratic_mean_mode",
    "quadratic_mean_numeric",
    "quadratic_mean_profile",
    "radial_integrate",
    "random_series",
    "save_series",
    "scale_rotate",
    "schottky_check",
    "speed_bound",
    "theorem_gate",
    "to_json_dict",
    "uniqueness_probe",
    "variance_profile",
    "variance_subsolution_min",
    "weitsman_bound",
    "wide_annulus_certificate",
    "winding_number",
]
