"""Verification criteria and the named suites that run them.

A criterion is one checkable statement of the paper's argument, coded once
as a function `criterion(plan, cfg, tol) -> list[CheckResult]`.  It draws
what it needs, runs an independent numerical comparison (closed form
against quadrature, or a positivity scan over a grid) and reports each
residual together with the tolerance it must meet; `tol` is the full
tolerance table (`DEFAULT_TOLERANCES` with any overrides).  A criterion
returns several checks when they share draws, so no draw is evaluated
twice.

`plan` is a `DrawPlan`: the seed and the number of trials (the
criterion's outer draws, as a rule one series each).  Each criterion draws
from its own generator,
`np.random.default_rng((plan.seed, k))` with k fixed per criterion, so no
criterion's draws depend on another's.  Criteria on fixed grids and closed
forms ignore the plan.  The draw ranges are constants of each criterion.

The suites behind `verify` call their criteria with DrawPlan(seed, trials);
the acceptance tests call the same criteria with pinned plans of their own,
so the same functions back both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bounds as bnd
from .errors import ParameterDomainError
from .means import (
    initial_speed,
    quadratic_mean_profile,
    variance_deriv2_termwise,
    variance_profile,
)
from .operators import (
    LambdaOperator,
    identity_residuals,
    k_endpoint,
    k_quadrature,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, enclosed_area
from .sampling import (
    SamplerConfig,
    normalize_inner,
    random_conformal_perturbation,
    random_series,
)
from .series import HarmonicSeries, extremal_map

E = math.e
E32 = math.exp(1.5)
EXTREMAL_LAMS = (-0.9, -0.5, 0.0, 0.5, 1.0)

DEFAULT_TOLERANCES: dict[str, float] = {
    "annihilation": 1e-9,
    "identity": 1e-9,
    "divergence": 1e-5,
    "subsolution": 1e-10,
    "equality_family": 1e-11,
    "mode_chain": 1e-10,
    "deriv2_match": 1e-12,
    "endpoint_rel": 1e-6,
    "extremal_k": 1e-8,
    "mode_form": 1e-6,
    "variance_k": 1e-6,
    "boundary": 1e-10,
    "area_limit": 1e-8,
    "certificate": 1e-9,
    "certificate_rel": 1e-6,
    "weight": 1e-12,
    "ordering": 1e-12,
    "schottky_radius": 1e-9,
    "schottky_area": 1e-6,
    "schottky_speed": 1e-6,
}


@dataclass(frozen=True)
class CheckResult:
    """One verified statement with its measured residual."""

    name: str
    statement: str
    residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DrawPlan:
    """The draws a criterion makes: `trials` outer draws from generators
    seeded with (seed, k)."""

    seed: int
    trials: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ParameterDomainError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ParameterDomainError(f"trials must be >= 1, got {self.trials}")


def _check(name: str, statement: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, statement, residual, tol,
                       math.isfinite(residual) and residual <= tol)


def _worst(*values: float) -> float:
    """The largest of `values`, or NaN if any of them is NaN.

    Python's max drops a NaN that is not its first argument (max(0.0, nan)
    is 0.0), which would let a NaN residual pass; every running worst case
    and every clamp at zero in the criteria goes through this instead.
    """
    vals = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def _rng(plan: DrawPlan, k: int) -> np.random.Generator:
    return np.random.default_rng((plan.seed, k))


def _draw_series(rng: np.random.Generator, n_lo: int, n_hi: int,
                 decay: float) -> HarmonicSeries:
    """A tame random series of order drawn from n_lo..n_hi; its coefficients
    come from a generator of their own, seeded from `rng`."""
    N = int(rng.integers(n_lo, n_hi + 1))
    return random_series(SamplerConfig(seed=int(rng.integers(2**62)), N=N,
                                       decay=decay))


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def extremal_annihilation(plan: DrawPlan, cfg: QuadratureConfig,
                          tol: dict[str, float]) -> list[CheckResult]:
    grid = np.linspace(1.0, E32, 502)[1:]
    worst = 0.0
    for lam in EXTREMAL_LAMS:
        profile = quadratic_mean_profile(extremal_map(lam))
        worst = _worst(worst, np.max(np.abs(LambdaOperator(lam).apply(profile, grid))))
    return [_check(
        "extremal-annihilation",
        "L_lam applied to the quadratic mean of h^lam vanishes on (1, e^1.5]",
        worst, tol["annihilation"],
    )]


def circle_identities(plan: DrawPlan, cfg: QuadratureConfig,
                      tol: dict[str, float]) -> list[CheckResult]:
    """Both circle-mean identities on 3 circles per series, each circle
    evaluated once for its 10 lambdas."""
    rng = _rng(plan, 1)
    worst_grad = worst_ang = 0.0
    for _ in range(plan.trials):
        h = _draw_series(rng, 4, 16, 0.2)
        for rho in rng.uniform(1.02, E32, size=3):
            for lam in rng.uniform(-0.95, 1.0, size=10):
                g, a = identity_residuals(h, float(lam), float(rho), cfg)
                worst_grad = _worst(worst_grad, g)
                worst_ang = _worst(worst_ang, a)
    return [
        _check(
            "gradient-form-identity",
            "L_lam[U] equals 2*mean(|Dh|^2 - radial flux of the weighted square)",
            worst_grad, tol["identity"],
        ),
        _check(
            "angular-form-identity",
            "L_lam[U] equals (2/rho^2)*mean(|h_theta|^2 - |h|^2 + stretched square)",
            worst_ang, tol["identity"],
        ),
    ]


def divergence_form(plan: DrawPlan, cfg: QuadratureConfig,
                    tol: dict[str, float]) -> list[CheckResult]:
    rng = _rng(plan, 2)
    worst = 0.0
    for _ in range(plan.trials):
        h = _draw_series(rng, 4, 16, 0.2)
        op = LambdaOperator(rng.uniform(-0.5, 1.0))
        worst = _worst(worst, op.divergence_form_residual(
            quadratic_mean_profile(h), rng.uniform(1.2, 3.0)))
    return [_check(
        "divergence-form-agreement",
        "direct and divergence forms of L_lam agree to O(step^4) (Richardson)",
        worst, tol["divergence"],
    )]


def variance_subsolution(plan: DrawPlan, cfg: QuadratureConfig,
                         tol: dict[str, float]) -> list[CheckResult]:
    """Floor, mode chain and second-derivative checks of the variance, all
    from one evaluation of V's jet per drawn (series, lambda); the termwise
    second derivative that V'' is checked against has its own formula."""
    rng = _rng(plan, 3)
    grid = np.linspace(1.01, 5.0, 200)
    floor_deficit = chain_excess = d2_deficit = d2_mismatch = 0.0
    for _ in range(plan.trials):
        h = _draw_series(rng, 2, 10, 0.15)
        lam = rng.uniform(-0.9, 1.0)
        v, dv, d2v = variance_profile(h).jet(grid)
        lv = LambdaOperator(lam).apply_jet(grid, v, dv, d2v)
        floor_deficit = _worst(floor_deficit, -float(np.min(lv)))
        chain = _mode_chain(h, grid, v, dv, d2v)
        chain_excess = _worst(chain_excess, np.max(chain - lv))
        d2 = variance_deriv2_termwise(h, grid)
        d2_deficit = _worst(d2_deficit, -np.min(d2))
        d2_mismatch = _worst(d2_mismatch, np.max(np.abs(d2 - d2v)))
    return [
        _check(
            "variance-floor",
            "L_lam applied to the variance is nonnegative on the grid",
            floor_deficit, tol["subsolution"],
        ),
        _check(
            "mode-chain",
            "(2/rho^2) sum (n^2-1) U_n is a lower bound for L_lam[V]",
            chain_excess, tol["mode_chain"],
        ),
        _check(
            "variance-deriv2-positive",
            "termwise second derivative of the variance is nonnegative",
            d2_deficit, 0.0,
        ),
        _check(
            "variance-deriv2-match",
            "termwise second derivative matches the profile derivative",
            d2_mismatch, tol["deriv2_match"],
        ),
    ]


def _mode_chain(h: HarmonicSeries, rho, v, dv, d2v):
    """(2/rho^2) sum_{n != 0} (n^2-1) U_n, read off V's jet (v, dv, d2v) at rho.

    U_n = |a_n|^2 rho^2n + |b_n|^2 rho^-2n + c_n with c_n = 2 Re(a_n conj b_n)
    constant, so (rho d/drho)^2 U_n = 4 n^2 (U_n - c_n) and
    sum (n^2-1) U_n = (rho^2 V'' + rho V')/4 + sum n^2 c_n - V.
    """
    ns = h.mode_numbers.astype(np.float64)
    n2_cross = 2.0 * ns**2 @ (h.a * np.conj(h.b)).real
    return 0.5 * (d2v + dv / rho) + (2.0 / rho**2) * (n2_cross - v)


def equality_family(plan: DrawPlan, cfg: QuadratureConfig,
                    tol: dict[str, float]) -> list[CheckResult]:
    """L_lam annihilates the variance of a log term plus a unimodular
    rotation of the extremal mode pair.  Keeping the rotation unimodular and
    lam >= -0.8 pins the 1/(1+lam)^2 coefficient scale, so the absolute
    tolerance is meaningful (the wider-lambda annihilation runs at 1e-9)."""
    rng = _rng(plan, 4)
    grid = np.linspace(1.01, 5.0, 200)
    worst = 0.0
    for _ in range(plan.trials):
        lam = rng.uniform(-0.8, 1.0)
        alpha = np.exp(2j * np.pi * rng.uniform())
        h = HarmonicSeries.from_coeffs(
            N=1,
            a={1: alpha / (1 + lam)},
            b={1: alpha * lam / (1 + lam)},
            a0=complex(rng.normal(), rng.normal()),
        )
        worst = _worst(worst, np.max(np.abs(
            LambdaOperator(lam).apply(variance_profile(h), grid))))
    return [_check(
        "equality-family",
        "L_lam annihilates the variance of log + rotated-extremal series",
        worst, tol["equality_family"],
    )]


def endpoint_identity(plan: DrawPlan, cfg: QuadratureConfig,
                      tol: dict[str, float]) -> list[CheckResult]:
    rng = _rng(plan, 5)
    worst = 0.0
    for _ in range(plan.trials):
        h = _draw_series(rng, 2, 10, 0.2)
        lam = rng.uniform(-0.95, 1.0)
        R = rng.uniform(1.05, E32)
        ke = k_endpoint(h, lam, R)
        worst = _worst(worst, abs(k_quadrature(h, lam, R, cfg) - ke) / (1.0 + abs(ke)))
    return [_check(
        "endpoint-match",
        "weighted integral of L_lam[U] equals its endpoint closed form",
        worst, tol["endpoint_rel"],
    )]


def extremal_k_zero(plan: DrawPlan, cfg: QuadratureConfig,
                    tol: dict[str, float]) -> list[CheckResult]:
    worst = 0.0
    for lam in EXTREMAL_LAMS:
        worst = _worst(worst, abs(k_quadrature(extremal_map(lam), lam, 2.5, cfg)))
    return [_check(
        "extremal-zero",
        "the weighted integral vanishes for the extremal maps",
        worst, tol["extremal_k"],
    )]


def mode_form(plan: DrawPlan, cfg: QuadratureConfig,
              tol: dict[str, float]) -> list[CheckResult]:
    """One random single-mode series per (R, n) on a fixed grid."""
    rng = _rng(plan, 6)
    worst = 0.0
    for R in (E, 2.9, E32):
        for n in range(1, 9):
            scale = math.exp(-1.5 * n)
            h = HarmonicSeries.from_coeffs(
                a={n: scale * complex(rng.normal(), rng.normal())},
                b={n: scale * complex(rng.normal(), rng.normal())},
            )
            worst = _worst(worst, bnd.mode_quadratic_form_residual(h, n, R, cfg))
    return [_check(
        "mode-form",
        "per-mode weighted integral matches the A/B/C quadratic form",
        worst, tol["mode_form"],
    )]


def variance_lower_bound(plan: DrawPlan, cfg: QuadratureConfig,
                         tol: dict[str, float]) -> list[CheckResult]:
    """One draw per two trials: each draw is an adaptive radial quadrature."""
    rng = _rng(plan, 7)
    violation = 0.0
    for _ in range(max(1, plan.trials // 2)):
        h = _draw_series(rng, 2, 6, 0.2)
        lhs, rhs = bnd.variance_k_bound(h, rng.uniform(E + 1e-9, E32), cfg)
        violation = _worst(violation, rhs - lhs)
    return [_check(
        "variance-lower-bound",
        "K_1[V] dominates (R^2-1) times the mode energy excess for R > e",
        violation, tol["variance_k"],
    )]


def inner_circle_identity(plan: DrawPlan, cfg: QuadratureConfig,
                          tol: dict[str, float]) -> list[CheckResult]:
    rng = _rng(plan, 8)
    worst = 0.0
    for _ in range(plan.trials):
        worst = _worst(worst, bnd.inner_circle_identity_residual(
            _draw_series(rng, 10, 10, 0.4), cfg))
    return [_check(
        "inner-circle-identity",
        "inner-circle boundary data equals the mode energy excess",
        worst, tol["boundary"],
    )]


def inner_area_limit(plan: DrawPlan, cfg: QuadratureConfig,
                     tol: dict[str, float]) -> list[CheckResult]:
    return [_check(
        "inner-area-limit",
        "enclosed area of the critical map tends to pi at the inner circle",
        abs(enclosed_area(extremal_map(1.0), 1.0 + 1e-5, cfg) - math.pi),
        tol["area_limit"],
    )]


def wide_certificate(plan: DrawPlan, cfg: QuadratureConfig,
                     tol: dict[str, float]) -> list[CheckResult]:
    cert = bnd.wide_annulus_certificate
    # endpoint values recomputed independently at 30 digits
    endpoint_res = _worst(
        abs(cert(E) - (13 * E**4 - E**6 - 19 * E**2 - 1)),
        abs(cert(E32) - (22 * E**6 - E**9 - 38 * E**3 - 1)),
        abs(cert(E) - 164.955091058457631),
        abs(cert(E32) - 8.099126183657315),
    )
    r_grid = np.linspace(E, 10.0, 60)
    step = 1e-4
    scaled = lambda r: cert(r) / r**4  # noqa: E731
    fd2 = (scaled(r_grid + step) - 2 * scaled(r_grid) + scaled(r_grid - step)) / step**2
    return [
        _check(
            "wide-certificate-positive",
            "the wide-annulus sign certificate is positive on [e, e^1.5]",
            _worst(0.0, -np.min(cert(np.linspace(E, E32, 1000)))),
            tol["certificate"],
        ),
        _check(
            "wide-certificate-endpoints",
            "certificate endpoints match their explicit exponential forms",
            endpoint_res, tol["certificate"],
        ),
        _check(
            "wide-certificate-concavity",
            "the R^-4-scaled certificate is concave for R >= e",
            _worst(0.0, np.max(fd2)), 1e-6,
        ),
    ]


def mode_certificate(plan: DrawPlan, cfg: QuadratureConfig,
                     tol: dict[str, float]) -> list[CheckResult]:
    """Positivity, expansion, n = 2 factorization and monotonicity of the
    per-mode certificate, from one table over n in [2, 50] x 40 radii."""
    deficit = expand_rel = monotone_violation = n2_rel = 0.0
    for R in np.linspace(E, 10.0, 40):
        vals = np.array([bnd.mode_form_certificate(n, R) for n in range(2, 51)])
        deficit = _worst(deficit, -np.min(vals))
        expanded = np.array(
            [bnd.mode_form_certificate_expanded(n, R) for n in range(2, 51)])
        expand_rel = _worst(expand_rel, np.max(
            np.abs(vals - expanded) / np.maximum(1.0, np.abs(expanded))))
        diffs = np.diff(vals)
        monotone_violation = _worst(
            monotone_violation, -np.min(diffs), -np.min(np.diff(diffs)))
        factored = 4.0 * (R**2 - 1) * (R**8 - 5 * R**6 - 2 * R**4 + 6 * R**2 + 4)
        n2_rel = _worst(n2_rel, abs(vals[0] - factored) / max(1.0, abs(factored)))
    return [
        _check(
            "mode-certificate-positive",
            "the per-mode determinant certificate is positive on [2,50]x[e,10]",
            deficit, 0.0,
        ),
        _check(
            "mode-certificate-expansion",
            "definition and expanded polynomial form of the certificate agree",
            expand_rel, tol["certificate_rel"],
        ),
        _check(
            "mode-certificate-n2-factored",
            "at n = 2 the certificate matches its factored form",
            n2_rel, tol["certificate_rel"],
        ),
        _check(
            "mode-certificate-monotone",
            "the certificate increases and is convex in n >= 2 for R >= e",
            monotone_violation, tol["certificate"],
        ),
    ]


def conformal_weights(plan: DrawPlan, cfg: QuadratureConfig,
                      tol: dict[str, float]) -> list[CheckResult]:
    weight_deficit = 0.0
    for R in np.linspace(1.05, E32, 10):
        rho = np.linspace(1.0, R, 50)
        for lam in np.linspace(-1 + 1e-6, 1.0, 9):
            weight_deficit = _worst(
                weight_deficit, -np.min(bnd.gz_weight(R, lam, rho)))
    gate_res = _worst(
        abs(bnd.gzbar_gate_margin(E, 1.0)),
        abs(bnd.gzbar_gate_margin(2.0, 0.0) - (3.0 - 4.0 * math.log(2.0))),
        -bnd.gzbar_gate_margin(1.5, 1.0),
    )
    return [
        _check(
            "gz-weight-positive",
            "the conformal-part weight is nonnegative on 1 <= rho <= R",
            weight_deficit, tol["weight"],
        ),
        _check(
            "gzbar-gate-samples",
            "the anticonformal gate margin matches its known sample values",
            gate_res, tol["weight"],
        ),
    ]


def bound_ordering(plan: DrawPlan, cfg: QuadratureConfig,
                   tol: dict[str, float]) -> list[CheckResult]:
    violation = 0.0
    for R in np.linspace(1.001, 20.0, 400):
        w, k, n = bnd.weitsman_bound(R), bnd.kalaj_bound(R), bnd.nitsche_bound(R)
        violation = _worst(violation, w - k, k - n)
    return [_check(
        "bound-ordering",
        "weitsman <= kalaj <= nitsche on (1, 20]",
        violation, tol["ordering"],
    )]


def conformal_refinement(plan: DrawPlan, cfg: QuadratureConfig,
                         tol: dict[str, float]) -> list[CheckResult]:
    """Schottky's conformal refinement on A(1, 2); `schottky_check` runs the
    injectivity probe once per draw."""
    rng = _rng(plan, 9)
    R = 2.0
    radius_deficit = area_deficit = mode_deficit = speed_dev = 0.0
    all_ok = True
    for _ in range(plan.trials):
        h = random_conformal_perturbation(int(rng.integers(2**62)))
        report = bnd.schottky_check(h, R, cfg)
        if not (report.applicable and report.windings_ok
                and report.jacobian_min > 0.0):
            all_ok = False
            continue
        radius_deficit = _worst(radius_deficit, -(report.mean_radius - R))
        area_deficit = _worst(area_deficit, -(report.area - report.area_bound))
        mode_deficit = _worst(mode_deficit, -report.mode_sum_margin)
        speed_dev = _worst(speed_dev, abs(initial_speed(normalize_inner(h)) - 1.0))
    return [
        _check(
            "probes-applicable",
            "every sampled conformal series meets the preconditions and probes",
            0.0 if all_ok else 1.0, 0.0,
        ),
        _check(
            "outer-radius-bound",
            "mean outer radius of a normalized conformal map is at least R",
            radius_deficit, tol["schottky_radius"],
        ),
        _check(
            "area-bound",
            "image area is at least the area pi (R^2 - 1) of the annulus",
            area_deficit, tol["schottky_area"],
        ),
        _check(
            "mode-sum-bound",
            "sum |a_n|^2 (R^2n - 1) over n != 0 is at least R^2 - 1",
            mode_deficit, tol["schottky_radius"],
        ),
        _check(
            "unit-initial-speed",
            "conformal evolutions with unit boundary modulus start at speed 1",
            speed_dev, tol["schottky_speed"],
        ),
    ]


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def _suite(name: str, doc: str, *criteria):
    def run(
        seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
        tol: dict[str, float] | None = None,
    ) -> list[CheckResult]:
        plan = DrawPlan(seed, trials)
        t = {**DEFAULT_TOLERANCES, **(tol or {})}
        return [c for criterion in criteria for c in criterion(plan, cfg, t)]

    run.__name__ = run.__qualname__ = f"run_{name}"
    run.__doc__ = doc
    return run


run_identities = _suite(
    "identities",
    "Annihilation of extremal means and the circle-mean identities.",
    extremal_annihilation, circle_identities, divergence_form,
)
run_subsolution = _suite(
    "subsolution",
    "Variance subsolution property, equality family and mode chain.",
    variance_subsolution, equality_family,
)
run_kfunctional = _suite(
    "kfunctional",
    "Endpoint identity for the weighted integral and its mode structure.",
    endpoint_identity, extremal_k_zero, mode_form, variance_lower_bound,
    inner_circle_identity, inner_area_limit,
)
run_certificates = _suite(
    "certificates",
    "Deterministic positivity certificates and bound ordering.",
    wide_certificate, mode_certificate, conformal_weights, bound_ordering,
)
run_schottky = _suite(
    "schottky",
    "Conformal mean radius and area bounds on A(1, 2).",
    conformal_refinement,
)

SUITES = {
    "identities": run_identities,
    "subsolution": run_subsolution,
    "kfunctional": run_kfunctional,
    "certificates": run_certificates,
    "schottky": run_schottky,
}


def run_suite(
    name: str, seed: int, trials: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run one named suite, or all of them for name == "all".

    Results are sorted by check name so reports are deterministic.
    """
    if name == "all":
        checks: list[CheckResult] = []
        for suite in SUITES.values():
            checks.extend(suite(seed, trials, cfg, tol))
        return sorted(checks, key=lambda c: c.name)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)} or 'all'")
    return sorted(SUITES[name](seed, trials, cfg, tol), key=lambda c: c.name)
