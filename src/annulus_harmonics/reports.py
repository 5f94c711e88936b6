"""Named verification suites producing structured check results.

Each suite bundles related identity and inequality checks: every check runs
an independent numerical comparison (closed form against quadrature, or a
positivity scan over a grid) and reports a residual together with the
tolerance it must meet.  The CLI serializes the results as a verification
report; the same functions back the package's acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bounds as bnd
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


def _check(name: str, statement: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, statement, residual, tol,
                       math.isfinite(residual) and residual <= tol)


def _worst(*values: float) -> float:
    """The largest of `values`, or NaN if any of them is NaN.

    Python's max drops a NaN that is not its first argument (max(0.0, nan)
    is 0.0), which would let a NaN residual pass; every running worst case
    and every clamp at zero in the suites goes through this instead.
    """
    vals = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def _seeds(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**62, size=count)


def _tame_series(seed: int, N: int = 12, decay: float = 0.2) -> HarmonicSeries:
    return random_series(SamplerConfig(seed=int(seed), N=N, decay=decay))


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def run_identities(
    seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Annihilation of extremal means and the two circle-mean identities."""
    if trials <= 0:
        return []
    t = {**DEFAULT_TOLERANCES, **(tol or {})}
    checks: list[CheckResult] = []

    grid = np.linspace(1.0, E32, 502)[1:]
    worst = 0.0
    for lam in (-0.9, -0.5, 0.0, 0.5, 1.0):
        op = LambdaOperator(lam)
        profile = quadratic_mean_profile(extremal_map(lam))
        worst = _worst(worst, np.max(np.abs(op.apply(profile, grid))))
    checks.append(_check(
        "extremal-annihilation",
        "L_lam applied to the quadratic mean of h^lam vanishes on (1, e^1.5]",
        worst, t["annihilation"],
    ))

    rng = np.random.default_rng(seed)
    worst_grad = worst_ang = worst_div = 0.0
    for s in _seeds(seed + 1, trials):
        h = _tame_series(s)
        for _ in range(3):
            lam = rng.uniform(-0.9, 1.0)
            rho = rng.uniform(1.02, E32)
            g, a = identity_residuals(h, lam, rho, cfg)
            worst_grad = _worst(worst_grad, g)
            worst_ang = _worst(worst_ang, a)
        op = LambdaOperator(rng.uniform(-0.5, 1.0))
        worst_div = _worst(worst_div, op.divergence_form_residual(
            quadratic_mean_profile(h), rng.uniform(1.2, 3.0)))
    checks.append(_check(
        "gradient-form-identity",
        "L_lam[U] equals 2*mean(|Dh|^2 - radial flux of the weighted square)",
        worst_grad, t["identity"],
    ))
    checks.append(_check(
        "angular-form-identity",
        "L_lam[U] equals (2/rho^2)*mean(|h_theta|^2 - |h|^2 + stretched square)",
        worst_ang, t["identity"],
    ))
    checks.append(_check(
        "divergence-form-agreement",
        "direct and divergence forms of L_lam agree to O(step^4) (Richardson)",
        worst_div, t["divergence"],
    ))
    return checks


def _equality_family(rng: np.random.Generator) -> tuple[HarmonicSeries, float]:
    """A series whose variance is annihilated by L_lam for the drawn lam.

    Log term plus a unimodular rotation of the extremal mode pair; keeping
    the rotation unimodular and lam >= -0.8 pins the 1/(1+lam)^2
    coefficient scale so the tight annihilation tolerance is meaningful.
    """
    lam = rng.uniform(-0.8, 1.0)
    alpha = np.exp(2j * np.pi * rng.uniform())
    a0 = rng.normal() + 1j * rng.normal()
    h = HarmonicSeries.from_coeffs(
        N=1,
        a={1: alpha / (1 + lam)},
        b={1: alpha * lam / (1 + lam)},
        a0=a0,
    )
    return h, lam


def run_subsolution(
    seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Variance subsolution property, equality family and mode chain."""
    if trials <= 0:
        return []
    t = {**DEFAULT_TOLERANCES, **(tol or {})}
    rng = np.random.default_rng(seed)
    grid = np.linspace(1.01, 5.0, 200)
    floor_deficit = 0.0
    chain_excess = 0.0
    d2_deficit = 0.0
    d2_mismatch = 0.0
    for s in _seeds(seed + 2, trials):
        h = _tame_series(s, N=10, decay=0.15)
        lam = rng.uniform(-0.9, 1.0)
        V = variance_profile(h)
        lv = np.asarray(LambdaOperator(lam).apply(V, grid))
        floor_deficit = _worst(floor_deficit, -float(np.min(lv)))
        ns = h.mode_numbers.astype(np.float64)
        amp_a = np.abs(h.a) ** 2
        amp_b = np.abs(h.b) ** 2
        cross = 2.0 * (h.a * np.conj(h.b)).real
        mode_means = (
            amp_a * grid[:, None] ** (2 * ns)
            + amp_b * grid[:, None] ** (-2 * ns)
            + cross
        )
        chain = (2.0 / grid**2) * np.sum((ns**2 - 1.0) * mode_means, axis=1)
        chain_excess = _worst(chain_excess, np.max(chain - lv))
        d2 = np.asarray(variance_deriv2_termwise(h, grid))
        d2_deficit = _worst(d2_deficit, -np.min(d2))
        d2_mismatch = _worst(d2_mismatch, np.max(np.abs(d2 - V.deriv2(grid))))
    family_worst = 0.0
    for _ in range(trials):
        h, lam = _equality_family(rng)
        family_worst = _worst(family_worst, np.max(np.abs(
            LambdaOperator(lam).apply(variance_profile(h), grid)
        )))
    return [
        _check(
            "variance-floor",
            "L_lam applied to the variance is nonnegative on the grid",
            floor_deficit, t["subsolution"],
        ),
        _check(
            "equality-family",
            "L_lam annihilates the variance of log + rotated-extremal series",
            family_worst, t["equality_family"],
        ),
        _check(
            "mode-chain",
            "(2/rho^2) sum (n^2-1) U_n is a lower bound for L_lam[V]",
            chain_excess, t["mode_chain"],
        ),
        _check(
            "variance-deriv2-positive",
            "termwise second derivative of the variance is nonnegative",
            d2_deficit, 0.0,
        ),
        _check(
            "variance-deriv2-match",
            "termwise second derivative matches the profile derivative",
            d2_mismatch, t["deriv2_match"],
        ),
    ]


def run_kfunctional(
    seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Endpoint identity for the weighted integral and its mode structure."""
    if trials <= 0:
        return []
    t = {**DEFAULT_TOLERANCES, **(tol or {})}
    rng = np.random.default_rng(seed)
    endpoint_worst = 0.0
    for s in _seeds(seed + 3, trials):
        h = _tame_series(s, N=10, decay=0.2)
        lam = rng.uniform(-0.9, 1.0)
        R = rng.uniform(1.1, E32)
        ke = k_endpoint(h, lam, R)
        kq = k_quadrature(h, lam, R, cfg)
        endpoint_worst = _worst(endpoint_worst, abs(kq - ke) / (1.0 + abs(ke)))
    extremal_worst = 0.0
    for lam in (-0.9, -0.5, 0.0, 0.5, 1.0):
        extremal_worst = _worst(extremal_worst, abs(
            k_quadrature(extremal_map(lam), lam, 2.5, cfg)
        ))
    mode_worst = 0.0
    for R in (E, 2.9, E32):
        for n in range(1, 9):
            scale = math.exp(-1.5 * n)
            h = HarmonicSeries.from_coeffs(
                a={n: scale * (rng.normal() + 1j * rng.normal())},
                b={n: scale * (rng.normal() + 1j * rng.normal())},
            )
            mode_worst = _worst(
                mode_worst, bnd.mode_quadratic_form_residual(h, n, R, cfg)
            )
    variance_violation = 0.0
    for s in _seeds(seed + 4, max(1, trials // 2)):
        h = _tame_series(s, N=6, decay=0.2)
        R = rng.uniform(E + 1e-6, E32)
        lhs, rhs = bnd.variance_k_bound(h, R, cfg)
        variance_violation = _worst(variance_violation, rhs - lhs)
    boundary_worst = 0.0
    for s in _seeds(seed + 5, trials):
        h = _tame_series(s, N=10, decay=0.4)
        boundary_worst = _worst(
            boundary_worst, bnd.inner_circle_identity_residual(h, cfg)
        )
    area_residual = abs(enclosed_area(extremal_map(1.0), 1.0 + 1e-5, cfg) - math.pi)
    return [
        _check(
            "endpoint-match",
            "weighted integral of L_lam[U] equals its endpoint closed form",
            endpoint_worst, t["endpoint_rel"],
        ),
        _check(
            "extremal-zero",
            "the weighted integral vanishes for the extremal maps",
            extremal_worst, t["extremal_k"],
        ),
        _check(
            "mode-form",
            "per-mode weighted integral matches the A/B/C quadratic form",
            mode_worst, t["mode_form"],
        ),
        _check(
            "variance-lower-bound",
            "K_1[V] dominates (R^2-1) times the mode energy excess for R > e",
            variance_violation, t["variance_k"],
        ),
        _check(
            "inner-circle-identity",
            "inner-circle boundary data equals the mode energy excess",
            boundary_worst, t["boundary"],
        ),
        _check(
            "inner-area-limit",
            "enclosed area of the critical map tends to pi at the inner circle",
            area_residual, t["area_limit"],
        ),
    ]


def run_certificates(
    seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Deterministic positivity certificates and bound ordering."""
    if trials <= 0:
        return []
    t = {**DEFAULT_TOLERANCES, **(tol or {})}
    checks: list[CheckResult] = []

    grid = np.linspace(E, E32, 1000)
    phi_vals = np.asarray(bnd.wide_annulus_certificate(grid))
    checks.append(_check(
        "wide-certificate-positive",
        "the wide-annulus sign certificate is positive on [e, e^1.5]",
        _worst(0.0, -np.min(phi_vals)), t["certificate"],
    ))
    endpoint_res = _worst(
        abs(bnd.wide_annulus_certificate(E) - (13 * E**4 - E**6 - 19 * E**2 - 1)),
        abs(bnd.wide_annulus_certificate(E32) - (22 * E**6 - E**9 - 38 * E**3 - 1)),
    )
    checks.append(_check(
        "wide-certificate-endpoints",
        "certificate endpoints match their explicit exponential forms",
        endpoint_res, t["certificate"],
    ))
    r_grid = np.linspace(E, 10.0, 60)
    step = 1e-4
    scaled = lambda r: bnd.wide_annulus_certificate(r) / r**4  # noqa: E731
    fd2 = (scaled(r_grid + step) - 2 * scaled(r_grid) + scaled(r_grid - step)) / step**2
    checks.append(_check(
        "wide-certificate-concavity",
        "the R^-4-scaled certificate is concave for R >= e",
        _worst(0.0, np.max(fd2)), 1e-6,
    ))

    d_deficit = 0.0
    expand_rel = 0.0
    monotone_violation = 0.0
    for R in np.linspace(E, 10.0, 40):
        vals = np.array([bnd.mode_form_certificate(n, R) for n in range(2, 51)])
        d_deficit = _worst(d_deficit, -np.min(vals))
        expanded = np.array(
            [bnd.mode_form_certificate_expanded(n, R) for n in range(2, 51)]
        )
        expand_rel = _worst(expand_rel, np.max(
            np.abs(vals - expanded) / np.maximum(1.0, np.abs(expanded))
        ))
        diffs = np.diff(vals)
        monotone_violation = _worst(
            monotone_violation, -np.min(diffs), -np.min(np.diff(diffs)),
        )
    checks.append(_check(
        "mode-certificate-positive",
        "the per-mode determinant certificate is positive on [2,50]x[e,10]",
        d_deficit, t["certificate"],
    ))
    checks.append(_check(
        "mode-certificate-expansion",
        "definition and expanded polynomial form of the certificate agree",
        expand_rel, t["certificate_rel"],
    ))
    n2_rel = 0.0
    for R in np.linspace(E, 10.0, 40):
        factored = 4.0 * (R**2 - 1) * (R**8 - 5 * R**6 - 2 * R**4 + 6 * R**2 + 4)
        n2_rel = _worst(n2_rel, abs(bnd.mode_form_certificate(2, R) - factored)
                     / max(1.0, abs(factored)))
    checks.append(_check(
        "mode-certificate-n2-factored",
        "at n = 2 the certificate matches its factored form",
        n2_rel, t["certificate_rel"],
    ))
    checks.append(_check(
        "mode-certificate-monotone",
        "the certificate increases and is convex in n >= 2 for R >= e",
        monotone_violation, t["certificate"],
    ))

    weight_deficit = 0.0
    for R in np.linspace(1.05, E32, 10):
        for lam in np.linspace(-1 + 1e-6, 1.0, 9):
            rho = np.linspace(1.0, R, 50)
            weight_deficit = _worst(
                weight_deficit, -np.min(bnd.gz_weight(R, lam, rho)))
    checks.append(_check(
        "gz-weight-positive",
        "the conformal-part weight is nonnegative on 1 <= rho <= R",
        weight_deficit, t["weight"],
    ))
    gate_res = _worst(
        abs(bnd.gzbar_gate_margin(E, 1.0)),
        abs(bnd.gzbar_gate_margin(2.0, 0.0) - (3.0 - 4.0 * math.log(2.0))),
        -bnd.gzbar_gate_margin(1.5, 1.0),
    )
    checks.append(_check(
        "gzbar-gate-samples",
        "the anticonformal gate margin matches its known sample values",
        gate_res, t["weight"],
    ))

    order_violation = 0.0
    for R in np.linspace(1.001, 20.0, 400):
        w, k, n = bnd.weitsman_bound(R), bnd.kalaj_bound(R), bnd.nitsche_bound(R)
        order_violation = _worst(order_violation, w - k, k - n)
    checks.append(_check(
        "bound-ordering",
        "weitsman <= kalaj <= nitsche on (1, 20]",
        order_violation, t["ordering"],
    ))
    return checks


def run_schottky(
    seed: int, trials: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
    tol: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Conformal mean radius and area bounds on A(1, 2)."""
    if trials <= 0:
        return []
    t = {**DEFAULT_TOLERANCES, **(tol or {})}
    R = 2.0
    radius_deficit = 0.0
    area_deficit = 0.0
    mode_deficit = 0.0
    speed_dev = 0.0
    all_ok = True
    for s in _seeds(seed + 6, trials):
        h = random_conformal_perturbation(int(s))
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
            radius_deficit, t["schottky_radius"],
        ),
        _check(
            "area-bound",
            "image area is at least the area pi (R^2 - 1) of the annulus",
            area_deficit, t["schottky_area"],
        ),
        _check(
            "mode-sum-bound",
            "sum |a_n|^2 (R^2n - 1) over n != 0 is at least R^2 - 1",
            mode_deficit, t["schottky_radius"],
        ),
        _check(
            "unit-initial-speed",
            "conformal evolutions with unit boundary modulus start at speed 1",
            speed_dev, t["schottky_speed"],
        ),
    ]


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
