"""Verification criteria and the named suites that run them.

A criterion is one checkable statement of the paper's argument, coded once
as a function `criterion(plan, tol) -> list[CheckResult]`.  It draws
what it needs, runs an independent numerical comparison (closed form
against quadrature, or a positivity scan over a grid) and reports each
residual together with the tolerance it must meet; `tol` is the full
tolerance table (`DEFAULT_TOLERANCES` with any overrides).  The
quadratures run on the one fixed policy of the quadrature module, so the
tolerances are the only numbers a caller can change.  A criterion
returns several checks when they share draws, so no draw is evaluated
twice.

`plan` is a `DrawPlan`: the seed and the number of trials (the
criterion's outer draws, as a rule one series each).  Each criterion draws
from its own generator,
`np.random.default_rng((plan.seed, k))` with k fixed per criterion, so no
criterion's draws depend on another's.  Criteria on fixed grids and closed
forms ignore the plan.  The draw ranges are constants of each criterion.

A criterion first makes all of its draws, in the order a draw-by-draw loop
would make them, and then evaluates them in batches: the drawn series form
a SeriesStack (random_series_stack or random_conformal_perturbation; each
member has the coefficients of np.random.default_rng of its own seed:
sampling._streams hashes the whole stack's seeds in one vectorized pass and
draws each member's stream with numpy's PCG64), evaluated in chunks of
SERIES_PER_CHUNK (16) members, with the per-draw parameters as arrays.
The criteria on tame random series draw through one loop, _draws: per
trial the series' config first, then each parameter in the order given.
The circle identities (C02) take a chunk's 3 circles per member and 10
lambdas per circle in one identity_residuals_stack call; it still
evaluates each circle with its own circle_fields call (a single batched
circle_grid_fields call per chunk would be faster, but the benchmark's
tracer counts one circle_fields call per circle).  The per-mode form
(C07a) integrates its 24 single-mode series as a stack, one mode and one R
per member.  The conformal refinement (C09) proves each draw injective
from its coefficients (bounds.conformal_injectivity_margin); schottky_check
samples the draws that proof misses with the injectivity probe, and the
criterion probes the certified draws of its first chunk as well, as a spot
check of the proof.  A criterion hands each check its residuals (numbers
and arrays, one per draw, chunk or grid) and `_check` alone reduces them,
NaN-keeping, so a NaN in any draw fails its check.

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
    identity_residuals_stack,
    k_endpoint,
    k_functional,
    k_quadrature,
)
from .quadrature import enclosed_area
from .sampling import (
    SamplerConfig,
    injectivity_probe,
    normalize_inner,
    random_conformal_perturbation,
    random_series_stack,
)
from .series import SeriesStack, extremal_map

E = math.e
E32 = math.exp(1.5)
EXTREMAL_LAMS = (-0.9, -0.5, 0.0, 0.5, 1.0)

# Most trials a DrawPlan takes, 100 times verify's default: the criteria hold
# all of their draws at once, so a larger count is refused before any draw.
MAX_TRIALS = 10_000

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
    """The draws a criterion makes: `trials` outer draws (1..MAX_TRIALS)
    from generators seeded with (seed, k)."""

    seed: int
    trials: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ParameterDomainError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ParameterDomainError(
                f"trials must lie in 1..{MAX_TRIALS}, got {self.trials}")


def _check(name: str, statement: str, residuals, tol: float) -> CheckResult:
    """The check `name`, whose residual is the largest entry of `residuals`
    (numbers and arrays of any shape), clamped at 0, or NaN if any entry is
    NaN; 0 if there are no entries.

    This is the one place a check's residual is reduced.  np.max keeps a
    NaN, where Python's max drops one that is not its first argument
    (max(0.0, nan) is 0.0), and a non-finite residual never passes.
    """
    flat = np.concatenate([np.zeros(0), *(np.ravel(r) for r in residuals)])
    residual = float(np.max(flat, initial=0.0)) + 0.0  # + 0.0 turns -0.0 into 0.0
    return CheckResult(name, statement, residual, tol,
                       math.isfinite(residual) and residual <= tol)


def _rng(plan: DrawPlan, k: int) -> np.random.Generator:
    return np.random.default_rng((plan.seed, k))


def _draw_config(rng: np.random.Generator, n_lo: int, n_hi: int,
                 decay: float) -> SamplerConfig:
    """The sampler config of a tame random series of order drawn from
    n_lo..n_hi; its coefficients come from a generator of their own, seeded
    from `rng`."""
    N = int(rng.integers(n_lo, n_hi + 1))
    return SamplerConfig(seed=int(rng.integers(2**62)), N=N, decay=decay)


def _draws(rng: np.random.Generator, trials: int, orders: tuple[int, int],
           decay: float, *params: tuple):
    """Per trial the config of a tame random series (_draw_config), then
    one rng.uniform(low, high[, shape]) per spec of `params`, in that order;
    yields each chunk of the drawn stack with its rows of every parameter."""
    configs, drawn = [], [[] for _ in params]
    for _ in range(trials):
        configs.append(_draw_config(rng, *orders, decay))
        for spec, values in zip(params, drawn):
            values.append(rng.uniform(*spec))
    arrays = [np.array(values) for values in drawn]
    for rows, h in random_series_stack(configs).chunks():
        yield (h, *(a[rows] for a in arrays))


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def extremal_annihilation(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    grid = np.linspace(1.0, E32, 502)[1:]
    residuals = [np.abs(LambdaOperator(lam).apply(
        quadratic_mean_profile(extremal_map(lam)), grid)) for lam in EXTREMAL_LAMS]
    return [_check(
        "extremal-annihilation",
        "L_lam applied to the quadratic mean of h^lam vanishes on (1, e^1.5]",
        residuals, tol["annihilation"],
    )]


def circle_identities(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """Both circle-mean identities on 3 circles per series and 10 lambdas
    per circle, evaluated per chunk of series: one circle_fields call per
    circle, then every (series, circle, lambda) of the chunk at once."""
    grad, ang = [], []
    for h, rhos, lams in _draws(_rng(plan, 1), plan.trials, (4, 16), 0.2,
                                (1.02, E32, 3), (-0.95, 1.0, (3, 10))):
        g, a = identity_residuals_stack(h, lams, rhos)
        grad.append(g)
        ang.append(a)
    return [
        _check(
            "gradient-form-identity",
            "L_lam[U] equals 2*mean(|Dh|^2 - radial flux of the weighted square)",
            grad, tol["identity"],
        ),
        _check(
            "angular-form-identity",
            "L_lam[U] equals (2/rho^2)*mean(|h_theta|^2 - |h|^2 + stretched square)",
            ang, tol["identity"],
        ),
    ]


def divergence_form(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    residuals = [LambdaOperator(lams).divergence_form_residual(quadratic_mean_profile(h), rhos)
                 for h, lams, rhos in _draws(_rng(plan, 2), plan.trials, (4, 16), 0.2,
                                             (-0.5, 1.0), (1.2, 3.0))]
    return [_check(
        "divergence-form-agreement",
        "direct and divergence forms of L_lam agree to O(step^4) (Richardson)",
        residuals, tol["divergence"],
    )]


def variance_subsolution(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """Floor, mode chain and second-derivative checks of the variance, all
    from one evaluation of V's jet per drawn (series, lambda); the termwise
    second derivative that V'' is checked against has its own formula."""
    grid = np.linspace(1.01, 5.0, 200)
    floor_deficit, chain_excess, d2_deficit, d2_mismatch = [], [], [], []
    for h, lams in _draws(_rng(plan, 3), plan.trials, (2, 10), 0.15, (-0.9, 1.0)):
        v, dv, d2v = variance_profile(h).jet(grid)
        lv = LambdaOperator(lams[:, None]).apply_jet(grid, v, dv, d2v)
        floor_deficit.append(-np.min(lv, axis=-1))
        chain = _mode_chain(h, grid, v, dv, d2v)
        chain_excess.append(np.max(chain - lv, axis=-1))
        d2 = variance_deriv2_termwise(h, grid)
        d2_deficit.append(-np.min(d2, axis=-1))
        d2_mismatch.append(np.max(np.abs(d2 - d2v), axis=-1))
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


def _mode_chain(h, rho, v, dv, d2v):
    """(2/rho^2) sum_{n != 0} (n^2-1) U_n, read off V's jet (v, dv, d2v) at
    the radii rho (for a stack, one row per member).

    U_n = |a_n|^2 rho^2n + |b_n|^2 rho^-2n + c_n with c_n = 2 Re(a_n conj b_n)
    constant, so (rho d/drho)^2 U_n = 4 n^2 (U_n - c_n) and
    sum (n^2-1) U_n = (rho^2 V'' + rho V')/4 + sum n^2 c_n - V.
    """
    ns = h.mode_numbers.astype(np.float64)
    n2_cross = np.asarray((h.a * np.conj(h.b)).real @ (2.0 * ns**2))[..., None]
    return 0.5 * (d2v + dv / rho) + (2.0 / rho**2) * (n2_cross - v)


def equality_family(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """L_lam annihilates the variance of a log term plus a unimodular
    rotation of the extremal mode pair.  Keeping the rotation unimodular and
    lam >= -0.8 pins the 1/(1+lam)^2 coefficient scale, so the absolute
    tolerance is meaningful (the wider-lambda annihilation runs at 1e-9)."""
    rng = _rng(plan, 4)
    grid = np.linspace(1.01, 5.0, 200)
    lams, alphas, a0s = [], [], []
    for _ in range(plan.trials):
        lams.append(rng.uniform(-0.8, 1.0))
        alphas.append(np.exp(2j * np.pi * rng.uniform()))
        a0s.append(complex(rng.normal(), rng.normal()))
    lam, alpha = np.array(lams), np.array(alphas)
    a, b = np.zeros((2, plan.trials, 2), dtype=np.complex128)
    a[:, 0] = alpha / (1 + lam)
    b[:, 0] = alpha * lam / (1 + lam)
    stack = SeriesStack(N=1, a=a, b=b, a0=a0s, b0=np.zeros(plan.trials))
    residuals = [np.max(np.abs(LambdaOperator(lam[rows, None]).apply(
        variance_profile(h), grid)), axis=-1) for rows, h in stack.chunks()]
    return [_check(
        "equality-family",
        "L_lam annihilates the variance of log + rotated-extremal series",
        residuals, tol["equality_family"],
    )]


def endpoint_identity(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    residuals = []
    for h, lams, Rs in _draws(_rng(plan, 5), plan.trials, (2, 10), 0.2,
                              (-0.95, 1.0), (1.05, E32)):
        U = quadratic_mean_profile(h)
        ke = k_endpoint(U, lams, Rs)
        kq = k_functional(U, lams, Rs)
        residuals.append(np.abs(kq - ke) / (1.0 + np.abs(ke)))
    return [_check(
        "endpoint-match",
        "weighted integral of L_lam[U] equals its endpoint closed form",
        residuals, tol["endpoint_rel"],
    )]


def extremal_k_zero(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check(
        "extremal-zero",
        "the weighted integral vanishes for the extremal maps",
        [abs(k_quadrature(extremal_map(lam), lam, 2.5)) for lam in EXTREMAL_LAMS],
        tol["extremal_k"],
    )]


def mode_form(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """One random single-mode series per (R, n) on a fixed grid, drawn in
    that order (a_n, then b_n, each real part first) and integrated in
    chunks of the stack."""
    rng = _rng(plan, 6)
    N = 8
    ns = np.tile(np.arange(1, N + 1), 3)
    Rs = np.repeat([E, 2.9, E32], N)
    scale = np.array([math.exp(-1.5 * n) for n in ns.tolist()])[:, None]
    a_n, b_n = (scale * rng.normal(size=(ns.size, 4)).view(np.complex128)).T
    a, b = np.zeros((2, ns.size, 2 * N), dtype=np.complex128)
    a[np.arange(ns.size), ns - 1] = a_n
    b[np.arange(ns.size), ns - 1] = b_n
    stack = SeriesStack(N=N, a=a, b=b, a0=np.zeros(ns.size), b0=np.zeros(ns.size))
    residuals = [bnd.mode_quadratic_form_residual(h, ns[rows], Rs[rows])
                 for rows, h in stack.chunks()]
    return [_check(
        "mode-form",
        "per-mode weighted integral matches the A/B/C quadratic form",
        residuals, tol["mode_form"],
    )]


def variance_lower_bound(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """One draw per two trials: each draw is one Gauss-Legendre rule of
    K_1[V], sized by the proved bound of quadrature.radial_integrate."""
    residuals = []
    for h, Rs in _draws(_rng(plan, 7), max(1, plan.trials // 2), (2, 6), 0.2,
                        (E + 1e-9, E32)):
        lhs, rhs = bnd.variance_k_bound(h, Rs)
        residuals.append(rhs - lhs)
    return [_check(
        "variance-lower-bound",
        "K_1[V] dominates (R^2-1) times the mode energy excess for R > e",
        residuals, tol["variance_k"],
    )]


def inner_circle_identity(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check(
        "inner-circle-identity",
        "inner-circle boundary data equals the mode energy excess",
        [bnd.inner_circle_identity_residual(h)
         for h, in _draws(_rng(plan, 8), plan.trials, (10, 10), 0.4)],
        tol["boundary"],
    )]


def inner_area_limit(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check(
        "inner-area-limit",
        "enclosed area of the critical map tends to pi at the inner circle",
        [abs(enclosed_area(extremal_map(1.0), 1.0 + 1e-5) - math.pi)],
        tol["area_limit"],
    )]


def wide_certificate(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    cert = bnd.wide_annulus_certificate
    # endpoint values recomputed independently at 30 digits
    endpoint_res = [
        abs(cert(E) - (13 * E**4 - E**6 - 19 * E**2 - 1)),
        abs(cert(E32) - (22 * E**6 - E**9 - 38 * E**3 - 1)),
        abs(cert(E) - 164.955091058457631),
        abs(cert(E32) - 8.099126183657315),
    ]
    r_grid = np.linspace(E, 10.0, 60)
    step = 1e-4
    scaled = lambda r: cert(r) / r**4  # noqa: E731
    fd2 = (scaled(r_grid + step) - 2 * scaled(r_grid) + scaled(r_grid - step)) / step**2
    return [
        _check(
            "wide-certificate-positive",
            "the wide-annulus sign certificate is positive on [e, e^1.5]",
            [-cert(np.linspace(E, E32, 1000))], tol["certificate"],
        ),
        _check(
            "wide-certificate-endpoints",
            "certificate endpoints match their explicit exponential forms",
            endpoint_res, tol["certificate"],
        ),
        _check(
            "wide-certificate-concavity",
            "the R^-4-scaled certificate is concave for R >= e",
            [fd2], 1e-6,
        ),
    ]


def mode_certificate(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """Positivity, expansion, n = 2 factorization and monotonicity of the
    per-mode certificate, from one table over n in [2, 50] x 40 radii."""
    ns = np.arange(2, 51)
    R = np.linspace(E, 10.0, 40)
    vals = bnd.mode_form_certificate(ns, R[:, None])
    expanded = bnd.mode_form_certificate_expanded(ns, R[:, None])
    expand_rel = np.abs(vals - expanded) / np.maximum(1.0, np.abs(expanded))
    diffs = np.diff(vals, axis=-1)
    factored = 4.0 * (R**2 - 1) * (R**8 - 5 * R**6 - 2 * R**4 + 6 * R**2 + 4)
    n2_rel = np.abs(vals[:, 0] - factored) / np.maximum(1.0, np.abs(factored))
    return [
        _check(
            "mode-certificate-positive",
            "the per-mode determinant certificate is positive on [2,50]x[e,10]",
            [-vals], 0.0,
        ),
        _check(
            "mode-certificate-expansion",
            "definition and expanded polynomial form of the certificate agree",
            [expand_rel], tol["certificate_rel"],
        ),
        _check(
            "mode-certificate-n2-factored",
            "at n = 2 the certificate matches its factored form",
            [n2_rel], tol["certificate_rel"],
        ),
        _check(
            "mode-certificate-monotone",
            "the certificate increases and is convex in n >= 2 for R >= e",
            [-diffs, -np.diff(diffs, axis=-1)], tol["certificate"],
        ),
    ]


def conformal_weights(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    # 50 radii on [1, R] for each of 10 R, by 9 lambdas: R x lambda x rho
    Rs = np.linspace(1.05, E32, 10)
    rho = np.linspace(1.0, Rs, 50, axis=-1)
    lams = np.linspace(-1 + 1e-6, 1.0, 9)
    weight_deficit = -bnd.gz_weight(Rs[:, None, None], lams[:, None], rho[:, None, :])
    gate_res = [
        abs(bnd.gzbar_gate_margin(E, 1.0)),
        abs(bnd.gzbar_gate_margin(2.0, 0.0) - (3.0 - 4.0 * math.log(2.0))),
        -bnd.gzbar_gate_margin(1.5, 1.0),
    ]
    return [
        _check(
            "gz-weight-positive",
            "the conformal-part weight is nonnegative on 1 <= rho <= R",
            [weight_deficit], tol["weight"],
        ),
        _check(
            "gzbar-gate-samples",
            "the anticonformal gate margin matches its known sample values",
            gate_res, tol["weight"],
        ),
    ]


def bound_ordering(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    violation = []
    for R in np.linspace(1.001, 20.0, 400):
        w, k, n = bnd.weitsman_bound(R), bnd.kalaj_bound(R), bnd.nitsche_bound(R)
        violation.append((w - k, k - n))
    return [_check(
        "bound-ordering",
        "weitsman <= kalaj <= nitsche on (1, 20]",
        violation, tol["ordering"],
    )]


def conformal_refinement(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """Schottky's conformal refinement on A(1, 2).  `schottky_check` proves
    injectivity from the coefficients and runs the sampled injectivity
    probe only on draws it cannot certify; the draws of the first chunk
    that it certifies are probed here as well, as a spot check of the
    certificate, so every report carries sampled evidence."""
    rng = _rng(plan, 9)
    R = 2.0
    stack = random_conformal_perturbation(
        [int(rng.integers(2**62)) for _ in range(plan.trials)])
    failed, radius_deficit, area_deficit, mode_deficit, speed_dev = [], [], [], [], []
    certificate_gap = []
    for rows, h in stack.chunks():
        reports = bnd.schottky_check(h, R)
        ok = np.array([r.applicable and r.windings_ok and r.jacobian_min > 0.0
                       for r in reports])
        certified = np.array([r.injectivity_margin > 0.0 for r in reports])
        if rows.start == 0 and certified.any():
            spot = injectivity_probe(h[certified], R)
            ok[certified] &= spot.windings_ok & (spot.jacobian_min > 0.0)
        failed.append(~ok)
        certificate_gap.append([-r.injectivity_margin for r in reports if r.applicable])
        if not ok.any():
            continue
        good = [r for r, keep in zip(reports, ok) if keep]
        radius_deficit.append([-(r.mean_radius - R) for r in good])
        area_deficit.append([-(r.area - r.area_bound) for r in good])
        mode_deficit.append([-r.mode_sum_margin for r in good])
        speed_dev.append(np.abs(initial_speed(normalize_inner(h[ok])) - 1.0))
    return [
        _check(
            "probes-applicable",
            "every sampled conformal series meets the preconditions and is "
            "certified injective or passes the sampled probe; the certified "
            "draws of the first chunk pass the probe too",
            failed, 0.0,
        ),
        _check(
            "injectivity-certified",
            "the coefficient certificate (pi/2) L < 1 proves every applicable "
            "draw injective on the closed annulus",
            certificate_gap, 0.0,
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
    def run(seed: int, trials: int,
            tol: dict[str, float] | None = None) -> list[CheckResult]:
        plan = DrawPlan(seed, trials)
        t = {**DEFAULT_TOLERANCES, **(tol or {})}
        return [c for criterion in criteria for c in criterion(plan, t)]

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
    equality_family, variance_subsolution,
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


def run_suite(name: str, seed: int, trials: int,
              tol: dict[str, float] | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them for name == "all".

    Results are sorted by check name so reports are deterministic.
    """
    if name == "all":
        checks: list[CheckResult] = []
        for suite in SUITES.values():
            checks.extend(suite(seed, trials, tol))
        return sorted(checks, key=lambda c: c.name)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)} or 'all'")
    return sorted(SUITES[name](seed, trials, tol), key=lambda c: c.name)
