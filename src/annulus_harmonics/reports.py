"""Verification criteria and the named suites that run them.

A check is one checkable statement of the paper's argument, declared once,
as the row of CHECKS under its report name: the statement, the tolerance (a
`DEFAULT_TOLERANCES` key, which a `--tol-*` flag overrides, or a fixed
number that no flag changes) and the gate, the largest residual/tolerance
(`gate_ratio`) that the seed sweep `sweep` accepts.  A criterion, coded once
as a function `criterion(plan, tol) -> list[CheckResult]`, draws what it
needs, runs an independent numerical comparison (closed form against
quadrature, or a positivity scan over a grid) and hands each of its checks
the residuals to `_check`, which reads the statement and the tolerance from
the check's row; `tol` is the full tolerance table (`DEFAULT_TOLERANCES`
with any overrides).  The quadratures run on the one fixed policy of the
quadrature module, so the tolerances are the only numbers a caller can
change.  A criterion returns several checks when they share draws, so no
draw is evaluated twice.

`plan` is a `DrawPlan`: the seed and the number of trials (the
criterion's outer draws, as a rule one series each).  Each criterion draws
from its own generator,
`np.random.default_rng((plan.seed, k))` with k fixed per criterion, so no
criterion's draws depend on another's.  Criteria on fixed grids and closed
forms ignore the plan.  The draw ranges are constants of each criterion.

A criterion first makes all of its draws, with the bits a draw-by-draw
loop would give them, and then evaluates them in batches: the drawn series
form a SeriesStack (random_series_stack or random_conformal_perturbation;
each member has the coefficients of np.random.default_rng of its own seed:
sampling._streams hashes the whole stack's seeds in one vectorized pass and
draws each member's stream with numpy's PCG64), evaluated in chunks of
SERIES_PER_CHUNK (64) members, with the per-draw parameters as arrays.
The criteria on tame random series draw through _draws: per trial the
series' order and seed first, then each parameter in the order given.  It
decodes a criterion's draws from one raw block of its generator, with the
bits of that per-trial loop: an order by Lemire's method from PCG64's 32-bit
half-words, a seed and each uniform from a whole word.  A trial that
Lemire's method would redraw (a chance of at most 13 in 2**32 per trial on
the order ranges used) sends the whole criterion back to the loop, from the
generator's state before the block, so no bit depends on the decode.  The
conformal refinement's seeds are one raw word each, shifted right by 2, as
Generator.integers(2**62) draws them.
The circle identities (C02) take a chunk's 3 circles per member and 10
lambdas per circle in one identity_residuals_stack call; it still
evaluates each circle with its own circle_fields call (a single batched
circle_grid_fields call per chunk would be faster, but the benchmark's
tracer counts one circle_fields call per circle).  The per-mode form
(C07a) integrates its 24 single-mode series as a stack, one mode and one R
per member.  The conformal refinement (C09) proves each draw injective
from its coefficients (bounds.conformal_injectivity_margin); schottky_check
samples the draws that proof misses with the injectivity probe, and the
criterion probes the certified draws among the first SPOT_CHECK_DRAWS (16)
as well, as a spot check of the proof, so the evidence does not depend on
the chunk size.  A criterion hands each check its residuals (numbers and
arrays, one per draw, chunk or grid) and `_check` alone reduces them,
NaN-keeping, so a NaN in any draw fails its check.

The suites behind `verify` call their criteria with DrawPlan(seed, trials);
the acceptance tests call the same criteria with pinned plans of their own,
so the same functions back both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    identity_residuals_stack,
    k_endpoint,
    k_functional,
    k_quadrature,
)
from .quadrature import enclosed_area
from .sampling import (
    SamplerConfig,
    _MASK32,
    injectivity_probe,
    normalize_inner,
    random_conformal_perturbation,
    random_series_stack,
)
from .series import SeriesStack, _require_int, extremal_map

E = math.e
E32 = math.exp(1.5)
EXTREMAL_LAMS = (-0.9, -0.5, 0.0, 0.5, 1.0)

# Most trials a DrawPlan takes, 100 times verify's default: the criteria hold
# all of their draws at once, so a larger count is refused before any draw.
MAX_TRIALS = 10_000

# Draws whose coefficient certificate conformal_refinement also checks with
# the sampled injectivity probe: the certified ones among the first 16, the
# same evidence at any SERIES_PER_CHUNK.
SPOT_CHECK_DRAWS = 16

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


class Check(NamedTuple):
    """The declaration of one check: what it states, its tolerance (a
    DEFAULT_TOLERANCES key, or a fixed number that no flag changes) and its
    gate, the largest gate_ratio that the seed sweep (`sweep`) accepts."""

    statement: str
    tolerance: str | float
    gate: float


# Every check of `verify`, under its report name.  A gate sits far below the
# tolerance, so a check drifting toward its tolerance fails the sweep of
# seeds 0-59 first.  A gate is 10 times the worst ratio on those seeds when
# it was set (in brackets), rounded up to 1, 2 or 5 x 10^k but at most 0.5,
# or 1e-2 for a check that read 0 then; except 1e-2 for the radial-quadrature
# checks (1.3e-3 at most when set), where a weakened quadrature bound shows
# long before a tolerance is reached, and for the circle checks (1.4e-4 at
# most), where a circle rule too short to be exact aliases at O(1); and 0.1
# for inner-area-limit, the one check taken by the scalar enclosed_area.
CHECKS: dict[str, Check] = {
    "extremal-annihilation": Check(
        "L_lam applied to the quadratic mean of h^lam vanishes on (1, e^1.5]",
        "annihilation", 0.2),  # [1.53e-2]
    "gradient-form-identity": Check(
        "L_lam[U] equals 2*mean(|Dh|^2 - radial flux of the weighted square)",
        "identity", 1e-2),  # circle
    "angular-form-identity": Check(
        "L_lam[U] equals (2/rho^2)*mean(|h_theta|^2 - |h|^2 + stretched square)",
        "identity", 1e-2),  # circle
    "divergence-form-agreement": Check(
        "direct and divergence forms of L_lam agree to O(step^4) (Richardson)",
        "divergence", 5e-3),  # [4.08e-4]
    "variance-floor": Check(
        "L_lam applied to the variance is nonnegative on the grid",
        "subsolution", 1e-2),  # read 0
    "mode-chain": Check(
        "(2/rho^2) sum (n^2-1) U_n is a lower bound for L_lam[V]",
        "mode_chain", 1e-2),  # read 0
    "variance-deriv2-positive": Check(
        "termwise second derivative of the variance is nonnegative",
        0.0, 1e-2),  # read 0
    "variance-deriv2-match": Check(
        "termwise second derivative matches the profile derivative",
        "deriv2_match", 5e-3),  # [4.44e-4]
    "equality-family": Check(
        "L_lam annihilates the variance of log + rotated-extremal series",
        "equality_family", 0.5),  # [0.225], capped
    "endpoint-match": Check(
        "weighted integral of L_lam[U] equals its endpoint closed form",
        "endpoint_rel", 1e-2),  # radial
    "extremal-zero": Check(
        "the weighted integral vanishes for the extremal maps",
        "extremal_k", 1e-2),  # radial
    "mode-form": Check(
        "per-mode weighted integral matches the A/B/C quadratic form",
        "mode_form", 1e-2),  # radial
    "variance-lower-bound": Check(
        "K_1[V] dominates (R^2-1) times the mode energy excess for R > e",
        "variance_k", 1e-2),  # radial
    "inner-circle-identity": Check(
        "inner-circle boundary data equals the mode energy excess",
        "boundary", 1e-2),  # circle
    "inner-area-limit": Check(
        "enclosed area of the critical map tends to pi at the inner circle",
        "area_limit", 0.1),  # [3.1e-2]
    "wide-certificate-positive": Check(
        "the wide-annulus sign certificate is positive on [e, e^1.5]",
        "certificate", 1e-2),  # read 0
    "wide-certificate-endpoints": Check(
        "certificate endpoints match their explicit exponential forms",
        "certificate", 2e-2),  # [1.57e-3]
    "wide-certificate-concavity": Check(
        "the R^-4-scaled certificate is concave for R >= e",
        1e-6, 1e-2),  # read 0
    "mode-certificate-positive": Check(
        "the per-mode determinant certificate is positive on [2,50]x[e,10]",
        0.0, 1e-2),  # read 0
    "mode-certificate-expansion": Check(
        "definition and expanded polynomial form of the certificate agree",
        "certificate_rel", 1e-8),  # [7.4e-10]
    "mode-certificate-n2-factored": Check(
        "at n = 2 the certificate matches its factored form",
        "certificate_rel", 5e-9),  # [4.2e-10]
    "mode-certificate-monotone": Check(
        "the certificate increases and is convex in n >= 2 for R >= e",
        "certificate", 1e-2),  # read 0
    "gz-weight-positive": Check(
        "the conformal-part weight is nonnegative on 1 <= rho <= R",
        "weight", 1e-2),  # read 0
    "gzbar-gate-samples": Check(
        "the anticonformal gate margin matches its known sample values",
        "weight", 1e-2),  # read 0
    "bound-ordering": Check(
        "weitsman <= kalaj <= nitsche on (1, 20]",
        "ordering", 1e-2),  # read 0
    "probes-applicable": Check(
        "every sampled conformal series meets the preconditions and is "
        "certified injective or passes the sampled probe; the certified "
        f"draws among the first {SPOT_CHECK_DRAWS} pass the probe too",
        0.0, 1e-2),  # read 0
    "injectivity-certified": Check(
        "the coefficient certificate (pi/2) L < 1 proves every applicable "
        "draw injective on the closed annulus",
        0.0, 1e-2),  # read 0
    "outer-radius-bound": Check(
        "mean outer radius of a normalized conformal map is at least R",
        "schottky_radius", 1e-2),  # read 0
    "area-bound": Check(
        "image area is at least the area pi (R^2 - 1) of the annulus",
        "schottky_area", 1e-2),  # read 0
    "mode-sum-bound": Check(
        "sum |a_n|^2 (R^2n - 1) over n != 0 is at least R^2 - 1",
        "schottky_radius", 1e-2),  # read 0
    "unit-initial-speed": Check(
        "conformal evolutions with unit boundary modulus start at speed 1",
        "schottky_speed", 2e-6),  # [1.15e-7]
}


def gate_ratio(residual: float, tolerance: float) -> float:
    """residual/tolerance, the share of its tolerance a check used, which
    its gate bounds: at tolerance 0, 0 for a zero residual and inf
    otherwise; inf for a NaN residual."""
    if tolerance == 0:
        return 0.0 if residual == 0 else math.inf
    ratio = residual / tolerance
    return math.inf if math.isnan(ratio) else ratio


@dataclass(frozen=True)
class CheckResult:
    """One verified statement with its measured residual."""

    name: str
    statement: str
    residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        # the fields in order; each is an immutable scalar, so the deep copy
        # of dataclasses.asdict would only cost time
        return dict(vars(self))


def digest(checks) -> str:
    """The SHA-256 (hex) of the checks in the order given, each as the UTF-8
    of repr((name, statement, residual.hex(), tolerance, passed)): the
    report's bits in one string.  The checks of a seed range are those of
    run_suite for each seed in turn; tests/report_digests.json holds the
    committed ones."""
    import hashlib  # on first use: a command that draws nothing would pay ~2 ms for it

    sha = hashlib.sha256()
    for c in checks:
        sha.update(repr((c.name, c.statement, c.residual.hex(), c.tolerance,
                         c.passed)).encode())
    return sha.hexdigest()


def digest_environment() -> dict:
    """What sets a digest's bits, as tests/report_digests.json records it:
    the Python and numpy versions, the machine and the CPU features numpy
    dispatches its loops on (its AVX-512 exp and log round apart), not the
    kernel release."""
    import platform

    from numpy._core import _multiarray_umath as umath

    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_features": [f for f in (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
                             if umath.__cpu_features__.get(f)]}


class Sweep(NamedTuple):
    """The judgement of run_suite("all", seed, trials) over a range of
    seeds: `worst` maps each check returned to its worst gate_ratio and the
    first seed at it, `failed` lists the seeds with a failed check,
    `above_gate` the CHECKS rows above their gate or never returned, and
    `digests` and `digest` are the per-seed and whole-range digests."""

    worst: dict[str, tuple[float, int]]
    failed: list[int]
    above_gate: list[str]
    digests: list[str]
    digest: str


def sweep(seeds, trials: int) -> Sweep:
    """One pass of run_suite("all", seed, trials) per seed, judged against
    the gates of CHECKS (a NaN residual ranks as inf): CI's seed sweep and
    tier-1's gate and digest tests."""
    runs = [(seed, run_suite("all", seed, trials)) for seed in seeds]
    worst: dict[str, tuple[float, int]] = {}
    for seed, checks in runs:
        for c in checks:
            ratio = gate_ratio(c.residual, c.tolerance)
            if c.name not in worst or ratio > worst[c.name][0]:
                worst[c.name] = (ratio, seed)
    return Sweep(
        worst,
        [seed for seed, checks in runs if not all(c.passed for c in checks)],
        [name for name, row in CHECKS.items()
         if not (name in worst and worst[name][0] <= row.gate)],
        [digest(checks) for _, checks in runs],
        digest(c for _, checks in runs for c in checks))


@dataclass(frozen=True)
class DrawPlan:
    """The draws a criterion makes: `trials` outer draws (1..MAX_TRIALS)
    from generators seeded with (seed, k)."""

    seed: int
    trials: int

    def __post_init__(self) -> None:
        _require_int(self.seed, "seed")
        _require_int(self.trials, "trials", 1, MAX_TRIALS)


def _check(name: str, residuals, tol: dict[str, float]) -> CheckResult:
    """The check CHECKS[name] (KeyError for a name with no row), whose
    residual is the largest entry of `residuals` (numbers and arrays of any
    shape), clamped at 0, or NaN if any entry is NaN; 0 if there are no
    entries.  Its tolerance is its row's fixed number, or `tol` at its
    row's key.

    This is the one place a check's residual is reduced.  np.max keeps a
    NaN, where Python's max drops one that is not its first argument
    (max(0.0, nan) is 0.0), and a non-finite residual never passes.
    """
    statement, tolerance, _ = CHECKS[name]
    if isinstance(tolerance, str):
        tolerance = tol[tolerance]
    flat = np.concatenate([np.zeros(0), *(np.ravel(r) for r in residuals)])
    residual = float(np.max(flat, initial=0.0)) + 0.0  # + 0.0 turns -0.0 into 0.0
    return CheckResult(name, statement, residual, tolerance,
                       math.isfinite(residual) and residual <= tolerance)


def _rng(plan: DrawPlan, k: int) -> np.random.Generator:
    return np.random.default_rng((plan.seed, k))


def _draw_config(rng: np.random.Generator, n_lo: int, n_hi: int,
                 decay: float) -> SamplerConfig:
    """The sampler config of a tame random series of order drawn from
    n_lo..n_hi; its coefficients come from a generator of their own, seeded
    from `rng`."""
    N = int(rng.integers(n_lo, n_hi + 1))
    return SamplerConfig(seed=int(rng.integers(2**62)), N=N, decay=decay)


def _draw_loop(rng: np.random.Generator, trials: int, orders: tuple[int, int],
               decay: float, params: tuple) -> tuple:
    """The seeds, the orders and one array per spec of `params`, drawn per
    trial: the config (_draw_config), then one rng.uniform(low, high[,
    shape]) per spec, in that order."""
    configs, drawn = [], [[] for _ in params]
    for _ in range(trials):
        configs.append(_draw_config(rng, *orders, decay))
        for spec, values in zip(params, drawn):
            values.append(rng.uniform(*spec))
    return ([cfg.seed for cfg in configs], np.array([cfg.N for cfg in configs]),
            [np.array(values) for values in drawn])


def _lemire_redraws(halves: np.ndarray, span: int) -> bool:
    """Whether Lemire's method, drawing one of `span` values from each
    32-bit word of `halves`, rejects any of them: numpy's integers then
    draws again, and every later draw moves."""
    return bool(((halves * np.uint64(span) & _MASK32) < (2**32 - span) % span).any())


def _decode(bit_generator, trials: int, orders: tuple[int, int],
            params: tuple) -> tuple | None:
    """What _draw_loop draws from a generator on `bit_generator`, decoded
    from one random_raw block, or None where one block cannot give the
    loop's bits: a half-word already buffered, or a trial whose order
    Lemire's method would redraw (the generator then stands past the block).

    The loop's stream, word by word: an order (integers on a range below
    2**32) takes 32 bits by Lemire's method from PCG64's buffered half-words,
    the low half of a fresh word on even trials and its buffered high half
    on odd ones, and nothing from a one-value range; a seed (integers(2**62))
    is one word shifted right by 2, which never redraws; a uniform is
    low + (high - low) (word >> 11) 2**-53, as in Generator.uniform.  The
    generator is left as the loop leaves it, with numpy's buffer state: its
    last high half stays in `uinteger` after it is used."""
    if bit_generator.state["has_uint32"]:
        return None
    lo, hi = orders
    span = hi - lo + 1
    shapes = [np.broadcast_shapes(*spec[2:]) for spec in params]
    ends = np.cumsum([1] + [math.prod(shape) for shape in shapes])
    width = int(ends[-1])  # the seed, then the uniforms
    fresh = (trials + 1) // 2 if span > 1 else 0
    raw = bit_generator.random_raw(trials * width + fresh)
    # the fresh word of trial 2m opens its block, after 2m blocks and m words
    at = np.arange(fresh) * (2 * width + 1)
    block = np.delete(raw, at).reshape(trials, width)
    if span > 1:
        words = raw[at]
        halves = np.stack([words & _MASK32, words >> 32], axis=-1).ravel()[:trials]
        if _lemire_redraws(halves, span):
            return None
        ns = (lo + (halves * np.uint64(span) >> 32)).astype(np.int64)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = trials % 2, int(words[-1] >> 32)
        bit_generator.state = state
    else:
        ns = np.full(trials, lo)
    u = (block >> 11) * 2.0**-53
    arrays = [low + (high - low) * u[:, start:end].reshape(trials, *shape)
              for (low, high, *_), shape, start, end in zip(params, shapes, ends, ends[1:])]
    return (block[:, 0] >> 2).tolist(), ns, arrays


def _draws(rng: np.random.Generator, trials: int, orders: tuple[int, int],
           decay: float, *params: tuple):
    """Per trial the config of a tame random series (_draw_config), then
    one rng.uniform(low, high[, shape]) per spec of `params`, in that order;
    yields each chunk of the drawn stack with its rows of every parameter.

    The draws are decoded from one raw block of the generator (_decode), with
    the bits and the final generator state of the per-trial loop
    (_draw_loop); where the decode cannot give them, the generator is
    restored and the loop draws instead, so no bit depends on the decode."""
    start = rng.bit_generator.state
    drawn = _decode(rng.bit_generator, trials, orders, params)
    if drawn is None:
        rng.bit_generator.state = start
        drawn = _draw_loop(rng, trials, orders, decay, params)
    seeds, ns, arrays = drawn
    for rows, h in random_series_stack(seeds, ns, decay).chunks():
        yield (h, *(a[rows] for a in arrays))


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def extremal_annihilation(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    grid = np.linspace(1.0, E32, 502)[1:]
    residuals = [np.abs(LambdaOperator(lam).apply(
        quadratic_mean_profile(extremal_map(lam)), grid)) for lam in EXTREMAL_LAMS]
    return [_check("extremal-annihilation", residuals, tol)]


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
        _check("gradient-form-identity", grad, tol),
        _check("angular-form-identity", ang, tol),
    ]


def divergence_form(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    residuals = [LambdaOperator(lams).divergence_form_residual(quadratic_mean_profile(h), rhos)
                 for h, lams, rhos in _draws(_rng(plan, 2), plan.trials, (4, 16), 0.2,
                                             (-0.5, 1.0), (1.2, 3.0))]
    return [_check("divergence-form-agreement", residuals, tol)]


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
        _check("variance-floor", floor_deficit, tol),
        _check("mode-chain", chain_excess, tol),
        _check("variance-deriv2-positive", d2_deficit, tol),
        _check("variance-deriv2-match", d2_mismatch, tol),
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
    return [_check("equality-family", residuals, tol)]


def endpoint_identity(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    residuals = []
    for h, lams, Rs in _draws(_rng(plan, 5), plan.trials, (2, 10), 0.2,
                              (-0.95, 1.0), (1.05, E32)):
        U = quadratic_mean_profile(h)
        ke = k_endpoint(U, lams, Rs)
        kq = k_functional(U, lams, Rs)
        residuals.append(np.abs(kq - ke) / (1.0 + np.abs(ke)))
    return [_check("endpoint-match", residuals, tol)]


def extremal_k_zero(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check("extremal-zero", [abs(k_quadrature(extremal_map(lam), lam, 2.5))
                                     for lam in EXTREMAL_LAMS], tol)]


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
    return [_check("mode-form", residuals, tol)]


def variance_lower_bound(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """One draw per two trials: each draw is one Gauss-Legendre rule of
    K_1[V], sized by the proved bound of quadrature.radial_integrate."""
    residuals = []
    for h, Rs in _draws(_rng(plan, 7), max(1, plan.trials // 2), (2, 6), 0.2,
                        (E + 1e-9, E32)):
        lhs, rhs = bnd.variance_k_bound(h, Rs)
        residuals.append(rhs - lhs)
    return [_check("variance-lower-bound", residuals, tol)]


def inner_circle_identity(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check("inner-circle-identity", [
        bnd.inner_circle_identity_residual(h)
        for h, in _draws(_rng(plan, 8), plan.trials, (10, 10), 0.4)], tol)]


def inner_area_limit(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    return [_check("inner-area-limit",
                   [abs(enclosed_area(extremal_map(1.0), 1.0 + 1e-5) - math.pi)], tol)]


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
        _check("wide-certificate-positive", [-cert(np.linspace(E, E32, 1000))], tol),
        _check("wide-certificate-endpoints", endpoint_res, tol),
        _check("wide-certificate-concavity", [fd2], tol),
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
        _check("mode-certificate-positive", [-vals], tol),
        _check("mode-certificate-expansion", [expand_rel], tol),
        _check("mode-certificate-n2-factored", [n2_rel], tol),
        _check("mode-certificate-monotone", [-diffs, -np.diff(diffs, axis=-1)], tol),
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
        _check("gz-weight-positive", [weight_deficit], tol),
        _check("gzbar-gate-samples", gate_res, tol),
    ]


def bound_ordering(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    violation = []
    for R in np.linspace(1.001, 20.0, 400).tolist():  # floats skip the number rule
        w, k, n = bnd.weitsman_bound(R), bnd.kalaj_bound(R), bnd.nitsche_bound(R)
        violation.append((w - k, k - n))
    # one (400, 2) array: _check ravels each entry it is given, one call per entry
    return [_check("bound-ordering", [np.array(violation)], tol)]


def conformal_refinement(plan: DrawPlan, tol: dict[str, float]) -> list[CheckResult]:
    """Schottky's conformal refinement on A(1, 2).  `schottky_check` proves
    injectivity from the coefficients and runs the sampled injectivity
    probe only on draws it cannot certify; the certified draws among the
    first SPOT_CHECK_DRAWS are probed here as well, as a spot check of the
    certificate, so every report carries sampled evidence whatever the
    chunk size."""
    rng = _rng(plan, 9)
    R = 2.0
    # the seeds of integers(2**62) per trial: Lemire's method on a power of
    # two takes one word shifted right by 2 and never redraws
    seeds = rng.bit_generator.random_raw(plan.trials) >> 2
    stack = random_conformal_perturbation(seeds.tolist())
    failed, radius_deficit, area_deficit, mode_deficit, speed_dev = [], [], [], [], []
    certificate_gap = []
    for rows, h in stack.chunks():
        report = bnd.schottky_check(h, R)
        ok = report.applicable & report.windings_ok & (report.jacobian_min > 0.0)
        spot = ((report.injectivity_margin > 0.0)
                & (np.arange(rows.start, rows.start + len(h)) < SPOT_CHECK_DRAWS))
        if spot.any():
            probe = injectivity_probe(h[spot], R)
            ok[spot] &= probe.windings_ok & (probe.jacobian_min > 0.0)
        failed.append(~ok)
        certificate_gap.append(-report.injectivity_margin[report.applicable])
        radius_deficit.append(-(report.mean_radius[ok] - R))
        area_deficit.append(-(report.area[ok] - report.area_bound))
        mode_deficit.append(-report.mode_sum_margin[ok])
        speed_dev.append(np.abs(initial_speed(normalize_inner(h[ok])) - 1.0))
    return [
        _check("probes-applicable", failed, tol),
        _check("injectivity-certified", certificate_gap, tol),
        _check("outer-radius-bound", radius_deficit, tol),
        _check("area-bound", area_deficit, tol),
        _check("mode-sum-bound", mode_deficit, tol),
        _check("unit-initial-speed", speed_dev, tol),
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
