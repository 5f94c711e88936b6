"""The benchmark's workloads: set-up inputs, one op each, and per-op oracles.

Every workload hands the program only inputs generated here from the
workload seed.  Ops call the package through module attributes
(`operators.identity_residuals`, not a name imported from it), so the
tracer's rebinding reaches them.  Oracles never use the package's own
formulas: the closed forms below are computed from the coefficients that
`to_json_dict` exposes, whose format is part of the package's interface.

An op fails when it raises, when any value it returns is NaN or inf, or
when a check misses its tolerance.  It is *silent* when the program claims
success for a result the oracle rejects; a silent op makes the run
incorrect.  `verify-sweep` reports a verdict of its own, so there an op is
silent only when that verdict disagrees with the oracle (a check reported
as passed whose residual is not finite or over tolerance, or an exit code
that disagrees with the report).  The other workloads' programs return
bare numbers, which claim to be right: every failed op there is silent
(`REPORTS_VERDICT` is false).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from annulus_harmonics import bounds, cli, means, operators, quadrature, sampling
from annulus_harmonics import series as series_mod

E = math.e
E32 = math.exp(1.5)


@dataclass(frozen=True)
class Verdict:
    failed: bool
    silent: bool = False
    reason: str = ""


PASS = Verdict(False)


def _fail(reason: str, silent: bool = False) -> Verdict:
    return Verdict(True, silent, reason)


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=np.complex128)
    return bool(np.all(np.isfinite(arr)))


@dataclass(frozen=True)
class Coeffs:
    """The benchmark's own copy of a series: mode numbers and coefficients."""

    ns: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a0: complex
    b0: complex

    @classmethod
    def of(cls, h) -> "Coeffs":
        d = series_mod.to_json_dict(h)

        def pairs(key: str) -> np.ndarray:
            return np.array([complex(*p) for p in d[key]], dtype=np.complex128)

        N = d["N"]
        pos = np.arange(1, N + 1, dtype=np.float64)
        return cls(
            ns=np.concatenate([pos, -pos]),
            a=np.concatenate([pairs("a_pos"), pairs("a_neg")]),
            b=np.concatenate([pairs("b_pos"), pairs("b_neg")]),
            a0=complex(*d["a0"]), b0=complex(*d["b0"]),
        )

    def modes_at(self, rho: float) -> np.ndarray:
        """Fourier coefficients c_n = a_n rho^n + b_n rho^-n on C_rho."""
        return self.a * rho**self.ns + self.b * rho ** (-self.ns)

    def mean(self, rho: float) -> complex:
        return self.a0 * math.log(rho) + self.b0

    def quadratic_mean(self, rho: float) -> float:
        """U(rho) = sum |c_n|^2 + |a0 log rho + b0|^2 (Parseval)."""
        return float(np.sum(np.abs(self.modes_at(rho)) ** 2)) + abs(self.mean(rho)) ** 2

    def magnitude(self, rho: float) -> float:
        """Scale of the terms summed in U(rho), for relative tolerances."""
        return (float(np.sum(np.abs(self.a) ** 2 * rho ** (2 * self.ns)
                             + np.abs(self.b) ** 2 * rho ** (-2 * self.ns)))
                + abs(self.mean(rho)) ** 2)

    def enclosed_area(self, rho: float) -> float:
        """pi * sum n |c_n|^2, the mean of Im(conj(h) h_theta) times pi."""
        return math.pi * float(np.sum(self.ns * np.abs(self.modes_at(rho)) ** 2))

    def dirichlet_energy(self, rho1: float, rho2: float) -> float:
        """Closed form of the energy of h on rho1 < |z| < rho2:

        2 pi sum_{n != 0} n [|a_n|^2 (rho2^2n - rho1^2n)
                             - |b_n|^2 (rho2^-2n - rho1^-2n)]
        + 2 pi |a0|^2 log(rho2 / rho1).
        """
        n = self.ns
        modes = n * (np.abs(self.a) ** 2 * (rho2 ** (2 * n) - rho1 ** (2 * n))
                     - np.abs(self.b) ** 2 * (rho2 ** (-2 * n) - rho1 ** (-2 * n)))
        return 2.0 * math.pi * (float(np.sum(modes))
                                + abs(self.a0) ** 2 * math.log(rho2 / rho1))


def block_count(seconds: float, block_s: float) -> int:
    """Blocks in a run of `seconds`: one per `block_s` of it, `block_s`
    being set from a block's time at the commit that added the benchmark.
    A run does a fixed amount of work
    whatever the host's or the program's speed, so every run of a given
    length has the same ops and the same count of failed ops, and a faster
    program shows as a shorter run."""
    return max(1, math.ceil(seconds / block_s))


def _sample(seed: int, N: int, decay: float):
    return sampling.random_series(sampling.SamplerConfig(seed=int(seed), N=N, decay=decay))


class VerifySweep:
    """The user's canonical job: `verify all --trials 100` on consecutive
    seeds, the JSON report parsed back.  No seed is skipped.

    A block is one seed.  A run of K blocks verifies the seeds 0 .. K-1,
    in consecutive order from the workload seed modulo K, wrapping around,
    so runs with different workload seeds fail on the same count of ops.
    An op takes about 1.05 s at the commit that added the benchmark;
    `BLOCK_S` is shorter so that a 20-second run has 25 ops and its tail
    (the 11th-slowest op) is not its median."""

    name = "verify-sweep"
    REPORTS_VERDICT = True
    TRIALS = "100"
    BLOCK_S = 0.8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def seeds(self, seconds: float) -> list[int]:
        count = block_count(seconds, self.BLOCK_S)
        return [(self.seed + i) % count for i in range(count)]

    def blocks(self, seconds: float):
        return [[s] for s in self.seeds(seconds)]

    def warm_up(self) -> None:
        self._verify(0, "2")

    @staticmethod
    def _verify(seed: int, trials: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "all", "--seed", str(seed), "--trials", trials])
        return rc, buf.getvalue()

    def run(self, seed: int):
        return self._verify(seed, self.TRIALS)

    def check(self, seed: int, out) -> Verdict:
        rc, text = out
        try:
            report = json.loads(text)
            checks = report["checks"]
            claimed = bool(report["all_passed"])
        except (ValueError, KeyError, TypeError):
            return _fail(f"exit {rc} without a report")
        bad = [c["name"] for c in checks
               if not (math.isfinite(c["residual"]) and c["residual"] <= c["tolerance"])]
        silent = (
            any(c["passed"] for c in checks if c["name"] in bad)
            or claimed != all(c["passed"] for c in checks)
            or (rc == cli.EXIT_PASS) != claimed
        )
        if bad or not claimed or rc != cli.EXIT_PASS:
            return _fail(",".join(bad) or f"exit {rc}", silent)
        return _fail("report inconsistent", True) if silent else PASS


class _SeriesPool:
    """Series drawn at set-up in blocks of fixed sizes `BLOCK_N`, each block
    in a seeded order.  Ops cycle through the pool block by block, with
    fresh parameters drawn for every block."""

    REPORTS_VERDICT = False
    BLOCK_N: tuple[int, ...]
    BLOCK_S: float
    POOL_BLOCKS: int
    WARM_N: tuple[int, ...]
    DECAY = 0.2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.pool = []
        for _ in range(self.POOL_BLOCKS):
            order = rng.permutation(len(self.BLOCK_N))
            seeds = rng.integers(0, 2**62, size=len(order))
            block = []
            for j, s in zip(order, seeds):
                h = _sample(s, self.BLOCK_N[j], self.DECAY)
                block.append((h, Coeffs.of(h), self.BLOCK_N[j]))
            self.pool.append(block)

    def _item(self, h, coeffs, N, rng):
        raise NotImplementedError

    def blocks(self, seconds: float):
        for b in range(block_count(seconds, self.BLOCK_S)):
            rng = np.random.default_rng([self.seed, 2, b])
            yield [self._item(h, c, N, rng) for h, c, N in self.pool[b % self.POOL_BLOCKS]]

    def warm_up(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        for N in self.WARM_N:
            h = _sample(rng.integers(0, 2**62), N, self.DECAY)
            self.run(self._item(h, None, N, rng))


class CircleDense(_SeriesPool):
    """The C02 pattern plus circle means and one energy per series, with N
    in {4, 16, 64, 128}: the M x 2N phase table ranges from 32 KiB to past
    the per-core L2.  Every op is one series; each (series, rho) is used by
    10 lambdas."""

    name = "circle-dense"
    # One block: 1 x N=128, 3 x 64, 8 x 16, 4 x 4, in a seeded order.  The
    # median op sits in the middle of the N=16 ops and, from three blocks
    # on, the 11th-slowest op (the tail) is one of the N=64 ops.
    BLOCK_N = (128,) + (64,) * 3 + (16,) * 8 + (4,) * 4
    BLOCK_S = 4.5
    POOL_BLOCKS = 16
    WARM_N = (4, 16)
    TOL_IDENTITY = 1e-9
    TOL_QUAD_REL = 1e-12
    TOL_CIRCLE = 1e-12
    TOL_ENERGY_REL = 1e-9

    def _item(self, h, coeffs, N, rng):
        rho1 = float(rng.uniform(1.02, 2.5))
        return (h, coeffs,
                [float(x) for x in rng.uniform(-0.95, 1.0, size=10)],
                [float(x) for x in rng.uniform(1.02, E32, size=10)],
                rho1, rho1 * math.exp(float(rng.uniform(0.2, 0.5))))

    def run(self, item):
        h, _, lams, rhos, rho1, rho2 = item
        identities = [operators.identity_residuals(h, lam, rho)
                      for lam in lams for rho in rhos]
        rho = rhos[0]
        return (identities,
                quadrature.circular_mean(h, rho),
                quadrature.quadratic_mean_numeric(h, rho),
                quadrature.enclosed_area(h, rho),
                quadrature.dirichlet_energy(h, rho1, rho2))

    def check(self, item, out) -> Verdict:
        _, c, _, rhos, rho1, rho2 = item
        identities, mean, quad_mean, area, energy = out
        rho = rhos[0]
        if not _finite([*itertools.chain.from_iterable(identities),
                        mean, quad_mean, area, energy]):
            return _fail("non-finite output")
        if max(max(pair) for pair in identities) > self.TOL_IDENTITY:
            return _fail("identity-residual")
        scale = c.magnitude(rho)
        if abs(mean - c.mean(rho)) > self.TOL_CIRCLE * (1.0 + math.sqrt(scale)):
            return _fail("circular-mean")
        u = c.quadratic_mean(rho)
        if abs(quad_mean - u) > self.TOL_QUAD_REL * u:
            return _fail("quadratic-mean-numeric")
        if abs(area - c.enclosed_area(rho)) > self.TOL_CIRCLE * (1.0 + math.pi * scale):
            return _fail("enclosed-area")
        ref = c.dirichlet_energy(rho1, rho2)
        if abs(energy - ref) > self.TOL_ENERGY_REL * (1.0 + abs(ref)):
            return _fail("dirichlet-energy")
        return PASS


class RadialProfileWorkload(_SeriesPool):
    """Closed-form radial profiles and radial quadrature, N <= 12: the K
    functional against its endpoint form, the per-mode quadratic forms, the
    variance estimate, the variance subsolution scan and a profile
    tabulation.  Never evaluates a series on a circle."""

    name = "radial-profile"
    BLOCK_N = tuple(range(1, 13))
    BLOCK_S = 0.17
    POOL_BLOCKS = 32
    WARM_N = (12,)
    GRID = np.linspace(1.01, 5.0, 200)
    TAB_STEPS = 50
    TOL_ENDPOINT_REL = 1e-6   # C03
    TOL_MODE_FORM = 1e-6      # C07a
    TOL_VARIANCE_K = 1e-6     # C07b
    TOL_SUBSOLUTION = 1e-10   # C04
    TOL_PROFILE_REL = 1e-12

    def _item(self, h, coeffs, N, rng):
        pairs = [(float(lam), float(R)) for lam, R in
                 zip(rng.uniform(-0.95, 1.0, size=10), rng.uniform(1.05, E32, size=10))]
        R_tab = float(rng.uniform(1.5, E32))
        radii = [1.0 + (R_tab - 1.0) * i / self.TAB_STEPS
                 for i in range(1, self.TAB_STEPS + 1)]
        return (h, coeffs, N, pairs, float(rng.uniform(E, E32)),
                float(rng.uniform(E + 1e-6, E32)), float(rng.uniform(-0.9, 1.0)), radii)

    def run(self, item):
        h, _, N, pairs, R_mode, R_var, lam_sub, radii = item
        k_pairs = [(operators.k_quadrature(h, lam, R), operators.k_endpoint(h, lam, R))
                   for lam, R in pairs]
        mode_forms = [bounds.mode_quadratic_form_residual(h, n, R_mode)
                      for n in range(1, N + 1)]
        variance_k = bounds.variance_k_bound(h, R_var)
        floor = operators.variance_subsolution_min(h, lam_sub, self.GRID)
        U = means.quadratic_mean_profile(h)
        table = [(float(U.value(r)), float(U.deriv1(r)), float(U.deriv2(r)))
                 for r in radii]
        return k_pairs, mode_forms, variance_k, floor, table

    def check(self, item, out) -> Verdict:
        _, c, _, _, _, _, _, radii = item
        k_pairs, mode_forms, (k_lhs, k_rhs), floor, table = out
        if not _finite([*itertools.chain.from_iterable(k_pairs), *mode_forms,
                        k_lhs, k_rhs, floor, *itertools.chain.from_iterable(table)]):
            return _fail("non-finite output")
        if max(abs(kq - ke) / (1.0 + abs(ke)) for kq, ke in k_pairs) > self.TOL_ENDPOINT_REL:
            return _fail("endpoint-match")
        if max(mode_forms) > self.TOL_MODE_FORM:
            return _fail("mode-form")
        if k_rhs - k_lhs > self.TOL_VARIANCE_K:
            return _fail("variance-lower-bound")
        if floor < -self.TOL_SUBSOLUTION:
            return _fail("variance-floor")
        for r, (value, _, _) in zip(radii, table):
            if abs(value - c.quadratic_mean(r)) > self.TOL_PROFILE_REL * (1.0 + c.magnitude(r)):
                return _fail("profile-value")
        return PASS


WORKLOADS = {w.name: w for w in (VerifySweep, CircleDense, RadialProfileWorkload)}
