"""Deterministic test-series generation, normalization and probes.

The stream contract: a drawn series (`random_series`, a member of
`random_series_stack` or of `random_conformal_perturbation`) takes its
uniforms from np.random.default_rng(seed) of its own seed, in the order its
docstring gives, so a draw depends on its seed alone and never on the other
members of its stack.  `random_series` makes that generator; the stacks
compute the same doubles for all their seeds at once with `_streams`: a
vectorized copy of numpy's SeedSequence hashing gives every seed's PCG64
seed words in one array pass, and numpy's own PCG64, seeded from those
words, draws each stream, bit for bit as the generators do.  The hash is
the costly part of a generator, so this is cheaper than a generator per
member; but `_streams` has a fixed cost of roughly a tenth of a
millisecond, the cost of seven or eight generators (~15 us each), so one-off
series keep their generator.

The Schottky conformal family (random_conformal_perturbation) perturbs the
modes CONFORMAL_MODES by at most CONFORMAL_EPS each, and the injectivity
probe samples one fixed grid, the quadrature module's PROBE_RADII x
PROBE_ANGLES Jacobian grid and PROBE_CIRCLES winding circles; neither takes
a size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSeriesError, NumericOverflowError, ParameterDomainError
from .means import quadratic_mean_profile
from .quadrature import (
    PROBE_ANGLES,
    PROBE_BLOCK_POINTS,
    PROBE_CIRCLES,
    PROBE_RADII,
    _scalar,
    winding_counts,
)
from .series import (
    MAX_JSON_ORDER,
    HarmonicSeries,
    SeriesStack,
    _index,
    circle_grid_fields,
    extremal_map,
    require_mode,
    require_outer,
    scale_rotate,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Pseudo-random series parameters.

    Coefficient magnitudes for mode n are at most decay**|n| with uniform
    phases, so decay controls how tame the series stays at large radii: on
    A(1, R) keep decay*R below 1 for tight identity tolerances.
    """

    seed: int
    N: int = 8
    decay: float = 0.6

    def __post_init__(self) -> None:
        _require_seed(self.seed)
        if self.N < 1:
            raise ParameterDomainError("N must be >= 1")
        if self.N > MAX_JSON_ORDER:
            raise ParameterDomainError(
                f"N={self.N} exceeds the largest order a series file may "
                f"hold, {MAX_JSON_ORDER}")
        if not (0.0 < self.decay < 1.0):
            raise ParameterDomainError("decay must lie in (0, 1)")


@lru_cache(maxsize=64)
def _scales(N: int, decay: float) -> np.ndarray:
    """Magnitude scale of each coefficient row: decay**n for a_n, b_n, a_-n
    and b_-n, n = 1..N, then 1 for the rows a0 and b0."""
    scales = np.ones(4 * N + 2)
    # Python-float powers: numpy's array power can differ in the last bit
    scales[:4 * N] = np.repeat([decay**n for n in range(1, N + 1)], 4)
    scales.setflags(write=False)
    return scales


def _require_seed(seed) -> None:
    """A seed is a nonnegative integer (a Python or numpy int, not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterDomainError(
            f"seed must be a nonnegative integer, got {type(seed).__name__} {seed!r}")
    if seed < 0:
        raise ParameterDomainError(f"seed must be >= 0, got {seed}")


# ---------------------------------------------------------------------------
# The stream kernel: the doubles of np.random.default_rng(seed).random(k) for
# many seeds at once.  default_rng(seed) is PCG64 seeded through
# SeedSequence(seed); the hash constants are numpy's (bit_generator.pyx).
# ---------------------------------------------------------------------------

_MASK32 = 2**32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_WORDS = 4


@lru_cache(maxsize=8)
def _chain(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants of `calls` consecutive hashmix calls: c_0 = init,
    c_{i+1} = c_i mult mod 2**32, as a uint32 column of calls + 1 rows."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, row i of `value` with the
    constants consts[i] and consts[i + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return z ^ (z >> np.uint32(_XSHIFT))


def _seed_words(seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The little-endian uint32 words of every seed, one column per seed,
    zero-padded to one height of at least the pool size, and each seed's own
    word count (SeedSequence gives 0 the single word 0)."""
    height = max(_POOL_WORDS, -(-max(seeds).bit_length() // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * height, "little") for s in seeds),
                          dtype="<u4").astype(np.uint32).reshape(len(seeds), height).T
    if height == _POOL_WORDS:
        return words, np.full(len(seeds), _POOL_WORDS)
    return words, np.array([max(1, -(-s.bit_length() // 32)) for s in seeds])


def _pool(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy: the 4 pool words of every seed, as 4 rows.
    A word past a seed's own count is the 0 that SeedSequence pads the pool
    with, up to the pool size; past it, only the seeds that have the word
    mix it in.  Each source word is mixed into all destinations at once:
    they take consecutive hash constants and do not read one another."""
    extra = words.shape[0] - _POOL_WORDS
    consts = _chain(_INIT_A, _MULT_A, _POOL_WORDS**2 + _POOL_WORDS * extra)
    pool = _hashmix(words[:_POOL_WORDS], consts[:_POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL_WORDS]))
        k += _POOL_WORDS - 1
    for src in range(_POOL_WORDS, words.shape[0]):
        mixed = _mix(pool, _hashmix(words[src], consts[k:k + _POOL_WORDS + 1]))
        pool = np.where(counts > src, mixed, pool)
        k += _POOL_WORDS
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of every seed, as 4 uint64
    rows: 8 hashed uint32 words, cycling through the pool, paired
    little-endian."""
    half = _hashmix(np.tile(pool, (2, 1)), _chain(_INIT_B, _MULT_B, 2 * _POOL_WORDS))
    half = half.astype(np.uint64)
    return half[0::2] | (half[1::2] << np.uint64(32))


@lru_cache(maxsize=1)
def _seed_words_class() -> type:
    """The class _SeedWords, defined on first use: subclassing numpy's
    ISeedSequence loads numpy.random, which commands that draw nothing
    should not pay for at import."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """The seed sequence of one seed whose generate_state(4, np.uint64)
        words are already computed: np.random.PCG64(_SeedWords(words))
        seeds itself from them exactly as from SeedSequence(seed)."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return _SeedWords


def _streams(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """The concatenation of np.random.default_rng(s).random(k) over the
    pairs (s, k) of `seeds` and `counts` (k >= 1), with the same bits.

    default_rng(s) is PCG64 seeded with SeedSequence(s).generate_state(4,
    np.uint64).  Those words are hashed for all seeds at once, by array
    passes; numpy's PCG64 then draws each seed's k raw words from them, and
    the doubles are (x >> 11) 2**-53, as in Generator.random.  Every
    operand of the hash is an ndarray (ndim >= 1): numpy wraps array
    integer overflow silently where scalar overflow warns.
    """
    # one seed's words per row, each row contiguous: PCG64 reads the 4
    # words through the array's data pointer
    words = _generate_state(_pool(*_seed_words([int(s) for s in seeds]))).T.copy()
    ends = np.cumsum(counts).tolist()
    raw = np.empty(ends[-1], dtype=np.uint64)
    seed_words = _seed_words_class()
    start = 0
    for member, end in zip(words, ends):
        raw[start:end] = np.random.PCG64(seed_words(member)).random_raw(end - start)
        start = end
    raw >>= np.uint64(11)
    return raw * 2.0**-53


def _coefficients(scales: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficient rows from their scales and uniforms: a_n, b_n, a_-n, b_-n
    for n = 1..N, then a0 and b0.  Elementwise, so rows of
    several configs stacked together come out as for each config alone."""
    return scales * u[:, 0] * np.exp(2j * np.pi * u[:, 1])


def random_series(config: SamplerConfig) -> HarmonicSeries:
    """Deterministic pseudo-random series for the given config.

    Each coefficient takes two uniforms, magnitude then phase, in the order
    a_n, b_n, a_-n, b_-n for n = 1..N, then a0 and b0, all
    from np.random.default_rng(config.seed); one draw of the whole table
    gives the same stream as drawing them singly.
    """
    scales = _scales(config.N, config.decay)
    u = np.random.default_rng(config.seed).random((scales.size, 2))
    coeffs = _coefficients(scales, u)
    N = config.N
    # table[n-1, s, t]: s = 0, 1 for modes n, -n and t = 0, 1 for a, b
    table = coeffs[:4 * N].reshape(N, 2, 2)
    return HarmonicSeries(N=N, a=table[:, :, 0].T.ravel(), b=table[:, :, 1].T.ravel(),
                          a0=coeffs[4 * N], b0=coeffs[-1])


def random_series_stack(configs: Sequence[SamplerConfig]) -> SeriesStack:
    """The stack of random_series(config) for every config, zero-padded to the
    largest N: member i has exactly the coefficients of
    random_series(configs[i]), its uniforms drawn by _streams with the bits
    of its own generator.  No configs give the empty stack of order 0."""
    if not configs:
        return SeriesStack.of([])
    orders = np.array([cfg.N for cfg in configs])
    coeffs = _coefficients(np.concatenate([_scales(cfg.N, cfg.decay) for cfg in configs]),
                           _streams([cfg.seed for cfg in configs],
                                    2 * (4 * orders + 2)).reshape(-1, 2))
    # Each member's rows, padded to the 4N mode rows of the largest N and
    # the two rows a0 and b0: a mask's true entries run in row-major order,
    # so one masked assignment places every member's rows.
    B, N = len(configs), int(orders.max())
    present = np.arange(4 * N + 2) < 4 * orders[:, None]
    present[:, -2:] = True
    table = np.zeros(present.shape, dtype=np.complex128)
    table[present] = coeffs
    del coeffs, present  # the stack's copies need the room
    # modes[i, n-1, s, t]: s = 0, 1 for modes n, -n and t = 0, 1 for a, b
    modes = table[:, :4 * N].reshape(B, N, 2, 2)
    return SeriesStack(N=N, a=modes[..., 0].transpose(0, 2, 1).reshape(B, 2 * N),
                       b=modes[..., 1].transpose(0, 2, 1).reshape(B, 2 * N),
                       a0=table[:, 4 * N], b0=table[:, -1])


def normalize_inner(h):
    """Impose the inner normalization: zero mean and unit quadratic mean.

    Drops b0, then rescales every coefficient by 1/sqrt(U(1)).  Raises
    DegenerateSeriesError if the series vanishes on the unit circle in the
    quadratic mean after dropping b0.  A stack is normalized member by
    member.
    """
    stripped = replace(h, b0=np.zeros_like(h.b0))
    u1 = quadratic_mean_profile(stripped).value(1.0)
    if (np.asarray(u1) <= 0.0).any():
        raise DegenerateSeriesError("cannot normalize: U(1) = 0 after dropping b0")
    return scale_rotate(stripped, 1.0 / np.sqrt(u1))


def perturb_extremal(
    lam: float, n: int, eps: complex, renormalize: bool = False
) -> HarmonicSeries:
    """h^lam with eps added to the mode-n coefficient a_n (or to the
    constant term when n = 0), optionally re-normalized on the inner
    circle.  Raises ParameterDomainError unless n is an integer."""
    require_mode(n)
    h = extremal_map(lam)
    if n == 0:
        h = replace(h, b0=h.b0 + eps)
    else:
        N = max(1, abs(n))
        a, b = np.zeros((2, 2 * N), dtype=np.complex128)
        a[0], b[0] = h.a[0], h.b[0]  # mode 1, the only mode of h^lam
        a[_index(n, N)] += eps
        h = HarmonicSeries(N=N, a=a, b=b)
    return normalize_inner(h) if renormalize else h


# The Schottky conformal family: the size of each perturbation coefficient,
# and the modes it perturbs (every mode -3..6 but the rotation's mode 1).
CONFORMAL_EPS = 1e-7
CONFORMAL_MODES = (-3, -2, -1, 2, 3, 4, 5, 6)


def random_conformal_perturbation(seed):
    """A rotation of z plus conformal perturbations of size at most
    CONFORMAL_EPS on the modes CONFORMAL_MODES.

    All b coefficients and the log/constant terms stay zero, and the sup
    deviation of |h| from 1 on the unit circle is at most
    len(CONFORMAL_MODES) * CONFORMAL_EPS, which keeps the series inside the
    conformal boundary class.  Each mode takes two uniforms, magnitude then
    phase, and one more gives the rotation.  A sequence of seeds gives the
    SeriesStack of their series, each drawn from its own generator.
    """
    seeds = list(seed) if np.ndim(seed) else [seed]
    for s in seeds:
        _require_seed(s)
    count = len(CONFORMAL_MODES)
    u = np.empty((len(seeds), 2 * count + 1))
    if seeds:
        u[:] = _streams(seeds, np.full(len(seeds), u.shape[1])).reshape(u.shape)
    N = max(map(abs, CONFORMAL_MODES))
    a = np.zeros((len(seeds), 2 * N), dtype=np.complex128)
    a[:, 0] = 1.0
    a[:, [_index(n, N) for n in CONFORMAL_MODES]] = _coefficients(
        CONFORMAL_EPS, u[:, :-1].reshape(-1, 2)).reshape(len(seeds), count)
    zeros = np.zeros(len(seeds), dtype=np.complex128)
    stack = scale_rotate(SeriesStack(N=N, a=a, b=np.zeros_like(a), a0=zeros, b0=zeros),
                         np.exp(2j * np.pi * u[:, -1]))
    return stack if np.ndim(seed) else stack.series(0)


class InjectivityProbe(NamedTuple):
    jacobian_min: float
    windings_ok: bool


def _radius_blocks(radii: np.ndarray, members: int) -> list[np.ndarray]:
    """Consecutive runs of `radii` whose members x radii x PROBE_ANGLES grid
    stays within PROBE_BLOCK_POINTS; a run holds at least one radius."""
    step = max(1, PROBE_BLOCK_POINTS // max(1, members * PROBE_ANGLES))
    return [radii[lo:lo + step] for lo in range(0, radii.size, step)]


def injectivity_probe(h, R: float) -> InjectivityProbe:
    """Heuristic evidence of injectivity on A(1, R).

    Samples the Jacobian determinant over an interior polar grid of
    PROBE_RADII radii x PROBE_ANGLES angles and the winding number on
    PROBE_CIRCLES interior circles.  A positive minimum Jacobian together
    with all windings equal to 1 is evidence (not proof) that the series
    restricts to an orientation-preserving homeomorphism.  Each
    winding is proved by quadrature.winding_counts, the argument count
    winding_number also uses; a circle it does not prove (a zero on or
    near it, or mode sums that are not finite) counts as failed evidence,
    not as an error; a Jacobian that is not finite raises
    NumericOverflowError.  For a SeriesStack both fields are arrays with
    one entry per member.

    The grid is evaluated in blocks of radii, each block one
    circle_grid_fields call of at most PROBE_BLOCK_POINTS (8 x 24 x 96)
    members x radii x angles, or of one radius where a single circle of
    the stack is larger; a series, and a stack of at most 8 members, takes
    one block.  winding_counts keeps each of its requests within the same
    bound, or to one circle where a single circle is larger.  Every circle is transformed on its own, so the result does
    not depend on the blocks.  Raises ParameterDomainError unless R is one
    number with 1 < R < inf.
    """
    R = _scalar(R, "R")
    require_outer(R)
    members = len(h) if isinstance(h, SeriesStack) else 1
    rhos = np.linspace(1.0, R, PROBE_RADII + 2)[1:-1]
    jac_min = []
    for block in _radius_blocks(rhos, members):
        f = circle_grid_fields(h, block, PROBE_ANGLES, ("d_rho", "d_theta"))
        with np.errstate(over="ignore", invalid="ignore"):
            # f.jacobian(block), formed in the probe's own field buffer
            product = np.conjugate(f.d_rho, out=f.d_rho)
            product *= f.d_theta
            jac = product.imag / block[:, None]
        del f, product
        if not np.isfinite(jac).all():
            raise NumericOverflowError(
                f"the Jacobian on A(1, {R}) overflowed; injectivity probe undefined")
        jac_min.append(jac.min(axis=(-2, -1)))
        del jac  # the next block needs the room
    radii = np.linspace(1.0, R, PROBE_CIRCLES + 2)[1:-1]
    ok = np.all(winding_counts(h, radii)[2] == 1, axis=-1)
    jac_min = np.min(jac_min, axis=0)
    if jac_min.shape:
        return InjectivityProbe(jacobian_min=jac_min, windings_ok=ok)
    return InjectivityProbe(jacobian_min=float(jac_min), windings_ok=bool(ok))
