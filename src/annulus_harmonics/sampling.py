"""Deterministic test-series generation, normalization and probes, and the
one decoder of numpy's random streams.

The stream contract: every draw has the bits of numpy's Generator making it
call by call, and only this module reads raw PCG64 words.  A drawn series
(`random_series`, a member of `random_series_stack` or of
`random_conformal_perturbation`) takes its uniforms from
np.random.default_rng(seed) of its own seed, so a draw never depends on the
other members of its stack.  The stacks compute those doubles for all their
seeds at once (`_streams`: numpy's SeedSequence hash, vectorized, then
numpy's PCG64 per member), which costs about a tenth of a millisecond, as
much as seven or eight generators, so a one-off series keeps its generator.
The criteria of the reports module draw through `_draws` and `_seed_draws`,
whose decode of one raw block has the bits of the per-trial loop.  A word
becomes a double by `_uniforms` and a seed by `_seeds`.  A one-off series
takes a SamplerConfig, a stack its members' seeds and orders as arrays;
both are checked by one sampler rule (_require_draws) and laid out as a,
b, a0, b0 by one function (_laid_out).

The Schottky conformal family (random_conformal_perturbation) perturbs the
modes CONFORMAL_MODES by at most CONFORMAL_EPS each, and the injectivity
probe samples one fixed grid, the quadrature module's PROBE_RADII x
PROBE_ANGLES Jacobian grid and PROBE_CIRCLES winding circles; neither takes
a size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSeriesError, ParameterDomainError
from .means import quadratic_mean_profile
from .quadrature import PROBE_ANGLES, PROBE_CIRCLES, PROBE_RADII, REQUEST_POINTS, winding_counts
from .series import (
    MAX_JSON_ORDER,
    HarmonicSeries,
    SeriesStack,
    _all_ints,
    _blocks,
    _coeff_array,
    _in_float_range,
    _index,
    _require_int,
    _scalar,
    _shown,
    _within,
    circle_grid_fields,
    extremal_map,
    require_outer,
    scale_rotate,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Pseudo-random series parameters.

    Coefficient magnitudes for mode n are at most decay**|n| with uniform
    phases, so decay controls how tame the series stays at large radii: on
    A(1, R) keep decay*R below 1 for tight identity tolerances.  The
    constructor checks them as a stack of one, by the sampler rule.
    """

    seed: int
    N: int = 8
    decay: float = 0.6

    def __post_init__(self) -> None:
        _require_draws([self.seed], [self.N], [self.decay])


@lru_cache(maxsize=64)
def _scales(N: int, decay: float) -> np.ndarray:
    """Magnitude scale of each coefficient row: decay**n for a_n, b_n, a_-n
    and b_-n, n = 1..N, then 1 for the rows a0 and b0."""
    scales = np.ones(4 * N + 2)
    # Python-float powers: numpy's array power can differ in the last bit
    scales[:4 * N] = np.repeat([decay**n for n in range(1, N + 1)], 4)
    scales.setflags(write=False)
    return scales


def _require_draws(seeds, orders, decay) -> tuple[np.ndarray, list[float]]:
    """The sampler rule, of SamplerConfig and random_series_stack:
    ParameterDomainError unless seeds and orders hold one integer per
    member, each seed >= 0 and order in 1..MAX_JSON_ORDER, and decay is one
    float in (0, 1) or one per member.  Seeds and orders are tested as
    arrays (_all_ints); where that fails, the integer rule goes member by
    member and refuses the first member refused, seed before order.
    Returns orders and decays checked."""
    given, orders = orders, np.asarray(orders)
    if orders.ndim != 1 or len(seeds) != orders.size or np.shape(decay) not in ((), orders.shape):
        raise ParameterDomainError(
            "seeds and orders must be one integer per member, and decay one "
            "number or one per member")
    if not _within(decay, 0.0, 1.0):
        raise ParameterDomainError(f"decay must lie in (0, 1), got {_shown(decay)}")
    if not (_all_ints(seeds) and _all_ints(given, 1, MAX_JSON_ORDER)):
        for seed, N in zip(seeds, given):  # as given: numpy reads a bool among ints as 1
            _require_int(seed, "seed")
            _require_int(N, "truncation order N", 1, MAX_JSON_ORDER)
    return orders, np.ravel(decay).tolist()


# ---------------------------------------------------------------------------
# numpy's streams: SeedSequence's hash, with numpy's constants
# (bit_generator.pyx), and the decoders of raw PCG64 words.
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
    passes; numpy's PCG64 then draws each seed's k raw words from them, as
    doubles (_uniforms).  Every operand of the hash is an ndarray (ndim >=
    1): numpy wraps array integer overflow silently where scalar overflow
    warns.
    """
    # one seed's words per row, each row contiguous: PCG64 reads the 4
    # words through the array's data pointer
    words = _generate_state(_pool(*_seed_words([int(s) for s in seeds]))).T.copy()
    seed_words = _seed_words_class()
    return _uniforms(np.concatenate([np.random.PCG64(seed_words(member)).random_raw(k)
                                     for member, k in zip(words, np.asarray(counts).tolist())]))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Raw PCG64 words as the doubles of Generator.random, (w >> 11) 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _seeds(words: np.ndarray) -> np.ndarray:
    """Raw PCG64 words as the seeds of Generator.integers(2**62), w >> 2: on
    a power of two Lemire's method takes one word and never redraws."""
    return words >> np.uint64(2)


def _seed_draws(rng: np.random.Generator, count: int) -> list[int]:
    """`count` draws of rng.integers(2**62), with the bits and the final
    generator state of that loop."""
    return _seeds(rng.bit_generator.random_raw(count)).tolist()


def _draw_loop(rng: np.random.Generator, trials: int, orders: tuple[int, int],
               params: tuple) -> tuple:
    """The seeds, the orders and one array per spec of `params`, drawn per
    trial: the order rng.integers(lo, hi + 1), the seed rng.integers(2**62),
    then one rng.uniform(low, high[, shape]) per spec, in that order."""
    lo, hi = orders
    seeds, ns, drawn = [], [], [[] for _ in params]
    for _ in range(trials):
        ns.append(int(rng.integers(lo, hi + 1)))
        seeds.append(int(rng.integers(2**62)))
        for spec, values in zip(params, drawn):
            values.append(rng.uniform(*spec))
    return seeds, np.array(ns), [np.array(values) for values in drawn]


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
    on odd ones, and nothing from a one-value range; a seed is one word
    (_seeds); a uniform is low + (high - low) times the word's double
    (_uniforms), as in Generator.uniform.  The generator is left as the
    loop leaves it, with numpy's buffer state: its last high half stays in
    `uinteger` after it is used."""
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
    u = _uniforms(block)
    arrays = [low + (high - low) * u[:, start:end].reshape(trials, *shape)
              for (low, high, *_), shape, start, end in zip(params, shapes, ends, ends[1:])]
    return _seeds(block[:, 0]).tolist(), ns, arrays


def _draws(rng: np.random.Generator, trials: int, orders: tuple[int, int],
           decay: float, *params: tuple):
    """The draws of _draw_loop, as each chunk of the stack of their series
    (random_series_stack with `decay`) with its rows of every parameter.
    They are decoded from one raw block (_decode), with the bits and the
    final generator state of the loop; where the decode cannot give them,
    the generator is restored and the loop draws instead."""
    start = rng.bit_generator.state
    drawn = _decode(rng.bit_generator, trials, orders, params)
    if drawn is None:
        rng.bit_generator.state = start
        drawn = _draw_loop(rng, trials, orders, params)
    seeds, ns, arrays = drawn
    for rows, h in random_series_stack(seeds, ns, decay).chunks():
        yield (h, *(a[rows] for a in arrays))


def _coefficients(scales: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficient rows from their scales and uniforms: a_n, b_n, a_-n, b_-n
    for n = 1..N, then a0 and b0.  Elementwise, so rows of
    several configs stacked together come out as for each config alone."""
    return scales * u[:, 0] * np.exp(2j * np.pi * u[:, 1])


def _laid_out(table: np.ndarray, N: int) -> tuple:
    """a, b (B, 2N) and a0, b0 (B,) from the rows of _coefficients, one
    member per row of `table` (B, 4N + 2)."""
    B = table.shape[0]
    # ab[i, t, s, n-1]: t = 0, 1 for a, b and s = 0, 1 for modes n, -n
    ab = table[:, :4 * N].reshape(B, N, 2, 2).transpose(0, 3, 2, 1).reshape(B, 2, 2 * N)
    return ab[:, 0], ab[:, 1], table[:, 4 * N], table[:, -1]


def random_series(config: SamplerConfig) -> HarmonicSeries:
    """Deterministic pseudo-random series for the given config.

    Each coefficient takes two uniforms, magnitude then phase, in the order
    a_n, b_n, a_-n, b_-n for n = 1..N, then a0 and b0, all
    from np.random.default_rng(config.seed); one draw of the whole table
    gives the same stream as drawing them singly.
    """
    scales = _scales(config.N, float(config.decay))  # keyed as the stack keys it
    u = np.random.default_rng(config.seed).random((scales.size, 2))
    a, b, a0, b0 = _laid_out(_coefficients(scales, u)[None], config.N)
    return HarmonicSeries(N=config.N, a=a[0], b=b[0], a0=a0[0], b0=b0[0])


def random_series_stack(seeds: Sequence[int], orders, decay) -> SeriesStack:
    """The stack of random_series(SamplerConfig(seeds[i], orders[i], decay))
    for every i, zero-padded to the largest order: member i has exactly
    those coefficients, its uniforms drawn by _streams with the bits of its
    own generator.  `decay` is one number for every member or an array of
    one per member.  The arguments are checked once, as arrays, by the
    sampler rule of SamplerConfig (_require_draws): a member is refused
    exactly when its config is.  The stack is built from the drawn arrays
    without checking them again (SeriesStack._unchecked).  No seeds give
    the empty stack of order 0."""
    orders, decays = _require_draws(seeds, orders, decay)
    if not orders.size:
        return SeriesStack.of([])
    N = int(orders.max())
    # Each member's rows, padded to the 4N mode rows of the largest N and
    # the two rows a0 and b0: a mask's true entries run in row-major order,
    # so one masked assignment places every member's rows, and the same
    # mask picks each member's scales from the rows of the largest N.
    present = np.arange(4 * N + 2) < 4 * orders[:, None]
    present[:, -2:] = True
    scales = np.broadcast_to(np.stack([_scales(N, d) for d in decays]), present.shape)
    coeffs = _coefficients(scales[present],
                           _streams(seeds, 2 * (4 * orders + 2)).reshape(-1, 2))
    table = np.zeros(present.shape, dtype=np.complex128)
    table[present] = coeffs
    del coeffs, present  # the stack's copies need the room
    return SeriesStack._unchecked(N, *_laid_out(table, N))


def normalize_inner(h):
    """Impose the inner normalization: zero mean and unit quadratic mean.

    Drops b0, then rescales every coefficient by 1/sqrt(U(1)).  Raises
    DegenerateSeriesError if the series vanishes on the unit circle in the
    quadratic mean after dropping b0, and NumericOverflowError if U(1) is
    not finite.  A stack is normalized member by member.
    """
    stripped = (SeriesStack._unchecked(h.N, h.a, h.b, h.a0, np.zeros_like(h.b0))
                if isinstance(h, SeriesStack) else replace(h, b0=0j))
    # a positive finite U(1) is at least 5e-324, so 1/sqrt(U(1)) is finite
    u1 = _in_float_range("U after dropping b0, at rho", 1.0,
                         lambda: quadratic_mean_profile(stripped).value(1.0))
    if (np.asarray(u1) <= 0.0).any():
        raise DegenerateSeriesError("cannot normalize: U(1) = 0 after dropping b0")
    return scale_rotate(stripped, 1.0 / np.sqrt(u1))


def perturb_extremal(
    lam: float, n: int, eps: complex, renormalize: bool = False
) -> HarmonicSeries:
    """h^lam with eps added to the mode-n coefficient a_n (or to the
    constant term when n = 0), optionally re-normalized on the inner
    circle.  Raises ParameterDomainError unless n is an integer, |n| <=
    MAX_JSON_ORDER, and eps one complex number."""
    _require_int(n, "a mode number", -MAX_JSON_ORDER, MAX_JSON_ORDER)
    eps = _coeff_array(eps, (), "eps").item()
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
    _require_int(seeds, "seed", many=True)
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
    stack = scale_rotate(SeriesStack._unchecked(N, a, np.zeros_like(a), zeros, zeros),
                         np.exp(2j * np.pi * u[:, -1]))
    return stack if np.ndim(seed) else stack.series(0)


class InjectivityProbe(NamedTuple):
    jacobian_min: float
    windings_ok: bool


def _block_jacobian(h, block: np.ndarray) -> np.ndarray:
    """f.jacobian(block), formed in the buffer of the fields f."""
    f = circle_grid_fields(h, block, PROBE_ANGLES, ("d_rho", "d_theta"))
    product = np.conjugate(f.d_rho, out=f.d_rho)
    product *= f.d_theta
    return product.imag / block[:, None]


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

    The grid is evaluated in blocks of radii (series._blocks), each block
    one circle_grid_fields call of at most REQUEST_POINTS (8 x 24 x 96)
    members x radii x angles, or of one radius where a single circle of
    the stack is larger; a series, and a stack of at most 8 members, takes
    one block.  winding_counts splits its requests by the same bound, as
    does every batched request of the circle kernel (see the quadrature
    module).  Every circle is transformed on its own, so the result does
    not depend on the blocks.  Raises ParameterDomainError unless R is one
    number with 1 < R < inf.
    """
    R = require_outer(_scalar(R, "R"))
    members = len(h) if isinstance(h, SeriesStack) else 1
    rhos = np.linspace(1.0, R, PROBE_RADII + 2)[1:-1]
    jac_min = []
    for block in _blocks(rhos.size, members * PROBE_ANGLES, REQUEST_POINTS):
        jac = _in_float_range("the Jacobian on A(1, R) at R", R, _block_jacobian, h, rhos[block])
        jac_min.append(jac.min(axis=(-2, -1)))
        del jac  # the next block needs the room
    radii = np.linspace(1.0, R, PROBE_CIRCLES + 2)[1:-1]
    ok = np.all(winding_counts(h, radii)[2] == 1, axis=-1)
    jac_min = np.min(jac_min, axis=0)
    if jac_min.shape:
        return InjectivityProbe(jacobian_min=jac_min, windings_ok=ok)
    return InjectivityProbe(jacobian_min=float(jac_min), windings_ok=bool(ok))
