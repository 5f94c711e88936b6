"""Truncated Laurent-log series for complex harmonic functions on an annulus.

Every complex harmonic function on the punctured plane decomposes into
angular modes

    h(z) = a0*log|z| + b0 + sum_{n != 0} (a_n * z**n + b_n * conj(z)**(-n)),

and any finite truncation of this sum is itself exactly harmonic, whatever
the coefficients.  This module stores the coefficients, evaluates h and its
first polar derivatives on circles, and provides the one-parameter extremal
family

    h^lam(z) = (z + lam/conj(z)) / (1 + lam),    -1 < lam <= 1,

whose member for lam = 1 is the critical map (z + 1/conj(z)) / 2 with
Jacobian vanishing on the unit circle.  A series holds a_n and b_n as two
arrays a and b over the 2N modes in mode_numbers order 1..N, -1..-N.  A
stable JSON encoding of the coefficient data is included; it keeps its four
half-arrays a_pos, b_pos, a_neg, b_neg, and only the codec splits or pads
halves.

Every evaluation goes through one circle kernel.  On C_rho the series is a
Fourier sum whose mode-n coefficient is c_n(rho) = a_n rho^n + b_n rho^-n
(a0 log(rho) + b0 for n = 0); d_rho and d_theta have the coefficients
c_n'(rho) and i n c_n(rho).  On the M equally spaced angles 2 pi j / M the
fields are one inverse FFT of this spectrum, mode n folded into bin n mod M,
which is exact for every M (circle_fields, and circle_grid_fields for many
radii at once).  Only the field rows a caller asks for are computed, and
their mode coefficients are written straight into the bins of the FFT
buffer.  No other angles are evaluated.

The kernel, like the closed-form profiles of the means module, also takes a
SeriesStack: B series zero-padded to one order N, with a and b of shape
(B, 2N) and a0, b0 of shape (B,).  A HarmonicSeries is the stack of one
with no member axis, so both run the same code.  For a stack the radii are
a scalar (every member on one circle), shape (m,) (every member on the
same m circles) or shape (B, m) (m circles per member); the fields then
lead with the member axis.  Batched callers evaluate a stack in chunks of
SERIES_PER_CHUNK members, which bounds the field arrays and the radial
power tables of one evaluation.

All types are immutable and all functions are pure; everything is safe to
call concurrently.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import NumericOverflowError, ParameterDomainError

# Guard band keeping 1/(1+lam) finite near the excluded endpoint lam = -1.
LAMBDA_MIN = -1.0 + 1e-9

# Members per chunk when a stack of series is evaluated.  A batched criterion
# pays fixed costs per chunk (numpy call overhead, weight tables, radial
# integrand calls, the Schottky screen's set-up), which at 16 members were
# most of a chunk's time; 64 members pay them a quarter as often (`verify
# all --trials 100` in process on 2 cores with numpy 2.4: 24.4 ms at 16,
# 19.4 ms at 64, 19.2-19.5 ms at 100 and 128).  C02's field block of a chunk
# is then at most (64, 3, 3, 36), 324 KiB (N <= 16).  The injectivity probe
# and the per-member radial jet split larger requests into blocks of their
# own, so a full `verify all --trials 100` run keeps a traced peak of at
# most 1.19 MiB on seeds 0-59 (0.87 MiB at 16, 1.44 MiB at 100 or more).
# No report depends on this size.
SERIES_PER_CHUNK = 64

# Largest truncation order read from JSON, drawn by the sampler or built by
# perturb_extremal, checked before any array is allocated, so a malformed
# argument cannot ask for an arbitrarily large series.
MAX_JSON_ORDER = 4096


@lru_cache(maxsize=64)
def _kernel_order(N: int) -> np.ndarray:
    """Mode numbers 0, 1..N, -1..-N: mode 0, then the mode_numbers order of
    a and b.  The circle kernel's spectrum has this order."""
    pos = np.arange(1, N + 1)
    ns = np.concatenate([[0], pos, -pos])
    ns.setflags(write=False)
    return ns


def _index(n: int, N: int) -> int:
    """Position of the nonzero mode n in the mode_numbers order."""
    return n - 1 if n > 0 else N - n - 1


@dataclass(frozen=True, eq=False)
class HarmonicSeries:
    """Coefficients of a truncated Laurent-log series.

    Equality and hashing are by identity, so a series can key the memos of
    the means and operators modules; compare coefficients with
    dumps_series or the arrays themselves.

    Attributes:
        N: truncation order; modes n with 1 <= |n| <= N may be nonzero.
        a, b: coefficients a_n, b_n of the 2N modes in mode_numbers order
            1..N, -1..-N: index i < N holds n = i+1 and index N+i holds
            n = -(i+1).  The constructor copies them into read-only
            arrays; None means all zero.
        a0: coefficient of log|z|.
        b0: constant term.

    The constructor checks N by _require_int, and a, b and the pair a0, b0
    by _coeff_array.
    """

    N: int
    a: np.ndarray = field(default=None)  # type: ignore[assignment]
    b: np.ndarray = field(default=None)  # type: ignore[assignment]
    a0: complex = 0j
    b0: complex = 0j

    def __post_init__(self) -> None:
        _require_int(self.N, "truncation order N")
        for name in ("a", "b"):
            values = np.zeros(2 * self.N) if getattr(self, name) is None else getattr(self, name)
            object.__setattr__(self, name, _coeff_array(values, (2 * self.N,), name))
        a0, b0 = _coeff_array((self.a0, self.b0), (2,), "a0 and b0").tolist()
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)

    @classmethod
    def from_coeffs(
        cls,
        N: int | None = None,
        a: Mapping[int, complex] | None = None,
        b: Mapping[int, complex] | None = None,
        a0: complex = 0j,
        b0: complex = 0j,
    ) -> "HarmonicSeries":
        """Build a series from sparse {mode: coefficient} mappings.

        Each key is one integer mode number (_require_int); N defaults
        to the largest |n| present in a or b.
        """
        a = dict(a or {})
        b = dict(b or {})
        _require_int([*a, *b], "a mode number", -math.inf, many=True)
        if 0 in a or 0 in b:
            raise ParameterDomainError(
                "mode 0 lives in a0 (log term) and b0 (constant), not in a/b"
            )
        modes = [abs(n) for n in (*a, *b)]
        inferred = max(modes) if modes else 0
        if N is None:
            N = inferred
        _require_int(N, "truncation order N")
        if inferred > N:
            raise ParameterDomainError(f"mode {inferred} exceeds N={N}")
        arrays = np.zeros((2, 2 * N), dtype=np.complex128)
        arrays[[0] * len(a) + [1] * len(b), [_index(n, N) for n in (*a, *b)]] = _coeff_array(
            [*a.values(), *b.values()], None, "a and b")
        return cls(N=N, a=arrays[0], b=arrays[1], a0=a0, b0=b0)

    @property
    def mode_numbers(self) -> np.ndarray:
        """Nonzero mode indices in the fixed order 1..N, -1..-N."""
        return _kernel_order(self.N)[1:]

    def coeff(self, n: int) -> tuple[complex, complex]:
        """Return (a_n, b_n) for a nonzero integer mode n with |n| <= N."""
        _require_int(n, "a mode number", -math.inf)
        if n == 0 or abs(n) > self.N:
            raise IndexError(f"mode {n} not stored for a series with N={self.N}")
        i = _index(n, self.N)
        return complex(self.a[i]), complex(self.b[i])


@dataclass(frozen=True, eq=False)
class SeriesStack:
    """B series zero-padded to one truncation order, validated once.

    Attributes:
        N: the largest order of the members; a member of lower order has
            zero coefficients on the modes above its own.
        a, b: shape (B, 2N), row i in the mode_numbers order of
            HarmonicSeries.
        a0, b0: shape (B,).

    The constructor checks N and copies each array by the rules of
    HarmonicSeries.  Arrays that already pass those rules skip the check:
    _unchecked only copies them, and it builds the stacks of indexing (a
    slice, or an index or mask array), of the sampler (random_series_stack,
    and random_conformal_perturbation before its checked rotation) and
    normalize_inner's copy with b0 dropped; series(i) builds one member as
    a HarmonicSeries without checking it again.  Equality and hashing are
    by identity, as for HarmonicSeries.
    """

    N: int
    a: np.ndarray
    b: np.ndarray
    a0: np.ndarray
    b0: np.ndarray

    def __post_init__(self) -> None:
        _require_int(self.N, "truncation order N")
        B = np.size(self.a0)  # an a0 of another shape than (B,) fails its rule
        for name, shape in (("a", (B, 2 * self.N)), ("b", (B, 2 * self.N)),
                            ("a0", (B,)), ("b0", (B,))):
            object.__setattr__(self, name, _coeff_array(getattr(self, name), shape, name))

    @classmethod
    def _unchecked(cls, N: int, a, b, a0, b0) -> "SeriesStack":
        """The stack of arrays known to pass the constructor's rules (N an
        int, finite complex coefficients of the shapes (B, 2N) and (B,)),
        as read-only contiguous copies, made without checking them again."""
        stack = object.__new__(cls)
        object.__setattr__(stack, "N", N)
        for name, values in (("a", a), ("b", b), ("a0", a0), ("b0", b0)):
            # a copy, so that a memo holding the stack holds no more
            arr = np.array(values, dtype=np.complex128)
            arr.setflags(write=False)
            object.__setattr__(stack, name, arr)
        return stack

    @classmethod
    def of(cls, members) -> "SeriesStack":
        """The stack of the given HarmonicSeries, padded to the largest N."""
        members = list(members)
        N = max((h.N for h in members), default=0)
        a, b = (np.zeros((len(members), 2, N), dtype=np.complex128) for _ in range(2))
        for i, h in enumerate(members):
            a[i, :, :h.N] = h.a.reshape(2, h.N)
            b[i, :, :h.N] = h.b.reshape(2, h.N)
        return cls(N=N, a=a.reshape(len(members), 2 * N),
                   b=b.reshape(len(members), 2 * N),
                   a0=[h.a0 for h in members], b0=[h.b0 for h in members])

    @property
    def mode_numbers(self) -> np.ndarray:
        """Nonzero mode indices in the fixed order 1..N, -1..-N."""
        return _kernel_order(self.N)[1:]

    def __len__(self) -> int:
        return self.a0.shape[0]

    def __getitem__(self, index) -> "SeriesStack":
        sub = SeriesStack._unchecked(self.N, self.a[index], self.b[index],
                                     self.a0[index], self.b0[index])
        if sub.a0.ndim != 1:
            raise IndexError("a stack index must select a 1-d run of members")
        return sub

    def coeff(self, n) -> tuple[np.ndarray, np.ndarray]:
        """(a_n, b_n) of every member, for one nonzero mode n with |n| <= N
        per member (an int, or an array of B ints)."""
        n = _require_int(n, "a mode number", -math.inf, many=True)
        n = np.broadcast_to(_per_member(n, len(self), "a mode number"), (len(self),))
        if ((n == 0) | (np.abs(n) > self.N)).any():
            raise IndexError(f"modes {n} not all stored for a stack with N={self.N}")
        i = np.where(n > 0, n - 1, self.N - n - 1)
        rows = np.arange(len(self))
        return self.a[rows, i], self.b[rows, i]

    def chunks(self) -> Iterator[tuple[slice, "SeriesStack"]]:
        """(member slice, sub-stack) for consecutive runs of
        SERIES_PER_CHUNK members."""
        for lo in range(0, len(self), SERIES_PER_CHUNK):
            rows = slice(lo, lo + SERIES_PER_CHUNK)
            yield rows, self[rows]

    def series(self, i: int) -> HarmonicSeries:
        """Member i as a HarmonicSeries of the stack's order N: the series
        the constructor would build from row i, with read-only copies of
        its a and b and a0, b0 as Python complex numbers, made without
        checking the member again."""
        i = operator.index(i)
        h = object.__new__(HarmonicSeries)
        object.__setattr__(h, "N", self.N)
        for name in ("a", "b"):
            arr = np.array(getattr(self, name)[i])
            arr.setflags(write=False)
            object.__setattr__(h, name, arr)
        object.__setattr__(h, "a0", complex(self.a0[i]))
        object.__setattr__(h, "b0", complex(self.b0[i]))
        return h


# Input rules, one per kind and the only code that decides what an argument
# is: integers, coefficients, and real numbers (_scalar, _within, and R,
# lambda and rho through require_*, which return them).  NaN fails each
# comparison, so a domain test passes only inside it.  Every closed form
# that can leave the float range returns through _in_float_range.

def _require_int(x, name: str, lowest: float = 0, highest: int | None = None,
                 many: bool = False):
    """Raise ParameterDomainError unless x is an integer (a Python or numpy
    int, not a bool) in lowest..highest: a count (N, trials, angles), a
    seed or a mode number.  With `many`, x may also be a list, tuple or
    array of them (a mode per member of a stack), tested by _all_ints and,
    where that fails, entry by entry, to refuse the first entry refused.
    Returns x, a list or tuple as an array."""
    if many and isinstance(x, (list, tuple, np.ndarray)):
        values = np.ravel(x) if isinstance(x, np.ndarray) else x
        if not _all_ints(values, lowest, highest):
            for v in values:
                _require_int(v, name, lowest, highest)
        return np.asarray(x)
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ParameterDomainError(
            f"{name} must be an integer, got {type(x).__name__} {_shown(x)}")
    if x < lowest:
        raise ParameterDomainError(f"{name} must be >= {lowest}, got {_shown(x)}")
    if highest is not None and x > highest:
        raise ParameterDomainError(f"{name}={_shown(x)} exceeds {highest}")
    return x


def _per_member(x, members: int, name: str):
    """x as given; ParameterDomainError unless x is one value or one per
    member of a stack of `members`."""
    if np.ndim(x) and np.shape(x) != (members,):
        raise ParameterDomainError(f"{name} must be one value or {members}, got {np.shape(x)}")
    return x


def _all_ints(values, lowest: float = 0, highest: int | None = None) -> bool:
    """Whether _require_int accepts every entry of `values` (a sequence or
    a 1-d array), tested by one pass over their types (the dtype of an
    array) and one min and max.  A caller with many seeds or orders tests
    them so, and runs _require_int entry by entry only when this is False,
    to refuse the first entry it refuses with its message."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iu":
            return False
        lo, hi = (values.min(), values.max()) if values.size else (lowest, lowest)
    else:
        if not all(t is not bool and issubclass(t, (int, np.integer))
                   for t in set(map(type, values))):
            return False
        lo, hi = (min(values), max(values)) if len(values) else (lowest, lowest)
    return lo >= lowest and (highest is None or hi <= highest)


def _numbers(x, kinds: str = "iuf") -> bool:
    """Whether x is numbers: a Python int or float (or complex, if `kinds`
    has "c"), not a bool, a numpy scalar or array of a dtype kind in
    `kinds`, or a list or tuple of such numbers."""
    if isinstance(x, (list, tuple)):
        return all(_numbers(v, kinds) for v in x)
    if isinstance(x, (int, float, complex)):
        return not isinstance(x, bool) and ("c" in kinds or not isinstance(x, complex))
    return np.asarray(x).dtype.kind in kinds


def _coeff_array(values, shape: tuple[int, ...] | None, name: str) -> np.ndarray:
    """A read-only copy of `values` as complex coefficients of the given
    shape (any shape for None): (2N,) for a series' a and b, (B, 2N) and
    (B,) for a stack's; ParameterDomainError unless finite numbers
    (_numbers, complex included) of the shape."""
    try:
        if not _numbers(values, "iufc"):
            raise TypeError
        arr = np.array(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # ragged, or an int past the float range
        raise ParameterDomainError(f"{name} must hold complex numbers") from None
    if shape is not None and arr.shape != shape:
        raise ParameterDomainError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterDomainError(f"{name} contains a non-finite coefficient")
    arr.setflags(write=False)
    return arr


def _is_scalar(x) -> bool:
    """Whether x is one real number: a Python int or float, not a bool, or
    a numpy integer or floating scalar or 0-d array."""
    if isinstance(x, (float, int)):
        return not isinstance(x, bool)
    return np.ndim(x) == 0 and _numbers(x)


def _scalar(x, name: str) -> float:
    """x as a Python float, a float passing as is; ParameterDomainError
    unless x is one real number (_is_scalar) within the float range."""
    if type(x) is not float:
        if not _is_scalar(x):
            raise ParameterDomainError(f"{name} must be one real number, got {_shown(x)}")
        try:
            x = float(x)
        except OverflowError:  # an integer too large for a float
            raise ParameterDomainError(f"{name} lies outside the float range") from None
    return x


def _within(x, lo: float, hi: float, hi_closed: bool = False, lo_closed: bool = False) -> bool:
    """Whether x, real numbers (_numbers), lies in (lo, hi), either end
    closed on request; anything else lies in no domain, and so does an
    integer past the float range, which no float computation can take.  A
    Python or numpy integer or float is checked without an array."""
    try:
        if isinstance(x, (float, int, np.integer)) and not isinstance(x, bool):
            bottom = top = float(x)
        else:
            r = np.asarray(x if _numbers(x) else None)
            if r.dtype.kind not in "iuf":  # not numbers, or a list holding a huge int
                return False
            if r.size == 0:
                return True
            bottom, top = r.min(), r.max()  # min and max propagate NaN
    except (OverflowError, ValueError):  # an int past the float range, a ragged list
        return False
    return bool((lo <= bottom if lo_closed else lo < bottom)
                and (top <= hi if hi_closed else top < hi))


def _shown(x) -> str:
    """x as a domain message prints it: str(x) (repr for a string) cut to
    80 characters, or its type where str refuses an integer of too many
    digits (Python's limit, 4300 by default), so a message never fails on
    the value it rejects."""
    try:
        text = repr(x) if isinstance(x, str) else str(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"
    return text if len(text) <= 80 else text[:77] + "..."


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # half a with-block's cost
def _in_float_range(what: str, at, form, *args):
    """form(*args), or NumericOverflowError "{what}={at} is not finite" (what
    names the value and the argument, as "the speed bound at rho") if a value
    it returns, a number, an array or a tuple of them, is not finite.

    One path: the form always runs with numpy's overflow, divide (1/0 of
    an underflowed power) and invalid warnings off, and an OverflowError
    (Python's float ** and the conversion of a huge int raise one) counts
    as inf.  Only the test looks at a value's type: math.isfinite for a
    float, cmath.isfinite for a complex (np.isfinite costs either ~2 us),
    else np.isfinite(...).all().

    Kept outside the rule: identity_residuals on circle-dense's hot path,
    which tests the memoised jet of U and catches Python's OverflowError
    per call; weitsman_bound, where an overflow rounds the bound to 1; and
    winding_number, which raises on a flag of winding_counts, not a value."""
    try:
        out = form(*args)
    except OverflowError:
        out = math.inf
    for v in out if isinstance(out, tuple) else (out,):
        if not (math.isfinite(v) if isinstance(v, float) else
                cmath.isfinite(v) if isinstance(v, complex) else np.isfinite(v).all()):
            raise NumericOverflowError(f"{what}={_shown(at)} is not finite")
    return out


def _accepted(x):
    """Real numbers that a domain test has accepted, as their caller
    computes on them: one number as given, several as one float64 array."""
    return x if np.ndim(x) == 0 else np.asarray(x, dtype=np.float64)


def require_outer(R):
    """R (see _accepted) if 1 < R < inf (the annulus A(1, R)), for one
    number or every entry of several; else ParameterDomainError."""
    if not (1.0 < R < math.inf if isinstance(R, float) else _within(R, 1.0, math.inf)):
        raise ParameterDomainError(f"outer radius R must satisfy 1 < R < inf, got {_shown(R)}")
    return R if isinstance(R, float) else _accepted(R)


def require_lambda(lam):
    """lam (see _accepted) if LAMBDA_MIN < lam <= 1, for one number or
    every entry of several; else ParameterDomainError."""
    if not (LAMBDA_MIN < lam <= 1.0 if isinstance(lam, float)
            else _within(lam, LAMBDA_MIN, 1.0, hi_closed=True)):
        raise ParameterDomainError(f"lambda must lie in (-1, 1], got {_shown(lam)}")
    return lam if isinstance(lam, float) else _accepted(lam)


def require_radii(rho):
    """rho (see _accepted) if positive and finite, for one number or every
    entry of several; else ParameterDomainError."""
    if not (0.0 < rho < math.inf if isinstance(rho, float) else _within(rho, 0.0, math.inf)):
        raise ParameterDomainError(f"rho must be positive and finite, got {_shown(rho)}")
    return rho if isinstance(rho, float) else _accepted(rho)


class CircleFields(NamedTuple):
    """Values and first polar derivatives of a series along one circle, or
    along several circles with one row per radius."""

    values: np.ndarray
    d_rho: np.ndarray
    d_theta: np.ndarray

    def jacobian(self, rho) -> np.ndarray:
        """Jacobian determinant Im(conj(h_rho) h_theta) / rho; `rho` is the
        radius, or the array of radii of the rows."""
        r = np.asarray(rho, dtype=np.float64)[..., None]
        return (np.conj(self.d_rho) * self.d_theta).imag / r

    def grad_norm_sq(self, rho) -> np.ndarray:
        """Squared Hilbert-Schmidt norm |h_rho|^2 + |h_theta|^2 / rho^2."""
        r = np.asarray(rho, dtype=np.float64)[..., None]
        return np.abs(self.d_rho) ** 2 + np.abs(self.d_theta) ** 2 / r**2


# ---------------------------------------------------------------------------
# The circle kernel.  On C_rho the series is the Fourier sum
#
#     h(rho e^{i theta}) = sum_n c_n(rho) e^{i n theta},
#     c_n(rho) = a_n rho^n + b_n rho^-n,   c_0(rho) = a0 log(rho) + b0,
#
# so d_rho has the coefficients c_n'(rho) and d_theta the coefficients
# i n c_n(rho).  The kernel computes the rows asked for, and only those, from
# a_n rho^n and b_n rho^-n, writing mode n of each into bin n mod L of a
# buffer of L > 2N bins: modes 0..N are the slice 0..N and modes -1..-N the
# reversed slice L-1..L-N.  On the grid of M equally spaced angles
# 2 pi j / M, e^{i n theta_j} depends on n mod M only, so folding the
# buffer onto M bins and taking one unscaled inverse FFT gives the exact
# pointwise values for any M, also when M <= 2N.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def circle_angles(M: int) -> np.ndarray:
    """The M equally spaced angles 2 pi j / M, j = 0, ..., M-1.

    The array is cached per M and read-only.
    """
    thetas = 2.0 * np.pi * np.arange(M) / M
    thetas.setflags(write=False)
    return thetas


def _is_grid(thetas: np.ndarray) -> bool:
    """Whether `thetas` is exactly circle_angles(thetas.size)."""
    if thetas.ndim != 1 or thetas.size == 0 or thetas[0] != 0.0:
        return False
    return np.array_equal(thetas, circle_angles(thetas.size))


@lru_cache(maxsize=64)
def _mode_factors(N: int) -> tuple:
    """The kernel's factors over the modes in mode_numbers order 1..N,
    -1..-N, read-only: n and -n as floats (the exponents of rho, and n
    d_rho's factor) and i n (d_theta's factor).  The floats have the values
    the ufuncs would cast the integers to, so the bits do not change."""
    ns = _kernel_order(N)[1:]
    factors = (ns.astype(np.float64), (-ns).astype(np.float64), 1j * ns)
    for array in factors:
        array.setflags(write=False)
    return factors


def _coeffs_at(h, r: np.ndarray):
    """a, b, a0, b0 of a series or stack, shaped to broadcast against the
    radii r (see the module docstring): a stack's members get an axis for
    the radii unless r is a scalar."""
    if h.a.ndim == 1 or r.ndim == 0:
        return h.a, h.b, h.a0, h.b0
    return h.a[:, None, :], h.b[:, None, :], h.a0[:, None], h.b0[:, None]


def _member_orders(stack: "SeriesStack") -> np.ndarray:
    """Each member's own order: its highest mode |n| with a nonzero a_n or
    b_n (0 for a member without one), not the order its stack pads it to."""
    return np.max(np.where((stack.a != 0.0) | (stack.b != 0.0),
                           np.abs(stack.mode_numbers), 0), axis=-1, initial=0)


def _mode_spectrum(h, rho, rows=(0, 1, 2), bins: int | None = None) -> np.ndarray:
    """Mode coefficients of the field rows `rows` (0 values, 1 d_rho,
    2 d_theta, in the order asked) on C_rho, shape (rows,) + (members) +
    radii + (bins,).  Only the requested rows are computed, into one block
    of their mode coefficients, which two slice assignments write straight
    into the bins of every row.  With `bins` None the spectrum is compact,
    modes 0, 1..N, -1..-N in 2N + 1 bins; with bins = L > 2N, mode n is in
    bin n mod L, modes 1..N in the slice 1..N and -1..-N in the reversed
    slice L-1..L-N, and the bins between them are zero.

    Overflow is tolerated here; it yields inf/nan fields.
    """
    N = h.N
    ns, neg_ns, i_ns = _mode_factors(N)
    r0 = np.asarray(rho, dtype=np.float64)
    a, b, a0, b0 = _coeffs_at(h, r0)
    r = r0[..., None]
    x = a * r**ns
    y = b * r**neg_ns
    size = 2 * N + 1 if bins is None else bins
    spec = np.zeros((len(rows),) + x.shape[:-1] + (size,), dtype=np.complex128)
    # views of the bins of mode 0, of modes 1..N and of -1..-N, in
    # mode_numbers order
    zero, pos = spec[..., 0], spec[..., 1:N + 1]
    neg = spec[..., N + 1:] if bins is None else spec[..., bins - 1:bins - N - 1:-1]
    values = x + y
    block = np.empty((len(rows),) + x.shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        if row == 0:
            zero[i] = a0 * np.log(r0) + b0
            block[i] = values
        elif row == 1:
            zero[i] = a0 / r0
            coeffs = np.subtract(x, y, out=block[i])
            coeffs *= ns
            coeffs /= r
        else:  # mode 0 of d_theta is 0
            np.multiply(values, i_ns, out=block[i])
    pos[...] = block[..., :N]
    neg[...] = block[..., N:]
    return spec


def _grid_fields(h, rho, M: int, rows=(0, 1, 2)) -> np.ndarray:
    """Fields on circle_angles(M) of every circle, shape (rows,) + (members)
    + radii + (M,); `rows` picks among values, d_rho and d_theta (0, 1, 2),
    and only those rows are computed and transformed.  Each row is one
    contiguous block, so in-place arithmetic between rows needs no copy.

    _mode_spectrum writes the modes straight into bins n mod L of
    L = folds * M > 2N bins, one mode per bin; summing the folds gives bin
    n mod M, and one inverse FFT transforms the result in place.
    """
    folds = -(-(2 * h.N + 1) // M)
    spec = _mode_spectrum(h, rho, rows, folds * M)
    if folds > 1:
        spec = spec.reshape(spec.shape[:-1] + (folds, M)).sum(axis=-2)
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


@np.errstate(over="ignore", invalid="ignore")  # a decorator costs half a with-block
def circle_fields(h: HarmonicSeries, rho: float, thetas: np.ndarray) -> CircleFields:
    """Evaluate h, dh/drho and dh/dtheta at the angles `thetas` on C_rho.

    `thetas` must equal circle_angles(M) for some M >= 1 (a copy or a list
    of it will do; the cached array itself passes without a comparison);
    other angles raise ParameterDomainError.  Differentiation is termwise
    on the series, so the derivatives are exact up to rounding, and the
    fields come from one inverse FFT of the mode spectrum.
    """
    require_radii(rho)
    # the cached grid passes as it is; only a read-only array may be it, so
    # no grid is built for a writeable array that is not one
    if not (isinstance(thetas, np.ndarray) and not thetas.flags.writeable
            and thetas is circle_angles(thetas.size)):
        thetas = np.asarray(thetas, dtype=np.float64)
        if not _is_grid(thetas):
            raise ParameterDomainError(
                "thetas must be the grid circle_angles(M) of some M >= 1")
    out = _grid_fields(h, rho, thetas.size)
    return CircleFields(out[0], out[1], out[2])


_FIELD_ROWS = ("values", "d_rho", "d_theta")


def circle_grid_fields(h, rhos, M: int,
                       fields: tuple[str, ...] = _FIELD_ROWS) -> CircleFields:
    """Fields on the angles circle_angles(M) of every circle C_rho, rho in
    `rhos`, from one batched inverse FFT.

    For a series each array has shape rhos.shape + (M,), and row i holds
    the fields of circle_fields(h, rhos[i], circle_angles(M)).  For a
    SeriesStack the member axis comes first (see the module docstring).
    Only the named `fields` are computed; the others are None.
    """
    rhos = np.asarray(require_radii(rhos), dtype=np.float64)
    _require_int(M, "angle count M", 1)
    rows = [_FIELD_ROWS.index(name) for name in fields]
    with np.errstate(over="ignore", invalid="ignore"):
        out = _grid_fields(h, rhos, M, rows)
    picked = dict(zip(fields, out))
    return CircleFields(*(picked.get(name) for name in _FIELD_ROWS))


def _blocks(count: int, each: int, cap: int) -> list[slice]:
    """Consecutive slices of `count` items of `each` entries, at most
    cap // each items per slice and at least one: the requests of a batched
    kernel call that stay within `cap` entries, or hold one item where a
    single item is larger."""
    step = max(1, cap // max(1, each))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def extremal_map(lam: float) -> HarmonicSeries:
    """The extremal map h^lam(z) = (z + lam/conj(z)) / (1 + lam).

    Its only nonzero mode is n = 1 with a_1 = 1/(1+lam), b_1 = lam/(1+lam).
    lam = 0 gives the identity and lam = 1 the critical map whose Jacobian
    vanishes on the unit circle.  Raises ParameterDomainError unless lam
    is one number in (-1, 1].
    """
    lam = require_lambda(_scalar(lam, "lambda"))
    return HarmonicSeries.from_coeffs(
        N=1, a={1: 1.0 / (1.0 + lam)}, b={1: lam / (1.0 + lam)}
    )


def scale_rotate(h, alpha):
    """Multiply every coefficient by alpha (h -> alpha * h); for a stack,
    alpha may hold one factor per member.  alpha is read by _coeff_array,
    and for a stack by _per_member."""
    alpha = _coeff_array(alpha, None, "alpha")
    if isinstance(h, SeriesStack):
        _per_member(alpha, len(h), "alpha")
    return type(h)(N=h.N, a=h.a * alpha[..., None], b=h.b * alpha[..., None],
                   a0=h.a0 * alpha, b0=h.b0 * alpha)


# ---------------------------------------------------------------------------
# JSON encoding.  Complex numbers are [re, im] pairs.  The file splits each
# of a and b into two halves: entry i of a_pos/b_pos holds mode n = i+1 and
# entry i of a_neg/b_neg holds mode n = -(i+1); in memory, a is a_pos
# followed by a_neg and b is b_pos followed by b_neg.  A missing or short
# half is padded with zeros.
# NaN and infinity are rejected in both directions, and floats are written
# in round-trip form so that save/load is byte-stable.
# ---------------------------------------------------------------------------

_JSON_KEYS = ("a_pos", "b_pos", "a_neg", "b_neg")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unpair(v, name: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ParameterDomainError(f"{name} must be a [re, im] pair of numbers")
    re, im = _scalar(v[0], name), _scalar(v[1], name)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParameterDomainError(f"{name} must be finite")
    return complex(re, im)


def to_json_dict(h: HarmonicSeries) -> dict:
    """Plain-JSON representation of the series."""
    out: dict = {"N": int(h.N), "a0": _pair(h.a0), "b0": _pair(h.b0)}
    halves = (h.a[:h.N], h.b[:h.N], h.a[h.N:], h.b[h.N:])
    for key, half in zip(_JSON_KEYS, halves):
        out[key] = [_pair(complex(z)) for z in half]
    return out


def _json_half(data: Mapping, key: str, N: int) -> np.ndarray:
    """The array `key` of a series file, padded with zeros to N entries."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ParameterDomainError(f"{key} must be a list of [re, im] pairs")
    if len(entries) > N:
        raise ParameterDomainError(
            f"{key} holds {len(entries)} coefficients, more than N={N}")
    half = np.zeros(N, dtype=np.complex128)
    half[:len(entries)] = [_unpair(v, key) for v in entries]
    return half


def from_json_dict(data: Mapping) -> HarmonicSeries:
    """Inverse of to_json_dict; tolerates missing (= zero) arrays.

    Rejects with ParameterDomainError: a non-object, a missing, boolean or
    non-integral N, N outside 0..MAX_JSON_ORDER, and arrays that are not
    lists of [re, im] number pairs or that hold more than N of them.
    """
    if not isinstance(data, Mapping):
        raise ParameterDomainError("series JSON must be an object")
    if "N" not in data:
        raise ParameterDomainError("series JSON must contain N")
    N = data["N"]
    if isinstance(N, float) and N.is_integer():
        N = int(N)  # JSON may write an integral order as 2.0
    _require_int(N, "truncation order N", highest=MAX_JSON_ORDER)
    a_pos, b_pos, a_neg, b_neg = (_json_half(data, key, N) for key in _JSON_KEYS)
    return HarmonicSeries(
        N=N,
        a=np.concatenate([a_pos, a_neg]),
        b=np.concatenate([b_pos, b_neg]),
        a0=_unpair(data["a0"], "a0") if "a0" in data else 0j,
        b0=_unpair(data["b0"], "b0") if "b0" in data else 0j,
    )


def dumps_series(h: HarmonicSeries) -> str:
    """Deterministic JSON text for the series."""
    return json.dumps(to_json_dict(h), indent=2, allow_nan=False) + "\n"


def save_series(h: HarmonicSeries, path: str | Path) -> None:
    Path(path).write_text(dumps_series(h), encoding="utf-8")


def load_series(path: str | Path) -> HarmonicSeries:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParameterDomainError(f"{path}: not valid JSON ({exc})") from None
    return from_json_dict(data)
