"""Target-space norms, vector-valued L_p norms and Rademacher averages.

Every inequality functional measures through this layer: a `NormSpace`
fixes the finite-dimensional target ell_q^m, `lp_norm` takes the L_p norm
over the uniform cube measure, and one sign sweep (`_pattern_norms`) over
the sign vectors of exact enumeration or of a deterministic counter-based
Monte Carlo has two reductions: the mean (`rademacher_average`, the sign
averages and their gradient) and the max (the umd maximum).  Chunks, tiles,
halved masks, the exact patterns' sign table and per-tile finishing are
decided here only.  Every exponent is checked by a `PRange`, every vector
length by `NormSpace`, and every ell_q norm has the bits of
`_norms_of_absolute`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hypercube import MAX_DIMENSION, HypercubeFunction, _check_declared, _echo, sign_matrix

__all__ = [
    "DegenerateInputError",
    "NormSpace",
    "FunctionFamily",
    "PRange",
    "RademacherAveragePlan",
    "lp_norm",
    "lp_norm_gradient",
    "rademacher_average",
    "sample_sign_masks",
    "signed_combination_average",
    "signed_combination_average_gradient",
]

DEGENERATE_EPS = 1e-14

EXACT_THRESHOLD = 10  # the most members `RademacherAveragePlan.auto` enumerates exactly

DEFAULT_SAMPLES = 20000  # the sample budget of a plan, a search and the command line

# Sign vectors per block: at most 1024, and per row at most 2^22 combination
# entries (32 MiB); fixed by the table's shape, so reduction order never varies.
# Within a block the combinations are built a tile of points at a time, about
# 2^17 entries (1 MiB, inside a core's L2) when the block holds more.
_CHUNK = 1024
_BLOCK_ENTRIES = 1 << 22
_TILE_ENTRIES = 1 << 17


class DegenerateInputError(ValueError):
    """A ratio denominator fell below the degeneracy threshold (1e-14)."""


@dataclass(frozen=True)
class PRange:
    """An interval of exponents, open at each end unless that end is closed."""

    low: float
    high: float
    low_closed: bool = False
    high_closed: bool = False

    def __str__(self) -> str:
        return (
            f"{'[' if self.low_closed else '('}{self.low:g}, "
            f"{self.high:g}{']' if self.high_closed else ')'}"
        )

    def check(self, p: float, what: str) -> float:
        """p as a float, or a one-line `ValueError` naming `what` when p is outside."""
        p = float(p)
        above = self.low <= p if self.low_closed else self.low < p
        below = p <= self.high if self.high_closed else p < self.high
        if not (above and below):
            raise ValueError(f"{what} requires p in {self}, got {p}")
        return p


# The exponents each functional accepts, for the library functions and the
# functional table alike: [1, inf) for pisier's deviation functional, (1, 2]
# for the type exponents, and (1, inf) for the rest.  Beneath them, an L_p
# norm takes p in [1, inf] and a raw side any finite p > 0.  Every exponent,
# NaN included, is checked by one of these ranges.
DEVIATION_P = PRange(1.0, math.inf, low_closed=True)
TYPE_P = PRange(1.0, 2.0, high_closed=True)
OPEN_P = PRange(1.0, math.inf)
NORM_P = PRange(1.0, math.inf, low_closed=True, high_closed=True)
SIDE_P = PRange(0.0, math.inf)


@dataclass(frozen=True)
class NormSpace:
    """The target space ell_q^m.

    q may be any real in [1, inf]; use ``math.inf`` for the max norm.
    """

    m: int
    q: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"target dimension m must be >= 1, got {self.m}")
        q = float(self.q)
        if not (q >= 1.0):
            raise ValueError(f"norm index q must satisfy q >= 1, got {q}")
        object.__setattr__(self, "q", q)

    def norm(self, vector: np.ndarray) -> float:
        return float(self.norms(np.asarray(vector, dtype=np.float64)[None, :])[0])

    def norms(self, table: np.ndarray) -> np.ndarray:
        """ell_q norms along the last axis."""
        self._check_length(table)
        return _norms_of_absolute(np.abs(table), self.q)

    def _check_length(self, table: np.ndarray) -> None:
        """A one-line error unless the last axis of `table` holds vectors in R^m."""
        if table.shape[-1] != self.m:
            raise ValueError(f"vectors of length {table.shape[-1]} in ell_q^{self.m}")


@dataclass(frozen=True)
class FunctionFamily:
    """An ordered family (f_1, ..., f_n) of functions on C_n sharing (n, m)."""

    functions: tuple[HypercubeFunction, ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("family must not be empty")
        object.__setattr__(self, "functions", tuple(self.functions))
        n, m = self.functions[0].n, self.functions[0].m
        for f in self.functions:
            if (f.n, f.m) != (n, m):
                raise ValueError("family members must share (n, m)")
        if len(self.functions) != n:
            raise ValueError(
                f"family must contain exactly n={n} functions, got {len(self.functions)}"
            )

    @property
    def n(self) -> int:
        return self.functions[0].n

    @property
    def m(self) -> int:
        return self.functions[0].m

    def stacked(self) -> np.ndarray:
        """Member tables stacked to shape (n, 2^n, m)."""
        return np.stack([f.values for f in self.functions])

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i: int) -> HypercubeFunction:
        return self.functions[i]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "functions": [f.values.tolist() for f in self.functions],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FunctionFamily":
        family = cls(tuple(HypercubeFunction.from_values(v) for v in data["functions"]))
        return _check_declared(data, family)


def _check_seed(seed: int) -> None:
    """An input error unless `seed` is a valid generator seed, >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class RademacherAveragePlan:
    """How sign averages are evaluated: exact enumeration or Monte Carlo.

    Exact enumeration costs ~ count * 2^(count-1) sign vectors, one of
    each pair delta, -delta (see `_sign_masks`).  `auto` picks it up to
    `EXACT_THRESHOLD` members, and up to `MAX_DIMENSION` members while its
    2^(count-1) patterns are no more than `samples` (to 15 members at the
    default 20,000); beyond that, `samples` deterministic draws keyed on
    (seed, sample index) are used.
    """

    mode: str = "exact"
    samples: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown plan mode {_echo(self.mode)}")
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        _check_seed(self.seed)

    @classmethod
    def auto(cls, count: int, samples: int = DEFAULT_SAMPLES, seed: int = 0):
        exact = count <= EXACT_THRESHOLD or (count <= MAX_DIMENSION and 1 << (count - 1) <= samples)
        return cls(mode="exact" if exact else "monte-carlo", samples=samples, seed=seed)

    @classmethod
    def for_mode(cls, mode: str, count: int, samples: int, seed: int):
        """`auto(count, ...)` for mode "auto", else a plan of the given mode."""
        if mode == "auto":
            return cls.auto(count, samples=samples, seed=seed)
        return cls(mode=mode, samples=samples, seed=seed)


_MAX_SAMPLED_MEMBERS = 63
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def sample_sign_masks(seed: int, count: int, n: int) -> np.ndarray:
    """Deterministic sign-vector bitmasks keyed on (seed, sample index).

    Sample j depends only on (seed, j), so any parallel or serial
    evaluation order reproduces the same draw.  A mask is a signed 64-bit
    integer, so at most 63 members can be signed; at most 2^MAX_DIMENSION
    samples are drawn, more than the patterns of the largest exact sweep.
    """
    if n > _MAX_SAMPLED_MEMBERS:
        raise ValueError(
            f"Monte Carlo sign masks are limited to {_MAX_SAMPLED_MEMBERS} members, got {n}"
        )
    if count > 1 << MAX_DIMENSION:
        raise ValueError(f"Monte Carlo plans are limited to 2^{MAX_DIMENSION} samples, got {count}")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    state = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN) & _MASK64
    return (_mix64(state) & np.uint64((1 << n) - 1)).astype(np.int64)


def lp_norm(f: HypercubeFunction, p: float, space: NormSpace) -> float:
    """(mean over the cube of ||f(eps)||_X^p)^(1/p); max over the cube for p = inf."""
    return _lp_value(f.values, p, space)


def _lp_value(table: np.ndarray, p: float, space: NormSpace, weights=None) -> float:
    """The L_p norm of a (points, m) table under point `weights` (uniform by
    default): the value of `lp_norm_gradient` for finite p, the largest
    pointwise norm for p = inf."""
    if math.isinf(NORM_P.check(p, "the L_p norm")):
        return float(space.norms(table).max())
    return float(lp_norm_gradient(table, p, space, weights).value)


class _Side:
    """One side of a functional on a batch of raw arrays: its value per row
    and, when asked, its gradient with respect to the batch.

    The package's L_p norms and sign averages are computed only this way:
    `lp_norm`, `martingale_lp_norm` and `signed_combination_average`
    return the `value` of a batch of one, so a library call, `eval`, a
    certificate and each row of the search's batches get the same bits.

    `sweep(with_gradient) -> (value, gradient or None)` computes it; a sweep
    for the gradient yields the value in the same pass, with the same bits
    as a sweep for the value alone.  Each is computed at most once.

    Every row of a batch gets the bits it gets alone: per-row scalars go
    through `np.vecdot` (a row's dot product) and `np.float_power` (the C
    library's power), as a scalar `@` and `**` do, because numpy's
    vectorized `matmul` and `power` may round the last bit differently.
    """

    def __init__(self, sweep: Callable[[bool], tuple]) -> None:
        self._sweep = sweep
        self._value = self._gradient = None

    @property
    def value(self) -> np.ndarray:
        if self._value is None:
            self._value, _ = self._sweep(False)
        return self._value

    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            self._value, self._gradient = self._sweep(True)
        return self._gradient

    def map(self, backward: Callable[[np.ndarray], np.ndarray]) -> "_Side":
        """The same side seen from an earlier input: `backward` maps its gradient there."""

        def sweep(with_gradient: bool):
            # The gradient first: its sweep gives the value too.
            gradient = backward(self.gradient()) if with_gradient else None
            return self.value, gradient

        return _Side(sweep)


def lp_norm_gradient(
    table: np.ndarray, p: float, space: NormSpace, weights: np.ndarray | None = None
) -> _Side:
    """(sum_k w_k ||t_k||_q^p)^(1/p) for raw (..., points, m) tables, with its gradient.

    Leading axes are a batch: the value has their shape and the gradient
    the shape of `table`.  p is any finite p > 0.  The point weights default
    to the uniform 1/points.  At the kinks the gradient takes sign(t) (q = 1)
    and the coordinate that `argmax` picks (q = inf); a zero row contributes
    nothing.
    """
    p = SIDE_P.check(p, "the raw L_p norm")
    space._check_length(table)
    if weights is None:
        weights = np.full(table.shape[-2], 1.0 / table.shape[-2])

    def sweep(with_gradient: bool):
        if with_gradient:
            pointwise, derivative = _norms_with_derivative(table, space.q)
        else:
            pointwise = _norms_of_absolute(np.abs(table), space.q)
        value = np.float_power(np.vecdot(pointwise**p, weights), 1.0 / p)
        if not with_gradient:
            return value, None
        cotangent = (weights * pointwise ** (p - 1.0))[..., None] * derivative
        cotangent *= _root_factor(value, p)[..., None, None]
        return value, cotangent

    return _Side(sweep)


def _root_factor(value: np.ndarray, p: float, divisor: float = 1.0) -> np.ndarray:
    """value^(1 - p) / divisor where value > 0 and 1 elsewhere: the chain-rule
    factor of a p-th root."""
    positive = value > 0.0
    factor = np.float_power(value, 1.0 - p, out=np.ones_like(value), where=positive)
    return np.divide(factor, divisor, out=factor, where=positive)


def _norms_with_derivative(table: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """ell_q norms along the last axis and their derivative with respect to `table`.

    The norms have the bits `_norms_of_absolute` gives them.
    """
    a = np.abs(table)
    signs = np.sign(table)
    if math.isinf(q):
        picked = np.arange(table.shape[-1]) == np.argmax(a, axis=-1)[..., None]
        return _reduce_last(np.maximum, a), np.where(picked, signs, 0.0)
    if q == 1.0:
        return _reduce_last(np.add, a), signs
    norms = _reduce_last(np.add, a**q) ** (1.0 / q)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0) ** (q - 1.0)
    return norms, signs * a ** (q - 1.0) * scale[..., None]


def _sign_masks(count: int, plan: RademacherAveragePlan) -> np.ndarray | None:
    """The plan's sign vectors as bitmasks: its keyed samples, or None in exact
    mode for the 2^(count-1) patterns whose last sign is +1, masks 0, 1, ...
    in order (`_sign_rows`).

    Every target norm is even, so delta and -delta give the same norm and,
    term by term, the same gradient delta . grad N(sum_i delta_i t_i) (the
    sign and argmax rules at the kinks are odd too): the half of the cube
    with the top mask bit clear has the mean of the whole.  It holds the
    smaller mask of each pair, so the first pattern reaching a maximum in
    ascending order is the whole cube's.
    """
    if plan.mode == "exact":
        if count > MAX_DIMENSION:
            raise ValueError(
                f"exact sign enumeration is limited to {MAX_DIMENSION} members, got {count}"
            )
        return None
    return sample_sign_masks(plan.seed, plan.samples, count)


def _pattern_count(count: int, masks: np.ndarray | None) -> int:
    """How many patterns a sweep over `masks` visits; None is the exact plan's."""
    return 1 << max(count - 1, 0) if masks is None else len(masks)


@lru_cache(maxsize=None)
def _exact_signs(count: int) -> np.ndarray:
    """The sign rows of every exact pattern of `count` members, for counts
    whose patterns fit one chunk (to 11): one read-only table per count,
    160 KiB over all of them."""
    signs = sign_matrix(count, np.arange(_pattern_count(count, None)))
    signs.setflags(write=False)
    return signs


def _sign_rows(count: int, masks: np.ndarray | None, first: int, stop: int) -> np.ndarray:
    """The sign rows of patterns `first` to `stop` of a sweep over `masks`
    (None: the exact plan's, see `_sign_masks`)."""
    if masks is not None:
        return sign_matrix(count, masks[first:stop])
    if (patterns := _pattern_count(count, None)) <= _CHUNK:
        return _exact_signs(count)[first:stop]
    return sign_matrix(count, np.arange(first, min(stop, patterns)))


def _pattern_norms(tables, q, masks, finish, with_derivative=False, tile=_TILE_ENTRIES):
    """Per sign pattern and point, || sum_i delta_i t_i ||_q: the one loop over
    sign patterns, for the sign averages, their gradient and the umd maximum.

    Yields (signs, pointwise, derivative) per chunk of patterns, in mask
    order and of a size fixed by the shape (so every reduction over patterns
    is deterministic), for stacked (..., count, points, m) tables; leading
    axes are a batch.  `masks` None sweeps the exact patterns.
    `derivative`, the norms' gradient with respect to the combinations, is
    None unless asked for; the norms have the same bits either way.  Each
    chunk's combinations pass through one reused buffer of about `tile`
    entries, a tile of points at a time, and every entry keeps the
    summation order of one whole-table `matmul`.  The chunks hold what
    `finish(pointwise, derivative, start)` returns for each tile, whose
    points begin at `start`: elementwise work alone, while it is in cache.
    """
    *lead, count, points, m = tables.shape
    flat = np.ascontiguousarray(tables.reshape(*lead, count, points * m))
    chunk = min(_CHUNK, max(1, _BLOCK_ENTRIES // (points * m)))
    patterns = _pattern_count(count, masks)
    rows = min(chunk, patterns)
    width = points
    if tables.size * rows > tile * count:  # more than one tile
        # Equal tiles of a power of two of at least 2 points: one column or a
        # short last tile sends `matmul` to a kernel that sums in another order.
        width = 1 << max(1, (tile // (rows * m * math.prod(lead))).bit_length() - 1)
        width = points if points % width else width
    buffer = np.empty((*lead, rows, width * m))
    for first in range(0, patterns, chunk):
        signs = _sign_rows(count, masks, first, first + chunk)
        view = buffer[..., : len(signs), :]
        combos = view.reshape(*view.shape[:-1], width, m)
        if width < points:  # tiles finish in their own arrays: a strided slice is slower
            pointwise = np.empty((*lead, len(signs), points))
            derivative = np.empty((*lead, len(signs), points, m)) if with_derivative else None
        for start in range(0, points, width):
            np.matmul(signs, flat[..., start * m : (start + width) * m], out=view)
            if with_derivative:
                norms, slope = finish(*_norms_with_derivative(combos, q), start)
            else:
                np.abs(combos, out=combos)
                norms, slope = finish(_norms_of_absolute(combos, q), None, start)
            if width == points:  # one tile: its arrays are the chunk's, not copied
                pointwise, derivative = norms, slope
            else:
                pointwise[..., start : start + width] = norms
                if with_derivative:
                    derivative[..., start : start + width, :] = slope
        yield signs, pointwise, derivative
        del pointwise, derivative, norms, slope  # freed before the next chunk is built


def signed_combination_average(
    tables: np.ndarray,
    p: float,
    space: NormSpace,
    plan: RademacherAveragePlan,
    weights: np.ndarray | None = None,
) -> float:
    """(avg over delta of || sum_i delta_i t_i ||_{L_p}^p)^(1/p) for stacked tables.

    `tables` has shape (count, points, m); the point measure is uniform
    unless `weights` gives probabilities.  Shared by the cube-side
    Rademacher averages and the martingale transform averages.
    """
    return float(signed_combination_average_gradient(tables, p, space, plan, weights).value)


def signed_combination_average_gradient(
    tables: np.ndarray,
    p: float,
    space: NormSpace,
    plan: RademacherAveragePlan,
    weights: np.ndarray | None = None,
) -> _Side:
    """`signed_combination_average` for (..., count, points, m) tables, with its gradient.

    Leading axes are a batch.  A value alone costs one pass over the sign
    patterns; the gradient takes one pass for both, visiting the same
    patterns in the same chunks, and the backward step of a chunk is
    signs.T @ (pointwise cotangents).
    """
    p = SIDE_P.check(p, "the sign average")
    space._check_length(tables)
    return _sign_average(tables, p, space, _sign_masks(tables.shape[-3], plan), weights)


def _sign_average(tables, p, space, masks, weights=None, tile=_TILE_ENTRIES) -> _Side:
    """The sign average over the patterns `masks` (the plan's from `_sign_masks`, or
    any others for an oracle); each tile finishes its terms and cotangents."""
    if weights is None:
        weights = np.full(tables.shape[-2], 1.0 / tables.shape[-2])

    def finish(pointwise, derivative, start):
        raised = pointwise ** (p - 1.0)  # w ||.||^(p-1), the factors of the gradient
        raised *= weights[start : start + raised.shape[-1]]
        if derivative is not None:
            derivative *= raised[..., None]
        pointwise *= raised
        return pointwise, derivative

    def sweep(with_gradient: bool):
        *lead, count, points, m = tables.shape
        total = np.zeros(lead)
        gradient = np.zeros((*lead, count, points * m)) if with_gradient else None
        chunks = _pattern_norms(tables, space.q, masks, finish, with_gradient, tile)
        for signs, terms, slopes in chunks:
            if with_gradient:
                gradient += signs.T @ slopes.reshape(*lead, len(signs), -1)
            total += terms.reshape(*lead, -1).sum(axis=-1)
            del terms, slopes  # freed before the next block is built
        patterns = float(_pattern_count(count, masks))
        value = np.float_power(total / patterns, 1.0 / p)
        if with_gradient:
            gradient *= _root_factor(value, p, patterns)[..., None, None]
            gradient = gradient.reshape(tables.shape)
        return value, gradient

    return _Side(sweep)


def _largest_transform(tables, p, space, weights, masks=None, tile=_TILE_ENTRIES) -> np.ndarray:
    """The sweep's maximum, as `_sign_average` is its mean: the signs of the
    first pattern (ascending bitmask) whose || sum_i delta_i t_i ||_{L_p} is
    the largest, among the patterns whose last sign is +1 unless `masks`
    gives others (see `_sign_masks`).

    A pattern and its negation give the same norm, and the one with last
    sign +1 has the smaller mask, so this is the first largest pattern of
    all 2^count.  `tables` is (..., count, points, m) under point `weights`;
    leading axes are a batch, and each row gets its own pattern.  Exact
    enumeration's member limit applies.
    """
    if masks is None:  # the exact plan's patterns (None), once its member limit is checked
        masks = _sign_masks(tables.shape[-3], RademacherAveragePlan(mode="exact"))
    best = best_signs = None
    chunks = _pattern_norms(tables, space.q, masks, lambda norms, *_: (norms**p, None), tile=tile)
    for signs, powers, _ in chunks:
        # Only ranks the patterns.  Many tie by symmetry, and the rounding of
        # this reduction picks among them, so it fixes the search's witnesses.
        powered = powers @ weights
        top, k = powered.max(axis=-1), powered.argmax(axis=-1)
        if best is None:
            best, best_signs = top, signs[k]
        else:  # a later chunk wins only where it is strictly larger
            better = top > best
            best = np.where(better, top, best)
            best_signs = np.where(better[..., None], signs[k], best_signs)
    return best_signs


def _transform_norm(tables, signs, p, space, weights) -> _Side:
    """|| sum_i delta_i t_i ||_{L_p} for (..., count, points, m) tables and
    (..., count) signs, one pattern per batch row, with its gradient in `tables`."""
    *lead, count, points, m = tables.shape
    combination = (signs[..., None, :] @ tables.reshape(*lead, count, points * m)).reshape(
        *lead, points, m
    )
    return lp_norm_gradient(combination, p, space, weights).map(
        lambda g: signs[..., None, None] * g[..., None, :, :]
    )


def _norms_of_absolute(table: np.ndarray, q: float) -> np.ndarray:
    """ell_q norms along the last axis of an already-absolute table.

    May overwrite `table`; callers pass scratch buffers.
    """
    if math.isinf(q):
        return _reduce_last(np.maximum, table)
    if q == 1.0:
        return _reduce_last(np.add, table)
    table **= q  # not np.power: numpy's `**` squares q = 2 exactly, and roots 1/q = 1/2 by sqrt
    return _reduce_last(np.add, table) ** (1.0 / q)


def _reduce_last(ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
    """`ufunc.reduce` over the last axis, column by column when that axis is short.

    numpy reduces a short contiguous last axis several times slower than
    m - 1 whole-table passes.  Below 8 columns numpy also sums in plain
    left-to-right order, so both routes give the same bits.
    """
    m = table.shape[-1]
    if m >= 8:
        return ufunc.reduce(table, axis=-1)
    out = table[..., 0].copy()
    for j in range(1, m):
        ufunc(out, table[..., j], out=out)
    return out


def rademacher_average(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """(2^-n sum_delta || sum_i delta_i g_i ||_{L_p}^p)^(1/p) over delta in C_n."""
    return signed_combination_average(family.stacked(), p, space, plan)


def _values(sides) -> tuple[float, ...]:
    """The values of `_Side`s built on one witness (no batch axes), as floats."""
    return tuple(float(side.value) for side in sides)


def _checked_ratio(lhs: float, rhs: float, degenerate: str) -> float:
    """lhs / rhs, or `DegenerateInputError(degenerate)` when rhs is below 1e-14."""
    if rhs < DEGENERATE_EPS:
        raise DegenerateInputError(degenerate)
    return lhs / rhs
