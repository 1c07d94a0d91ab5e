"""Target-space norms, vector-valued L_p norms and Rademacher averages.

Every inequality functional measures through this layer: a `NormSpace`
fixes the finite-dimensional target ell_q^m, `lp_norm` takes the L_p norm
over the uniform cube measure, and one sign sweep (`_SignSweep`) over
the sign vectors of exact enumeration or of a deterministic counter-based
Monte Carlo has two reductions: the mean (`rademacher_average`, the sign
averages and their gradient) and the max (the umd maximum).  Chunks, tiles,
halved masks, the exact patterns' sign table and per-tile finishing are
decided here only.  Every raw side, here and in `inequalities` and
`martingales`, is prepared as `side(n, p, space, plan, weights)` (`_lp_side`
and `_plan_average` are the two here), so that a call does only its
arithmetic.  One entry, `_at_witness`, checks a witness's vector length,
prepares a side or builder and applies it, for every public side, ratio and
gradient function.  Every exponent is checked once, by a `PRange` at its
public entry, and every ell_q norm has the bits of one of `_q_kernels`'
kernels.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .hypercube import (
    MAX_DIMENSION,
    HypercubeFunction,
    _check_declared,
    _echo,
    _integer,
    sign_matrix,
)

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
# NaN included, is checked by one of these ranges, once, where it enters: a
# prepared side checks none.
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
        m = _integer(self.m, "target dimension m")
        if m < 1:
            raise ValueError(f"target dimension m must be >= 1, got {m}")
        q = float(self.q)
        if not (q >= 1.0):
            raise ValueError(f"norm index q must satisfy q >= 1, got {q}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)

    def norm(self, vector: np.ndarray) -> float:
        return float(self.norms(np.asarray(vector, dtype=np.float64)[None, :])[0])

    def norms(self, table: np.ndarray) -> np.ndarray:
        """ell_q norms along the last axis."""
        self._check_length(table)
        return _q_kernels(self.q)[0](np.abs(table))

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


def _check_seed(seed) -> int:
    """`seed` as an int when it is a valid generator seed, an integer >= 0;
    anything else is a one-line input error."""
    if (seed := _integer(seed, "seed")) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


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
        if (samples := _integer(self.samples, "sample count")) < 1:
            raise ValueError("sample count must be >= 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _check_seed(self.seed))

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
    default): the raw L_p norm's value for finite p, the largest pointwise
    norm for p = inf."""
    if math.isinf(p := NORM_P.check(p, "the L_p norm")):
        return float(space.norms(table).max())
    return float(_at_witness(_lp_side, table, None, p, space, weights=weights)[0])


def _uniform(points: int) -> np.ndarray:
    """The uniform weights 1/points of `points` points."""
    return np.full(points, 1.0 / points)


def _at_witness(prepare, x, n, p, space, plan=None, weights=None, with_gradient=False):
    """Raw side or builder `prepare`, prepared as `prepare(n, p, space, plan,
    weights)` and applied to one witness x, once x's vectors are checked to
    lie in `space` (a prepared side never checks).  `weights`, x's point
    measure, is uniform over its points (axis -2) unless given; the caller
    has checked p against its own range."""
    space._check_length(x)
    weights = _uniform(x.shape[-2]) if weights is None else weights
    return prepare(n, p, space, plan, weights)(x, with_gradient)


def _composed(forward: Callable, side: Callable, backward: Callable) -> Callable:
    """The prepared side of `forward(x)`: its gradient is carried back to x by
    `backward`, the adjoint of `forward`."""

    def composed(x, with_gradient=False):
        value, gradient = side(forward(x), with_gradient)
        return value, None if gradient is None else backward(gradient)

    return composed


# Raw sides, `side(n, p, space, plan, weights) -> prepared`: n is the
# witness's dimension or member count, p an exponent already checked, and
# `weights` the witness's point measure.  Each is prepared once per
# functional, exponent, target space, plan and point measure, with its ell_q
# kernels chosen and its weights and sign rows in hand, and is then called
# as `prepared(x, with_gradient=False) -> (value, gradient or None)` on raw
# (..., *shape) arrays whose leading axes are a batch.  A call is the
# arithmetic alone: it never checks that its vectors lie in R^m, so every
# entry point that takes a witness goes through `_at_witness`, and the
# search's batches have the config's shape.
# Every row of a batch gets the bits it gets alone:
# per-row scalars go through `np.vecdot` (a row's dot product) and
# `np.float_power` (the C library's power), as a scalar `@` and `**` do,
# because numpy's vectorized `matmul` and `power` may round the last bit
# differently.  The package's L_p norms and sign averages are computed only
# this way, so a library call, `eval`, a certificate and each row of the
# search's batches get the same bits.


def _lp_side(n, p: float, space: NormSpace, plan, weights: np.ndarray) -> Callable:
    """(sum_k w_k ||t_k||_q^p)^(1/p) for raw (..., points, m) tables under point
    `weights`, prepared (n and the plan are not read): see `lp_norm_gradient`."""
    absolute, with_derivative = _q_kernels(space.q)
    root, lower = 1.0 / p, p - 1.0

    def side(table, with_gradient=False):
        if with_gradient:
            pointwise, derivative = with_derivative(table)
        else:
            pointwise = absolute(np.abs(table))
        value = np.float_power(np.vecdot(pointwise**p, weights), root)
        if not with_gradient:
            return value, None
        cotangent = (weights * pointwise**lower)[..., None] * derivative
        cotangent *= _root_factor(value, p)[..., None, None]
        return value, cotangent

    return side


def lp_norm_gradient(
    table: np.ndarray, p: float, space: NormSpace, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k w_k ||t_k||_q^p)^(1/p) for raw (..., points, m) tables, and its
    gradient, as a `(value, gradient)` pair from one pass.

    Leading axes are a batch: the value has their shape and the gradient
    the shape of `table`.  p is any finite p > 0.  The point weights default
    to the uniform 1/points.  At the kinks the gradient takes sign(t) (q = 1)
    and the coordinate that `argmax` picks (q = inf); a zero row contributes
    nothing.
    """
    p = SIDE_P.check(p, "the raw L_p norm")
    return _at_witness(_lp_side, table, None, p, space, None, weights, True)


def _root_factor(value: np.ndarray, p: float, divisor: float = 1.0) -> np.ndarray:
    """value^(1 - p) / divisor where value > 0 and 1 elsewhere: the chain-rule
    factor of a p-th root."""
    positive = value > 0.0
    factor = np.float_power(value, 1.0 - p, out=np.ones(np.shape(value)), where=positive)
    if divisor != 1.0:  # dividing by 1.0 changes no bit
        np.divide(factor, divisor, out=factor, where=positive)
    return factor


def _q_kernels(q: float) -> tuple[Callable, Callable]:
    """The ell_q kernels along the last axis, chosen once per q: the norms of
    an already-absolute table (which they may overwrite; callers pass
    scratch buffers), and the norms of a table with their derivative."""
    if math.isinf(q):
        return partial(_reduce_last, np.maximum), _max_norms_with_derivative
    if q == 1.0:
        return partial(_reduce_last, np.add), _sum_norms_with_derivative
    return partial(_power_norms, q=q), partial(_power_norms_with_derivative, q=q)


def _power_norms(table: np.ndarray, q: float) -> np.ndarray:
    table **= q  # not np.power: numpy's `**` squares q = 2 exactly, and roots 1/q = 1/2 by sqrt
    return _reduce_last(np.add, table) ** (1.0 / q)


def _power_norms_with_derivative(table: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    a = np.abs(table)
    norms = _reduce_last(np.add, a**q) ** (1.0 / q)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0) ** (q - 1.0)
    return norms, np.sign(table) * a ** (q - 1.0) * scale[..., None]


def _sum_norms_with_derivative(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _reduce_last(np.add, np.abs(table)), np.sign(table)


def _max_norms_with_derivative(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At q = inf the derivative is the sign at the first largest entry
    (`argmax`'s pick) and 0.0 elsewhere.  Two columns skip `argmax`, which is
    slow on so short an axis: column 0 is picked where it equals the maximum,
    else column 1, and the other entry is its sign times 0.  That is
    `argmax`'s pick on every row without a NaN; a row holding a NaN keeps a
    NaN but not `argmax`'s bits.
    """
    a = np.abs(table)
    signs = np.sign(table)
    norms, m = _reduce_last(np.maximum, a), table.shape[-1]
    if m != 2:
        picked = np.arange(m) == np.argmax(a, axis=-1)[..., None]
        return norms, np.where(picked, signs, 0.0)
    picked = np.empty(a.shape, dtype=bool)
    np.logical_not(np.equal(a[..., 0], norms, out=picked[..., 0]), out=picked[..., 1])
    signs *= picked
    signs += 0.0  # 0.0, not -0.0, for a negative sign not picked
    return norms, signs


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


class _SignSweep:
    """Per sign pattern and point, || sum_i delta_i t_i ||_q: the one loop over
    sign patterns, for the sign averages, their gradient and the umd maximum,
    prepared for `count` members over `points` points in `space`.

    `run` sweeps stacked (..., count, points, m) tables (leading axes are a
    batch) in chunks of patterns, in mask order and of a size fixed by the
    shape, so every reduction over patterns is deterministic; `masks` None
    sweeps the exact patterns.  A sweep of one chunk, as every search call
    is, holds its sign rows (the exact table's, or the decoded masks) from
    here on; a longer one decodes each chunk as it reaches it, so one
    chunk's rows live at a time.  Each chunk's
    combinations pass through one reused buffer of about `tile` entries, a
    tile of points at a time, and every entry keeps the summation order of
    one whole-table `matmul`.
    """

    def __init__(self, count, points, space, masks, tile=_TILE_ENTRIES) -> None:
        self.masks, self.tile = masks, tile
        self.absolute, self.with_derivative = _q_kernels(space.q)
        self.patterns = _pattern_count(count, masks)
        self.chunk = min(_CHUNK, max(1, _BLOCK_ENTRIES // (points * space.m)))
        self.firsts = range(0, self.patterns, self.chunk)
        self.signs = _sign_rows(count, masks, 0, self.chunk) if len(self.firsts) == 1 else None

    def run(self, tables, finish, reduce, state, with_derivative=False) -> None:
        """Call `reduce(state, signs, pointwise, derivative)` once per chunk.

        `derivative`, the norms' gradient with respect to the combinations,
        is None unless asked for; the norms have the same bits either way.
        The chunk holds what `finish(pointwise, derivative, start)` returns
        for each tile, whose points begin at `start`: elementwise work alone,
        while it is in cache.
        """
        *lead, count, points, m = tables.shape
        flat = np.ascontiguousarray(tables.reshape(*lead, count, points * m))
        rows = min(self.chunk, self.patterns)
        width = points
        if tables.size * rows > self.tile * count:  # more than one tile
            # Equal tiles of a power of two of at least 2 points: one column or a
            # short last tile sends `matmul` to a kernel that sums in another order.
            width = 1 << max(1, (self.tile // (rows * m * math.prod(lead))).bit_length() - 1)
            width = points if points % width else width
        buffer = np.empty((*lead, rows, width * m))
        for first in self.firsts:
            signs = self.signs
            if signs is None:
                signs = _sign_rows(count, self.masks, first, first + self.chunk)
            view = buffer[..., : len(signs), :]
            combos = view.reshape(*view.shape[:-1], width, m)
            if width < points:  # tiles finish in their own arrays: a strided slice is slower
                pointwise = np.empty((*lead, len(signs), points))
                derivative = np.empty((*lead, len(signs), points, m)) if with_derivative else None
            for start in range(0, points, width):
                np.matmul(signs, flat[..., start * m : (start + width) * m], out=view)
                if with_derivative:
                    norms, slope = finish(*self.with_derivative(combos), start)
                else:
                    np.abs(combos, out=combos)
                    norms, slope = finish(self.absolute(combos), None, start)
                if width == points:  # one tile: its arrays are the chunk's, not copied
                    pointwise, derivative = norms, slope
                else:
                    pointwise[..., start : start + width] = norms
                    if with_derivative:
                        derivative[..., start : start + width, :] = slope
            reduce(state, signs, pointwise, derivative)
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
    p = SIDE_P.check(p, "the sign average")
    return float(_at_witness(_plan_average, tables, tables.shape[-3], p, space, plan, weights)[0])


def signed_combination_average_gradient(
    tables: np.ndarray,
    p: float,
    space: NormSpace,
    plan: RademacherAveragePlan,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """`signed_combination_average` for (..., count, points, m) tables and its
    gradient, as a `(value, gradient)` pair.

    Leading axes are a batch.  One pass over the sign patterns gives both,
    visiting the patterns in the same chunks as a value alone, and the
    backward step of a chunk is signs.T @ (pointwise cotangents).
    """
    p = SIDE_P.check(p, "the sign average")
    return _at_witness(_plan_average, tables, tables.shape[-3], p, space, plan, weights, True)


def _plan_average(n: int, p: float, space: NormSpace, plan, weights) -> Callable:
    """The sign average of n members over the plan's patterns, prepared."""
    return _sign_average(n, p, space, _sign_masks(n, plan), weights)


def _sign_average(count, p, space, masks, weights, tile=_TILE_ENTRIES) -> Callable:
    """The sign average of `count` members over the patterns `masks` (the
    plan's from `_sign_masks`, or any others for an oracle) under point
    `weights`, prepared: each tile finishes its terms and cotangents."""
    sweep = _SignSweep(count, len(weights), space, masks, tile)
    lower, root, patterns = p - 1.0, 1.0 / p, float(sweep.patterns)

    def finish(pointwise, derivative, start):
        raised = pointwise**lower  # w ||.||^(p-1), the factors of the gradient
        raised *= weights[start : start + raised.shape[-1]]
        if derivative is not None:
            derivative *= raised[..., None]
        pointwise *= raised
        return pointwise, derivative

    def side(tables, with_gradient=False):
        *lead, count, points, m = tables.shape
        total = np.zeros(lead)
        gradient = np.zeros((*lead, count, points * m)) if with_gradient else None
        sweep.run(tables, finish, _add_chunk, (total, gradient), with_gradient)
        value = np.float_power(total / patterns, root)
        if with_gradient:
            gradient *= _root_factor(value, p, patterns)[..., None, None]
            gradient = gradient.reshape(tables.shape)
        return value, gradient

    return side


def _add_chunk(state, signs, terms, slopes) -> None:
    """The sign average's reduction: a chunk's terms into the total and, with
    a gradient, signs.T @ its cotangents into the gradient, in place."""
    total, gradient = state
    if gradient is not None:
        gradient += signs.T @ slopes.reshape(*gradient.shape[:-2], len(signs), -1)
    total += terms.reshape(*total.shape, -1).sum(axis=-1)


def _largest_transform(count, p, space, weights, masks=None, tile=_TILE_ENTRIES) -> Callable:
    """The sweep's maximum, as `_sign_average` is its mean, prepared: for
    (..., count, points, m) tables under point `weights`, the signs of the
    first pattern (ascending bitmask) whose || sum_i delta_i t_i ||_{L_p} is
    the largest, among the patterns whose last sign is +1 unless `masks`
    gives others (see `_sign_masks`).

    A pattern and its negation give the same norm, and the one with last
    sign +1 has the smaller mask, so this is the first largest pattern of
    all 2^count.  Leading axes are a batch, and each row gets its own
    pattern.  Exact enumeration's member limit applies.
    """
    if masks is None:  # the exact plan's patterns (None), once its member limit is checked
        masks = _sign_masks(count, RademacherAveragePlan(mode="exact"))
    sweep = _SignSweep(count, len(weights), space, masks, tile)

    def finish(norms, derivative, start):
        return norms**p, None

    def keep(best, signs, powers, _):
        # Only ranks the patterns.  Many tie by symmetry, and the rounding of
        # this reduction picks among them, so it fixes the search's witnesses.
        powered = powers @ weights
        top, k = powered.max(axis=-1), powered.argmax(axis=-1)
        if best[0] is None:
            best[:] = top, signs[k]
        else:  # a later chunk wins only where it is strictly larger
            better = top > best[0]
            best[:] = np.where(better, top, best[0]), np.where(better[..., None], signs[k], best[1])

    def largest(tables):
        best = [None, None]
        sweep.run(tables, finish, keep, best)
        return best[1]

    return largest


def _transform_norm(p: float, space: NormSpace, weights: np.ndarray, pattern) -> Callable:
    """|| sum_i delta_i t_i ||_{L_p} for (..., count, points, m) tables at the
    (..., count) signs `pattern(tables)`, one pattern per batch row, prepared
    as `_lp_side` is, its gradient in `tables`."""
    norm = _lp_side(None, p, space, None, weights)

    def side(tables, with_gradient=False):
        signs = pattern(tables)
        *lead, count, points, m = tables.shape
        flat = tables.reshape(*lead, count, points * m)
        combination = (signs[..., None, :] @ flat).reshape(*lead, points, m)
        value, gradient = norm(combination, with_gradient)
        if gradient is not None:
            gradient = signs[..., None, None] * gradient[..., None, :, :]
        return value, gradient

    return side


def _reduce_last(ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
    """`ufunc.reduce` over the last axis, column by column when that axis is short.

    numpy reduces a short contiguous last axis several times slower than
    m - 1 whole-table passes.  Below 8 columns numpy also sums in plain
    left-to-right order, so both routes give the same bits.
    """
    m = table.shape[-1]
    if m >= 8:
        return ufunc.reduce(table, axis=-1)
    if m == 1:
        return table[..., 0].copy()
    out = ufunc(table[..., 0], table[..., 1])
    for j in range(2, m):
        ufunc(out, table[..., j], out=out)
    return out


def rademacher_average(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """(2^-n sum_delta || sum_i delta_i g_i ||_{L_p}^p)^(1/p) over delta in C_n."""
    return signed_combination_average(family.stacked(), p, space, plan)


def _values(sides) -> tuple[float, ...]:
    """The values of prepared sides' `(value, gradient)` on one witness (no
    batch axes), as floats."""
    return tuple(float(value) for value, _ in sides)


def _checked_ratio(lhs: float, rhs: float, degenerate: str) -> float:
    """lhs / rhs, or `DegenerateInputError(degenerate)` when rhs is below 1e-14."""
    if rhs < DEGENERATE_EPS:
        raise DegenerateInputError(degenerate)
    return lhs / rhs
