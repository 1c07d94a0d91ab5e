"""Linear operators on hypercube functions.

Discrete partial derivatives, coordinate averaging, conditional
expectations with respect to the coordinate filtration (optionally
reordered by a permutation), fractional Laplacians, the degree-one
projection, and martingale differences.  All operators are pure and act
pointwise or through the Walsh spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hypercube import HypercubeFunction, _check_index, _fwht, _own, subset_sizes

__all__ = [
    "Permutation",
    "partial_derivative",
    "derivative_stack",
    "averaging_operator",
    "conditional_expectation",
    "conditional_expectation_permuted",
    "fractional_laplacian",
    "rademacher_projection",
    "martingale_difference",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of coordinates {1, ..., n}, stored as the image table."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError(f"image {self.image} is not a permutation of 1..{self.n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n=n, image=tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.image, start=1):
            inv[j - 1] = i
        return Permutation(n=self.n, image=tuple(inv))

    def prefix_mask(self, level: int) -> int:
        """Bitmask of the coordinate set {pi(1), ..., pi(level)}."""
        _check_index(level, 0, self.n, "level")
        mask = 0
        for j in self.image[:level]:
            mask |= 1 << (j - 1)
        return mask


def _flipped(f: HypercubeFunction, i: int) -> np.ndarray:
    """f(eps with coordinate i flipped), through the flip table of `_derivatives`."""
    _check_index(i, 1, f.n, "coordinate")
    flips, _ = _member_flips(f.n)
    return f.values[flips[i - 1]]


def partial_derivative(f: HypercubeFunction, i: int) -> HypercubeFunction:
    """d_i f(eps) = (f(eps) - f(eps with coordinate i flipped)) / 2."""
    return _own(HypercubeFunction, 0.5 * (f.values - _flipped(f, i)))


def derivative_stack(f: HypercubeFunction) -> np.ndarray:
    """All n partial derivatives stacked to (n, 2^n, m), for the hot paths."""
    flips, _ = _member_flips(f.n)
    return _derivatives(f.values, flips)


def averaging_operator(f: HypercubeFunction, i: int) -> HypercubeFunction:
    """E_i f(eps) = (f(eps) + f(eps with coordinate i flipped)) / 2 = (id - d_i) f."""
    return _own(HypercubeFunction, 0.5 * (f.values + _flipped(f, i)))


def conditional_expectation(f: HypercubeFunction, level: int) -> HypercubeFunction:
    """Average over coordinates level+1 .. n, projecting onto the first `level` coordinates.

    Direct averaging of the defining sum: with the bit convention, the
    trailing coordinates occupy the high bits of the point index, so the
    average is a single mean over the leading reshape axis.
    """
    _check_index(level, 0, f.n, "level")
    if level == f.n:
        return f
    return _own(HypercubeFunction, _condition(f.values, f.n, level))


def conditional_expectation_permuted(
    f: HypercubeFunction, pi: Permutation, level: int
) -> HypercubeFunction:
    """Conditional expectation onto the coordinates {pi(1), ..., pi(level)}.

    A Walsh multiplier: 1 on the subsets of the prefix set, 0 elsewhere.
    """
    if pi.n != f.n:
        raise ValueError(f"permutation on {pi.n} coordinates applied to n={f.n}")
    inside = (np.arange(1 << f.n) & ~pi.prefix_mask(level)) == 0
    return _own(HypercubeFunction, _walsh_multiply(f.values, f.n, inside.astype(np.float64)))


def fractional_laplacian(f: HypercubeFunction, alpha: float) -> HypercubeFunction:
    """Multiply fhat(A) by |A|^alpha for A nonempty and drop the mean term."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    multiplier = _laplacian_multiplier(f.n, alpha)
    return _own(HypercubeFunction, _walsh_multiply(f.values, f.n, multiplier))


def rademacher_projection(f: HypercubeFunction) -> HypercubeFunction:
    """Keep exactly the degree-one Walsh terms fhat({i}) w_{i}."""
    return _own(HypercubeFunction, _walsh_multiply(f.values, f.n, _degree_one_multiplier(f.n)))


def martingale_difference(f: HypercubeFunction, i: int) -> HypercubeFunction:
    """The i-th dyadic martingale difference of f against the coordinate filtration."""
    _check_index(i, 1, f.n, "coordinate")
    return conditional_expectation(f, i) - conditional_expectation(f, i - 1)


# Raw-array forms on (..., 2^n, m) tables and (..., n, 2^n, m) stacks, for
# the analytic gradients of the functionals; leading axes are a batch, and
# every batch row gets the bits it would get alone.  Each map is a
# symmetric matrix on R^(2^n) acting on every column (member by member on a
# stack), so its backward pass applies the same map to the cotangent.


@lru_cache(maxsize=None)
def _member_flips(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2^n) index tables of g_i(eps with coordinate i flipped), all i at once:
    the flipped points of one table, and their rows in a stack's (n 2^n, m) rows."""
    members = np.arange(n)[:, None]
    flips = np.arange(1 << n)[None, :] ^ (1 << members)
    rows = flips + (members << n)
    flips.setflags(write=False)
    rows.setflags(write=False)
    return flips, rows


def _derivative_each(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(d_1 g_1, ..., d_n g_n) for a stacked (..., n, 2^n, m) table, in one gather
    through the row table of `_member_flips(n)`."""
    flat = stack.reshape(*stack.shape[:-3], rows.size, stack.shape[-1])
    return 0.5 * (stack - flat.take(rows, axis=-2))


def _derivatives(values: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """(d_1 f, ..., d_n f) stacked to (..., n, 2^n, m) for (..., 2^n, m) tables f,
    gathered from f itself through the flip table of `_member_flips(n)`:
    `_derivative_each` of n copies of f, with its bits."""
    return 0.5 * (values[..., None, :, :] - values.take(flips, axis=-2))


def _level_mean(values: np.ndarray, n: int, level: int, out=None) -> np.ndarray:
    """E_level f once per level cell: the (B, 2^level, m) means over the trailing
    n - level coordinates of (..., 2^n, m) tables, batch axes flattened to B.

    The one rule for a level mean; `out` only says where the quotient goes.
    """
    block = 1 << level
    tail = 1 << (n - level)
    # add.reduce then divide is what `mean` computes, without its Python wrapper.
    total = np.add.reduce(values.reshape(-1, tail, block, values.shape[-1]), axis=1)
    return np.divide(total, tail, out=out)


def _condition(values: np.ndarray, n: int, level: int) -> np.ndarray:
    """E_level f: the mean over the trailing n - level coordinates of (..., 2^n, m) tables."""
    if level == n:
        return values
    averaged = _level_mean(values, n, level)
    return averaged[:, None].repeat(1 << (n - level), axis=1).reshape(values.shape)


def _dyadic_levels(values: np.ndarray, n: int) -> np.ndarray:
    """(E_0 f, ..., E_n f) of (..., 2^n, m) tables f as one (..., n + 1, 2^n, m) array.

    Each level's means are divided straight into the first row of its
    cells and copied across the rest, so beside the output only one
    level's sums are held; level n is f itself.
    """
    m = values.shape[-1]
    shape = values.shape[:-2] + (n + 1,) + values.shape[-2:]
    levels = np.empty(shape, dtype=np.result_type(values.dtype, 1.0))
    for level in range(n):
        cells = levels.reshape(-1, n + 1, 1 << (n - level), 1 << level, m)[:, level]
        _level_mean(values, n, level, out=cells[:, 0])
        cells[:, 1:] = cells[:, :1]
    levels[..., n, :, :] = values
    return levels


def _level_differences(levels: np.ndarray) -> np.ndarray:
    """The increments M_i - M_{i-1} of (..., n + 1, size, m) martingale levels M_0, ..., M_n:
    ((E_1 - E_0) f, ..., (E_n - E_{n-1}) f) when they are the `_dyadic_levels` of f."""
    return levels[..., 1:, :, :] - levels[..., :-1, :, :]


def _condition_each(stack: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    """(E_{1-shift} g_1, ..., E_{n-shift} g_n) for a stacked (..., n, 2^n, m) table."""
    return np.stack(
        [_condition(stack[..., i - 1, :, :], n, i - shift) for i in range(1, n + 1)], axis=-3
    )


def _difference_each(stack: np.ndarray, n: int) -> np.ndarray:
    """((E_1 - E_0) g_1, ..., (E_n - E_{n-1}) g_n): dyadic martingale differences."""
    return _condition_each(stack, n) - _condition_each(stack, n, shift=1)


def _walsh_multiply(values: np.ndarray, n: int, multiplier: np.ndarray) -> np.ndarray:
    """The Walsh multiplier fhat(A) -> multiplier[A] fhat(A), evaluated back on the cube."""
    return _fwht(_fwht(values) / (1 << n) * multiplier[:, None])


def _laplacian_multiplier(n: int, alpha: float) -> np.ndarray:
    """|A|^alpha for nonempty A and 0 for the empty set: the multiplier of Delta^alpha."""
    sizes = subset_sizes(n).astype(np.float64)
    multiplier = np.zeros(1 << n)
    multiplier[1:] = sizes[1:] ** alpha
    return multiplier


def _degree_one_multiplier(n: int) -> np.ndarray:
    """1 on singletons and 0 elsewhere: the multiplier of the projection Rad."""
    return (subset_sizes(n) == 1).astype(np.float64)
