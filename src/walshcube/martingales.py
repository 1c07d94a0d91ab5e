"""Finite filtered probability spaces and martingale transform ratios.

Two kinds of filtration are supported: the coordinate filtration of the
hypercube (uniform measure, level i generated by the first i coordinates),
a rule that stores no level tables, and finite rooted trees with arbitrary
branching and point masses.  All estimated constants are witnessed lower
bounds over this finite class.

The four martingale functionals (umd, umd-plus, umd-minus,
martingale-type) are defined here once, by raw builders that read one
view of increments, `_Increments`: built from any `MartingaleSequence`
for `eval` and the ratios below, or from raw functions, as their dyadic
martingales, for the search and its certificates.  The ratios are the
builders' values on one martingale, through `norms._at_witness`.  The umd
maximum is the `norms` sign sweep's max on the increments; no sign-pattern
rule is stated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercube import (
    HypercubeFunction,
    SignAssignment,
    _check_dimension,
    _check_index,
    _echo,
    _json_int,
)
from .norms import (
    OPEN_P,
    SIDE_P,
    TYPE_P,
    NormSpace,
    RademacherAveragePlan,
    _at_witness,
    _checked_ratio,
    _composed,
    _largest_transform,
    _lp_side,
    _lp_value,
    _plan_average,
    _transform_norm,
    _uniform,
    _values,
)
from .operators import _condition, _difference_each, _dyadic_levels, _level_differences

__all__ = [
    "FiniteFiltration",
    "MartingaleSequence",
    "make_dyadic_martingale",
    "martingale_lp_norm",
    "umd_ratio",
    "umd_maximum_gradient",
    "umd_plus_ratio",
    "umd_minus_ratio",
    "martingale_type_ratio",
]

MARTINGALE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteFiltration:
    """An increasing sequence of partitions of a finite probability space.

    `cells(i)` maps each sample point to its level-i cell id; level 0 is
    the trivial partition and each level refines the previous one.  A tree
    stores its validated `levels`; the coordinate filtration of C_n (kind
    "dyadic-hypercube", uniform measure) is a rule and stores none.  It may
    be given `probabilities`, `levels`, both or neither, and any it gives
    must equal the rule exactly.
    """

    kind: str
    n: int
    probabilities: np.ndarray | None = None
    levels: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "dyadic-hypercube":
            self._follow_the_rule()
        elif self.kind == "tree":
            self._check_tree()
        else:
            raise ValueError(f"unknown filtration kind {_echo(self.kind)}")

    def _follow_the_rule(self) -> None:
        _check_dimension(self.n)
        given_probs, given_levels = self.probabilities, self.levels
        probs = np.full(1 << self.n, 1.0 / (1 << self.n))
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "levels", None)
        same = given_probs is None or np.array_equal(np.asarray(given_probs, np.float64), probs)
        if given_levels is not None:
            # One level at a time, so at most one level of the rule's ids exists at once.
            same = same and len(given_levels) == self.n + 1 and all(
                np.array_equal(_cell_ids(lvl, i, self.size), self.cells(i))
                for i, lvl in enumerate(given_levels)
            )
        if not same:
            raise ValueError(
                "a dyadic-hypercube filtration must have the levels and probabilities "
                "of the coordinate filtration; use kind 'tree' otherwise"
            )

    def _check_tree(self) -> None:
        if self.probabilities is None or self.levels is None:
            raise ValueError("a tree filtration needs its probabilities and levels")
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probabilities must be a nonempty vector")
        # Written so that a NaN anywhere fails: every comparison with NaN is False.
        if not np.all(probs > 0.0):
            raise ValueError("point probabilities must be positive")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise ValueError("point probabilities must sum to 1 within 1e-12")
        if len(self.levels) != self.n + 1:
            raise ValueError(f"need {self.n + 1} levels for {self.n} steps, got {len(self.levels)}")
        size = probs.size
        # Relabel sparse ids compactly (order kept): no table is sized by an input id.
        levels = tuple(
            np.unique(ids, return_inverse=True)[1] if ids.max() >= size else ids
            for ids in (_cell_ids(lvl, i, size) for i, lvl in enumerate(self.levels))
        )
        if np.any(levels[0] != levels[0][0]):
            raise ValueError("level 0 must be the trivial partition")
        parent_of = np.empty(size, dtype=np.int64)
        for i in range(1, len(levels)):
            # Refinement: every level-i cell sits inside a single level-(i-1) cell.
            child, parent = levels[i], levels[i - 1]
            parent_of[child] = parent
            if np.any(parent_of[child] != parent):
                raise ValueError(f"level {i} does not refine level {i - 1}")
        probs.setflags(write=False)
        for lvl in levels:
            lvl.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "levels", levels)

    @property
    def size(self) -> int:
        return self.probabilities.shape[0]

    @classmethod
    def dyadic(cls, n: int) -> "FiniteFiltration":
        """The coordinate filtration of C_n: level i groups points by their low i bits."""
        return cls(kind="dyadic-hypercube", n=n)

    @classmethod
    def tree(cls, levels, probabilities) -> "FiniteFiltration":
        return cls(kind="tree", n=len(levels) - 1, probabilities=probabilities, levels=levels)

    def cells(self, level: int) -> np.ndarray:
        """Each point's level-`level` cell id: a tree's stored table, or the
        point's low `level` bits on the coordinate filtration."""
        _check_index(level, 0, self.n, "level")
        if self.levels is not None:
            return self.levels[level]
        return np.arange(self.size, dtype=np.int64) & ((1 << level) - 1)

    def condition(self, table: np.ndarray, level: int) -> np.ndarray:
        """Probability-weighted cell averages of a (size, m) value table."""
        cells, size, m = self.cells(level), self.size, table.shape[1]
        # Ids are below the point count (construction relabels larger ones),
        # so `size` cells always suffice.  One bincount over (cell, column)
        # bins sums each bin's points in index order, as a per-column one would.
        mass = np.bincount(cells, weights=self.probabilities, minlength=size)
        averaged = np.bincount(
            (cells[:, None] * m + np.arange(m)).ravel(),
            weights=(self.probabilities[:, None] * table).ravel(),
            minlength=size * m,
        ).reshape(size, m)
        # Empty ids keep average 0 and are never indexed below.
        np.divide(averaged, mass[:, None], out=averaged, where=mass[:, None] > 0.0)
        return averaged[cells]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "probabilities": self.probabilities.tolist(),
            "levels": [self.cells(i).tolist() for i in range(self.n + 1)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteFiltration":
        n = _json_int(data, "n", "filtration")
        return cls(data["kind"], n, data.get("probabilities"), data.get("levels"))


_BOOLEANS = frozenset({bool, np.bool_})


def _cell_ids(level, i: int, size: int) -> np.ndarray:
    """Level `i`'s given ids as int64, one per point, read only here; others are refused.

    A boolean is no id, though numpy reads one among integers as 0 or 1: a
    list is scanned for them by type, at C speed.
    """
    ids = np.asarray(level)
    ids = ids.astype(np.int64, copy=False) if ids.dtype.kind in "iu" else None
    if isinstance(level, (list, tuple)) and not _BOOLEANS.isdisjoint(map(type, level)):
        ids = None
    if ids is None or ids.shape != (size,) or np.any(ids < 0):
        raise ValueError(f"level {i} needs {size} nonnegative integer cell ids, got {_echo(level)}")
    return ids


@dataclass(frozen=True, eq=False)
class MartingaleSequence:
    """An adapted martingale M_0, ..., M_n with values in R^m.

    Construction validates measurability and the martingale property to
    1e-12 (relative to the value scale); inputs violating either are
    rejected so downstream ratios stay meaningful.
    """

    filtration: FiniteFiltration
    m: int
    values: np.ndarray  # (n + 1, size, m)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        expected = (self.filtration.n + 1, self.filtration.size, self.m)
        if values.shape != expected:
            raise ValueError(f"value table must have shape {expected}, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("martingale values must be finite")
        tolerance = MARTINGALE_TOL * max(1.0, float(np.abs(values).max()))
        # Conditioning M_i and M_{i+1} together at level i checks both that
        # M_i is measurable and that M_{i+1} averages back to M_i.
        gaps = []
        for i in range(self.filtration.n + 1):
            pair = values[i : i + 2]
            projected = self.filtration.condition(np.concatenate(pair, axis=1), i)
            gaps.append(np.abs(projected - np.concatenate([values[i]] * len(pair), axis=1)))
        for i, gap in enumerate(gaps):
            if gap[:, : self.m].max() > tolerance:
                raise ValueError(f"level {i} values are not measurable at level {i}")
        for i, gap in enumerate(gaps[:-1]):
            if gap[:, self.m :].max() > tolerance:
                raise ValueError(f"martingale property fails between levels {i} and {i + 1}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, filtration: FiniteFiltration, m: int, values: np.ndarray):
        """A sequence from (n + 1, size, m) float64 values that pass the
        constructor's checks by construction, without running them."""
        values.setflags(write=False)
        sequence = object.__new__(cls)
        object.__setattr__(sequence, "filtration", filtration)
        object.__setattr__(sequence, "m", m)
        object.__setattr__(sequence, "values", values)
        return sequence

    @property
    def steps(self) -> int:
        return self.filtration.n

    def differences(self) -> np.ndarray:
        """The increments d_i = M_i - M_{i-1}, shape (n, size, m)."""
        return _level_differences(self.values)

    def increment(self) -> np.ndarray:
        """M_n - M_0 as a (size, m) table."""
        return self.values[-1] - self.values[0]

    def to_json_dict(self) -> dict:
        return {
            "filtration": self.filtration.to_json_dict(),
            "m": self.m,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MartingaleSequence":
        spec, values = data["filtration"], np.asarray(data["values"], dtype=np.float64)
        if spec["kind"] == "dyadic-hypercube":
            # The filtration is built at its declared size, so the values'
            # shape is checked against that size first.  A matching first
            # axis bounds n by the input's length before 2^n is formed.
            n = _json_int(spec, "n", "filtration")
            if not (values.ndim >= 2 and values.shape[0] == n + 1 and values.shape[1] == 1 << n):
                raise ValueError(
                    f"a dyadic-hypercube filtration of {n} steps needs values of leading "
                    f"shape ({n} + 1, 2^{n}), got {values.shape}"
                )
        filtration = FiniteFiltration.from_json_dict(spec)
        return cls(filtration, _json_int(data, "m", "martingale"), values)


def make_dyadic_martingale(f: HypercubeFunction) -> MartingaleSequence:
    """The martingale of conditional expectations of f along the coordinate filtration."""
    values = _dyadic_levels(f.values, f.n)
    # Each level is a mean over whole level cells, so it is measurable and
    # averages back to the level below: the checks hold by construction.
    return MartingaleSequence._trusted(FiniteFiltration.dyadic(f.n), f.m, values)


def martingale_lp_norm(
    table: np.ndarray, p: float, space: NormSpace, probabilities: np.ndarray
) -> float:
    """L_p norm of a (size, m) table under the filtration's point measure."""
    return _lp_value(table, p, space, probabilities)


@dataclass(frozen=True, eq=False)
class _Increments:
    """A martingale as the martingale functionals read it, for `eval` and the
    ratios below: its increments d_i as (steps, size, m), M_n - M_0 as
    (size, m) and its point measure `probs`.  The search passes raw
    functions instead, read as their dyadic martingales."""

    diffs: np.ndarray
    increment: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, M: MartingaleSequence) -> "_Increments":
        return cls(M.differences(), M.increment(), M.filtration.probabilities)

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of M_n - M_0, (size, m), whose vectors the length check reads."""
        return self.increment.shape


# Raw builders, `build(n, p, space, plan, weights=None) -> evaluate` as in
# `inequalities`; x is an `_Increments` view, whose `probs` the builder is
# prepared with, or raw (..., 2^n, m) functions (the search), read as their
# dyadic martingales under the uniform measure, the default.  Each raw side,
# `side(n, p, space, plan, weights)` as in `norms`, reads one part of the
# martingale, the increments d_i (`_DIFFS`) or M_n - M_0 (`_INCREMENT`).

_DIFFS, _INCREMENT = 0, 1

# A gradient with respect to each part, carried back to the raw functions
# (the maps d_i and centring are self-adjoint).
_DYADIC_BACK = (
    lambda g, n: _difference_each(g, n).sum(axis=-3),
    lambda g, n: g - _condition(g, n, 0),
)


def _dyadic_parts(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The increments d_i, as (..., n, 2^n, m), and M_n - M_0 of the dyadic
    martingales of raw (..., 2^n, m) functions f."""
    levels = _dyadic_levels(f, n)
    return _level_differences(levels), f - levels[..., 0, :, :]


def _on_martingales(lhs, rhs):
    """The builder whose sides are `(part, side)` pairs: each side reads its part."""

    def build(n, p, space, plan, weights=None):
        weights = _uniform(1 << n) if weights is None else weights
        sides = [(part, side(n, p, space, plan, weights)) for part, side in (lhs, rhs)]

        def evaluate(x, with_gradient=False):
            raw = not isinstance(x, _Increments)
            parts = _dyadic_parts(x, n) if raw else (x.diffs, x.increment)
            result = []
            for part, side in sides:
                value, gradient = side(parts[part], with_gradient)
                if gradient is not None and raw:
                    gradient = _DYADIC_BACK[part](gradient, n)
                result.append((value, gradient))
            return result

        return evaluate

    return build


def _transform_maximum(n, p, space, plan, weights):
    """max over delta of || sum_i delta_i d_i ||_{L_p}, differentiated through
    each row's first pattern reaching it, the pattern `umd_ratio` reports."""
    return _transform_norm(p, space, weights, _largest_transform(n, p, space, weights))


def _fixed_transform(signs: np.ndarray):
    """The raw side || sum_i delta_i d_i ||_{L_p} at the one pattern `signs`."""
    return lambda n, p, space, plan, weights: _transform_norm(p, space, weights, lambda _: signs)


def _step_sum(n, s, space, plan, weights):
    """(sum_i || d_i ||_{L_s}^s)^(1/s): one L_s sum over all (step, point) pairs."""
    return _composed(
        lambda diffs: diffs.reshape(*diffs.shape[:-3], -1, diffs.shape[-1]),
        _lp_side(n, s, space, plan, np.tile(weights, n)),
        lambda g: g.reshape(*g.shape[:-2], n, -1, g.shape[-1]),
    )


_umd_build = _on_martingales((_DIFFS, _transform_maximum), (_INCREMENT, _lp_side))
_umd_plus_build = _on_martingales((_DIFFS, _plan_average), (_INCREMENT, _lp_side))
_umd_minus_build = _on_martingales((_INCREMENT, _lp_side), (_DIFFS, _plan_average))
_martingale_type_build = _on_martingales((_INCREMENT, _lp_side), (_DIFFS, _step_sum))


def _ratio(build, M: MartingaleSequence, p, space, plan, degenerate: str) -> float:
    """The ratio of builder `build`'s sides at martingale M, or
    `DegenerateInputError(degenerate)`."""
    v = _Increments.of(M)
    sides = _values(_at_witness(build, v, M.steps, p, space, plan, v.probs))
    return _checked_ratio(*sides, degenerate)


def umd_ratio(
    M: MartingaleSequence,
    p: float,
    space: NormSpace,
    signs: SignAssignment | None = None,
) -> float:
    """|| sum_i delta_i d_i ||_{L_p} / || M_n - M_0 ||_{L_p}.

    With `signs` given the single transform is evaluated; otherwise the
    largest ratio over all 2^n sign patterns is returned, found among the
    2^(n-1) whose last sign is +1 (delta and -delta give the same norm).
    """
    p = OPEN_P.check(p, "the martingale transform ratio")
    build = _umd_build
    if signs is not None:
        if signs.n != M.steps:
            raise ValueError(f"sign assignment on {signs.n} steps for a {M.steps}-step martingale")
        build = _on_martingales((_DIFFS, _fixed_transform(signs.signs())), (_INCREMENT, _lp_side))
    return _ratio(build, M, p, space, None, "constant martingale has no transform ratio")


def umd_maximum_gradient(
    diffs: np.ndarray, p: float, space: NormSpace, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """max over delta of || sum_i delta_i d_i ||_{L_p} and its gradient in
    `diffs`, as a `(value, gradient)` pair from one sweep.

    `diffs` is (..., n, size, m) with leading batch axes, and p any finite
    p > 0, checked before anything is swept.  Each row is differentiated
    through the first pattern reaching its maximum, the pattern `umd_ratio`
    reports.
    """
    p = SIDE_P.check(p, "the raw L_p norm")
    return _at_witness(_transform_maximum, diffs, diffs.shape[-3], p, space, None, probs, True)


def umd_plus_ratio(
    M: MartingaleSequence, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged transform norm over the final increment norm."""
    p = OPEN_P.check(p, "the martingale transform ratio")
    return _ratio(_umd_plus_build, M, p, space, plan, "constant martingale has no transform ratio")


def umd_minus_ratio(
    M: MartingaleSequence, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Final increment norm over the sign-averaged transform norm."""
    p = OPEN_P.check(p, "the martingale transform ratio")
    return _ratio(_umd_minus_build, M, p, space, plan, "sign-averaged transform norm is degenerate")


def martingale_type_ratio(M: MartingaleSequence, s: float, space: NormSpace) -> float:
    """|| M_n - M_0 ||_{L_s} over the ell_s sum of increment norms."""
    s = TYPE_P.check(s, "the martingale type ratio")
    degenerate = "constant martingale has no type ratio"
    return _ratio(_martingale_type_build, M, s, space, None, degenerate)
