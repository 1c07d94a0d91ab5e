"""Left/right functionals for the hypercube inequalities and proof identities.

Each cube functional is defined here once, by its raw builder (the
`_*_build` functions at the end): both sides on raw witness arrays with
leading batch axes, with their gradients, for the search in `estimators`
and for the certified value.  Each builder pairs two named raw sides, each
prepared once per shape, exponent, target, plan and point measure.  The
library form sits beside them, as two sides (`*_lhs`, `*_rhs`) or as a
ratio (`k_convexity_ratio`, `rademacher_type_ratio`), and each is the value
of its builder's side on one witness, through `norms._at_witness`.
`pisier_rhs` alone composes the two public kernels of its builder's side,
`derivative_stack` and `signed_combination_average`, which the benchmark's
tracer counts.  Every library function checks p once, against the same
range constants as the functional table.  A witnessed ratio is a certified lower bound for the
corresponding space constant; upper bounds are out of reach for any
finite search and are never claimed.

Ratios with a denominator below 1e-14 are degenerate (constant inputs make
every inequality 0 <= 0) and are reported through the `degenerate` flag
rather than as numbers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .hypercube import HypercubeFunction, _fwht
from .norms import (
    DEGENERATE_EPS,
    DEVIATION_P,
    OPEN_P,
    TYPE_P,
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    _at_witness,
    _checked_ratio,
    _composed,
    _lp_side,
    _plan_average,
    _uniform,
    _values,
    rademacher_average,
    signed_combination_average,
)
from .operators import (
    _condition,
    _condition_each,
    _degree_one_multiplier,
    _derivative_each,
    _derivatives,
    _difference_each,
    _dyadic_levels,
    _laplacian_multiplier,
    _level_differences,
    _member_flips,
    _walsh_multiply,
    derivative_stack,
)

__all__ = [
    "InequalityReport",
    "pisier_lhs",
    "pisier_rhs",
    "pisier_report",
    "theorem1_lhs",
    "theorem1_rhs",
    "corollary2_lhs",
    "corollary2_rhs",
    "stein_lhs",
    "stein_rhs",
    "verify_symmetrization_identity",
    "hn_remark_lhs",
    "hn_remark_rhs",
    "k_convexity_ratio",
    "rademacher_type_ratio",
    "pisier_envelope",
    "REPORT_CSV_COLUMNS",
]

REPORT_CSV_COLUMNS = ("name", "n", "m", "p", "q", "lhs", "rhs", "ratio", "seed", "mode")


@dataclass(frozen=True)
class InequalityReport:
    """A witnessed two-sided evaluation: lhs, rhs and their ratio.

    The stored parameters (shape, exponents, averaging plan and seed) are
    sufficient to recompute both sides from the same inputs.
    """

    name: str
    lhs: float
    rhs: float
    ratio: float | None
    degenerate: bool
    n: int
    m: int
    p: float
    q: float
    mode: str
    samples: int
    seed: int

    @classmethod
    def build(
        cls,
        name: str,
        lhs: float,
        rhs: float,
        n: int,
        m: int,
        p: float,
        q: float,
        plan: RademacherAveragePlan,
    ) -> "InequalityReport":
        degenerate = rhs < DEGENERATE_EPS
        ratio = None if degenerate else lhs / rhs
        return cls(
            name=name,
            lhs=lhs,
            rhs=rhs,
            ratio=ratio,
            degenerate=degenerate,
            n=n,
            m=m,
            p=p,
            q=q,
            mode=plan.mode,
            samples=plan.samples,
            seed=plan.seed,
        )

    def to_json_dict(self) -> dict:
        return _json_fields(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def csv_row(self) -> tuple:
        data = self.to_json_dict()
        data["ratio"] = "" if self.ratio is None else self.ratio
        return tuple(data[column] for column in REPORT_CSV_COLUMNS)


def _json_fields(record) -> dict:
    """A dataclass record's fields by name, with q = inf written as "inf".

    Shallow on purpose: `asdict` would copy a certificate's witness tuple,
    up to 2^20 entries, element by element.
    """
    data = {field.name: getattr(record, field.name) for field in fields(record)}
    if "q" in data and math.isinf(data["q"]):
        data["q"] = "inf"
    return data


def pisier_envelope(n: int) -> float:
    """The explicit deviation-vs-gradient constant 2 e log n (vacuous at n = 1)."""
    return 2.0 * math.e * math.log(n)


def pisier_lhs(f: HypercubeFunction, p: float, space: NormSpace) -> float:
    """|| f - mean f ||_{L_p}."""
    p = DEVIATION_P.check(p, "the deviation functional")
    return float(_at_witness(_deviation_norm, f.values, f.n, p, space)[0])


def pisier_rhs(
    f: HypercubeFunction, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged norm of sum_i delta_i d_i f."""
    p = DEVIATION_P.check(p, "the deviation functional")
    return signed_combination_average(derivative_stack(f), p, space, plan)


def pisier_report(
    f: HypercubeFunction, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> InequalityReport:
    return InequalityReport.build(
        "pisier",
        pisier_lhs(f, p, space),
        pisier_rhs(f, p, space, plan),
        f.n,
        f.m,
        float(p),
        space.q,
        plan,
    )


def theorem1_lhs(family: FunctionFamily, p: float, space: NormSpace) -> float:
    """|| sum_i (E_i f_i - E_{i-1} f_i) ||_{L_p} for the coordinate filtration."""
    p = OPEN_P.check(p, "the martingale-difference functional")
    return float(_at_witness(_difference_norm, family.stacked(), family.n, p, space)[0])


def theorem1_rhs(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged norm of sum_i delta_i d_i f_i."""
    p = OPEN_P.check(p, "the martingale-difference functional")
    return float(_at_witness(_derivative_average, family.stacked(), family.n, p, space, plan)[0])


def corollary2_lhs(family: FunctionFamily, p: float, space: NormSpace) -> float:
    """|| sum_i Delta^-1 d_i f_i ||_{L_p}."""
    p = OPEN_P.check(p, "the inverse-Laplacian functional")
    return float(_at_witness(_inverse_laplacian_norm, family.stacked(), family.n, p, space)[0])


def _inverse_laplacian_sum(stack, n: int, rows, multiplier) -> np.ndarray:
    """sum_i Delta^-1 d_i g_i for a stacked (..., n, 2^n, m) table, given the
    row table of `_member_flips(n)` and the multiplier of Delta^-1: one Walsh
    multiplier applied to the summed derivatives."""
    return _walsh_multiply(_derivative_each(stack, rows).sum(axis=-3), n, multiplier)


def corollary2_rhs(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Identical right side as the martingale-difference inequality."""
    return theorem1_rhs(family, p, space, plan)


def stein_lhs(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged norm of sum_i delta_i E_i f_i over the coordinate filtration."""
    p = OPEN_P.check(p, "the conditional-expectation functional")
    return float(_at_witness(_condition_average, family.stacked(), family.n, p, space, plan)[0])


def stein_rhs(
    family: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged norm of sum_i delta_i f_i."""
    p = OPEN_P.check(p, "the conditional-expectation functional")
    return rademacher_average(family, p, space, plan)


def verify_symmetrization_identity(family: FunctionFamily) -> float:
    """Max pointwise gap between the permutation average and the inverse-Laplacian sum.

    Averages sum_i E_i^pi d_{pi(i)} f_{pi(i)} over all n! permutations pi
    (n <= 8) and compares with sum_i Delta^-1 d_i f_i.

    E_level^pi keeps exactly the Walsh coefficients A inside the prefix set
    {pi(1), ..., pi(level)}.  So the average weights coefficient A of
    d_i f_i by the number of (pi, level) pairs with pi(level) = i whose
    prefix set contains A, over n!.  These counts come from one pass over
    the (n!, n) permutation table: a bincount of every (member, prefix set)
    pair, then each prefix set's count added into all of its subsets, one
    coordinate bit at a time.  One inverse transform of the weighted
    derivative spectra gives the average.  The enumeration never uses the
    1/|A| multiplier it checks.
    """
    n = family.n
    if n > 8:
        raise ValueError("full permutation enumeration is limited to n <= 8")
    perms = np.array(list(itertools.permutations(range(n))))  # (n!, n), 0-based
    prefixes = np.bitwise_or.accumulate(1 << perms, axis=1)
    counts = np.bincount((perms << n | prefixes).ravel(), minlength=n << n).reshape(n, 1 << n)
    for bit in range(n):  # counts[i, S] += counts[i, S | bit] for S without bit
        halves = counts.reshape(n, -1, 2, 1 << bit)
        halves[:, :, 0] += halves[:, :, 1]
    stack, (_, rows) = family.stacked(), _member_flips(n)
    spectra = _fwht(_derivative_each(stack, rows)) / (1 << n)
    averaged = _fwht((counts[..., None] * spectra).sum(axis=0) / len(perms))
    inverse = _inverse_laplacian_sum(stack, n, rows, _laplacian_multiplier(n, -1.0))
    return float(np.max(np.abs(averaged - inverse)))


def hn_remark_lhs(components: FunctionFamily, p: float, space: NormSpace) -> float:
    """|| sum_i Delta^-1 d_i F_i ||_{L_p}: the left side of corollary2,
    taken on the components F_i."""
    return corollary2_lhs(components, p, space)


def hn_remark_rhs(
    components: FunctionFamily, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> float:
    """Sign-averaged norm of sum_i delta_i F_i (no derivatives on the right)."""
    p = OPEN_P.check(p, "the hn-remark functional")
    return rademacher_average(components, p, space, plan)


def k_convexity_ratio(f: HypercubeFunction, r: float, space: NormSpace) -> float:
    """|| Rad f ||_{L_r} / || f ||_{L_r}; witnessed values lower-bound the
    degree-one projection norm."""
    r = OPEN_P.check(r, "the degree-one projection ratio")
    sides = _values(_at_witness(_k_convexity_build, f.values, f.n, r, space))
    return _checked_ratio(*sides, "zero function has no projection ratio")


def _vector_table(vectors) -> np.ndarray:
    """`vectors` as a non-empty, finite (k, m) float table; anything else is an input error."""
    table = np.asarray(vectors, dtype=np.float64)
    if table.ndim != 2 or table.size == 0:
        raise ValueError(f"'vectors' must be a non-empty (k, m) table, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("'vectors' contains non-finite entries")
    return table


def rademacher_type_ratio(vectors: np.ndarray, s: float, space: NormSpace) -> float:
    """Sign-averaged norm of sum_i delta_i x_i against the ell_s sum of norms.

    Exact enumeration over all sign vectors; at most 20 vectors.
    """
    s = TYPE_P.check(s, "the Rademacher type ratio")
    table = _vector_table(vectors)
    exact = RademacherAveragePlan(mode="exact")
    sides = _values(_at_witness(_rademacher_type_build, table, len(table), s, space, exact))
    return _checked_ratio(*sides, "all-zero vectors have no type ratio")


# Raw sides, `side(n, p, space, plan, weights) -> prepared` as in `norms`, and
# raw builders, `build(n, p, space, plan, weights=None) -> evaluate`, each
# prepared once per shape, exponent, target space, plan and point measure.
# `evaluate(x, with_gradient=False) -> ((lhs, gradient), (rhs, gradient))`
# reads (..., *shape) witness arrays with leading batch axes, and a gradient
# is None unless asked for.  A cube witness's point measure is the uniform
# one, the builders' default.  The linear maps are self-adjoint, so each
# backward step applies the forward map (or, from a stack to one table, its
# member-wise sum).


def _deviation_norm(n, p, space, plan, weights):
    centre = lambda f: f - _condition(f, n, 0)
    return _composed(centre, _lp_side(n, p, space, plan, weights), centre)


def _pisier_average(n, p, space, plan, weights):
    """Sign average of sum_i delta_i d_i f for one function f."""
    flips, rows = _member_flips(n)
    average = _plan_average(n, p, space, plan, weights)
    return _composed(
        lambda f: _derivatives(f, flips), average, lambda g: _derivative_each(g, rows).sum(axis=-3)
    )


def _difference_norm(n, p, space, plan, weights):
    return _composed(
        lambda family: _difference_each(family, n).sum(axis=-3),
        _lp_side(n, p, space, plan, weights),
        lambda g: _level_differences(_dyadic_levels(g, n)),
    )


def _derivative_average(n, p, space, plan, weights):
    """Sign average of sum_i delta_i d_i f_i: the right side of theorem1 and corollary2."""
    _, rows = _member_flips(n)
    each = lambda stack: _derivative_each(stack, rows)
    return _composed(each, _plan_average(n, p, space, plan, weights), each)


def _inverse_laplacian_norm(n, p, space, plan, weights):
    flips, rows = _member_flips(n)
    multiplier = _laplacian_multiplier(n, -1.0)
    return _composed(
        lambda family: _inverse_laplacian_sum(family, n, rows, multiplier),
        _lp_side(n, p, space, plan, weights),
        lambda g: _derivatives(_walsh_multiply(g, n, multiplier), flips),
    )


def _condition_average(n, p, space, plan, weights):
    each = lambda stack: _condition_each(stack, n)
    return _composed(each, _plan_average(n, p, space, plan, weights), each)


def _projection_norm(n, r, space, plan, weights):
    """|| Rad f ||_{L_r}."""
    multiplier = _degree_one_multiplier(n)
    project = lambda f: _walsh_multiply(f, n, multiplier)
    return _composed(project, _lp_side(n, r, space, plan, weights), project)


def _type_average(n, s, space, plan, weights):
    """The sign-averaged || sum_i delta_i x_i ||^s to the power 1/s, for
    (..., k, m) tables of vectors (n = k), each a table of one point."""
    return _composed(
        lambda vectors: vectors[..., None, :],
        _plan_average(n, s, space, plan, weights),
        lambda g: g[..., 0, :],
    )


def _norm_sum(n, s, space, plan, weights):
    """The ell_s sum of || x_i ||: one L_s sum over the n one-point tables."""
    return _lp_side(n, s, space, plan, np.tile(weights, n))


def _paired(lhs, rhs):
    """The builder whose two sides are the raw sides `lhs` and `rhs`, under
    the uniform measure on the cube's points unless `weights` gives one."""

    def build(n, p, space, plan, weights=None):
        weights = _uniform(1 << n) if weights is None else weights
        left, right = lhs(n, p, space, plan, weights), rhs(n, p, space, plan, weights)
        return lambda x, with_gradient=False: (left(x, with_gradient), right(x, with_gradient))

    return build


def _rademacher_type_build(n, s, space, plan, weights=None):
    """The type builder: each of the n vectors is a table of one point of
    unit mass, whatever point measure it is given."""
    return _paired(_type_average, _norm_sum)(n, s, space, plan, _uniform(1))


_pisier_build = _paired(_deviation_norm, _pisier_average)
_theorem1_build = _paired(_difference_norm, _derivative_average)
_corollary2_build = _paired(_inverse_laplacian_norm, _derivative_average)
_stein_build = _paired(_condition_average, _plan_average)
_hn_remark_build = _paired(_inverse_laplacian_norm, _plan_average)
_k_convexity_build = _paired(_projection_norm, _lp_side)  # (|| Rad f ||_{L_r}, || f ||_{L_r})
