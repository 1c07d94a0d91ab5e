"""The runnable identity suite behind the `verify` command.

Each check compares two independently computed quantities (an operator
identity, a spectral action, an equality case, the search's analytic
gradient against a central difference, its batched evaluation against
`sides` and against one row at a time, the halved exact sign sweeps
against every pattern, the cache-blocked butterfly and the point-tiled
sign sweep against one block or tile holding the whole table, the
one-pass dyadic martingale against the object operators level by level,
or the search's batched halving ladders against the same search one row
at a time) and reports its largest deviation against the stated
tolerance.  The `corrupt` hook injects a 1e-3 fault into the named check
so that pipelines can prove the suite actually fails when an operator
regresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    FUNCTIONAL_NAMES,
    SearchConfig,
    SearchObjective,
    _certify,
    _check_table_budget,
)
from .hypercube import (
    HypercubeFunction,
    WalshSpectrum,
    _echo,
    _fwht,
    character_matrix,
    walsh_forward,
    walsh_forward_naive,
    walsh_inverse,
)
from .inequalities import (
    _json_fields,
    pisier_lhs,
    pisier_rhs,
    stein_lhs,
    stein_rhs,
    verify_symmetrization_identity,
)
from .martingales import (
    FiniteFiltration,
    make_dyadic_martingale,
    martingale_lp_norm,
    umd_minus_ratio,
    umd_plus_ratio,
)
from .norms import (
    DegenerateInputError,
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    _check_seed,
    _largest_transform,
    _sign_average,
    _SignSweep,
    _transform_norm,
    lp_norm,
    rademacher_average,
    signed_combination_average_gradient,
)
from .operators import (
    averaging_operator,
    conditional_expectation,
    fractional_laplacian,
    martingale_difference,
    partial_derivative,
)

__all__ = ["CheckResult", "run_verification_suite", "CHECK_NAMES"]

_FAULT = 1e-3

# Every check, in report order, with the largest deviation it accepts.
_TOLERANCES = {
    "transform-round-trip": 1e-12,
    "fast-vs-naive-transform": 1e-12,
    "parseval": 1e-10,
    "character-orthogonality": 0.0,
    "averaging-complement": 1e-12,
    "averaging-annihilates-derivative": 1e-12,
    "conditional-expectation-composition": 1e-12,
    "conditional-expectation-truncation": 1e-12,
    "martingale-difference-dual-formula": 1e-12,
    "martingale-difference-centered": 1e-12,
    "telescoping": 1e-10,
    "laplacian-derivative-sum": 1e-10,
    "spectral-actions": 1e-12,
    "self-adjointness": 1e-10,
    "symmetrization-identity": 1e-9,
    "hilbert-pisier-contraction": 1e-9,
    "hilbert-stein-contraction": 1e-9,
    "hilbert-umd-averaged-identity": 1e-9,
    "lp-monotonicity": 1e-12,
    "sign-average-symmetry": 1e-12,
    "ratio-scale-invariance": 1e-12,
    "tree-contraction": 1e-12,
    "gradient-vs-finite-difference": 1e-6,
    "batched-vs-single": 0.0,
    "halved-vs-full-enumeration": 1e-12,
    "blocked-vs-whole-butterfly": 0.0,
    "dyadic-levels-vs-operators": 0.0,
    "ladder-vs-one-row-search": 0.0,
    "tiled-vs-whole-sweep": 0.0,
}
CHECK_NAMES = tuple(_TOLERANCES)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def to_json_dict(self) -> dict:
        return {**_json_fields(self), "passed": self.passed}


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _differing_bits(a: np.ndarray, b: np.ndarray) -> float:
    """The number of float64 entries of `a` and `b` whose bits differ."""
    return float(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))


def _random_function(rng, n, m) -> HypercubeFunction:
    return HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))


def _random_family(rng, n, m) -> FunctionFamily:
    return FunctionFamily(tuple(_random_function(rng, n, m) for _ in range(n)))


def run_verification_suite(
    n: int = 6,
    m: int = 2,
    seed: int = 7,
    rounds: int = 20,
    corrupt: str | None = None,
) -> list[CheckResult]:
    """Run every check in `CHECK_NAMES` at the given sizes and return the
    results in that order.

    `rounds` random inputs are drawn per check; the reported deviation is
    the worst one seen, and a NaN deviation fails its check.  `corrupt`
    names one check whose deviation gets an extra 1e-3.  An unknown name,
    a dimension outside [1, MAX_DIMENSION], a (2^n, m) table over the
    search's 2^20-entry witness bound or a negative seed raises
    `ValueError` before anything is drawn.
    """
    if corrupt is not None and corrupt not in _TOLERANCES:
        raise ValueError(f"unknown check {_echo(corrupt)} to corrupt")
    _check_table_budget(n, m, "verify")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    space = NormSpace(m, 2.0)
    plan = RademacherAveragePlan.auto(n, seed=seed)
    exact_plan = RademacherAveragePlan(mode="exact")
    sym_n = min(n, 6)  # full S_n enumeration stays affordable
    worst = dict.fromkeys(_TOLERANCES, 0.0)

    def note(name: str, *deviations: float) -> None:
        worst[name] = max(worst[name], *deviations)
        if any(map(math.isnan, deviations)):
            worst[name] = math.nan  # max() drops it; once noted, it stays and fails

    # Transform round trip and the fast/naive agreement.
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        spectrum = walsh_forward(f)
        note("transform-round-trip", _relative_gap(walsh_inverse(spectrum).values, f.values))
        if n <= 10:
            note(
                "fast-vs-naive-transform",
                _relative_gap(spectrum.coefficients, walsh_forward_naive(f).coefficients),
            )
        energy_points = float(np.mean(np.sum(f.values**2, axis=1)))
        energy_coeffs = float(np.sum(spectrum.coefficients**2))
        note("parseval", abs(energy_points - energy_coeffs) / energy_points)

    # Character orthogonality, exact in float64: +-1 products, integer sums below 2^53.
    ortho_n = min(n, 8)
    w = character_matrix(ortho_n)
    gram = w @ w.T
    expected = (1 << ortho_n) * np.eye(1 << ortho_n)
    note("character-orthogonality", float(np.max(np.abs(gram - expected))))

    # Pointwise operator identities.
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        i = int(rng.integers(1, n + 1))
        level = int(rng.integers(0, n + 1))

        combined = averaging_operator(f, i).values + partial_derivative(f, i).values
        note("averaging-complement", _relative_gap(combined, f.values))
        killed = averaging_operator(partial_derivative(f, i), i).values
        note("averaging-annihilates-derivative", _relative_gap(killed, np.zeros_like(killed)))

        composed = f
        for j in range(n, level, -1):
            composed = averaging_operator(composed, j)
        note(
            "conditional-expectation-composition",
            _relative_gap(conditional_expectation(f, level).values, composed.values),
        )

        spectrum = walsh_forward(f)
        keep = (np.arange(1 << n) & ~((1 << level) - 1)) == 0
        truncated = walsh_inverse(
            WalshSpectrum(n=n, m=m, coefficients=np.where(keep[:, None], spectrum.coefficients, 0.0))
        )
        note(
            "conditional-expectation-truncation",
            _relative_gap(conditional_expectation(f, level).values, truncated.values),
        )

        d = martingale_difference(f, i)
        via = conditional_expectation(partial_derivative(f, i), i)
        note("martingale-difference-dual-formula", _relative_gap(d.values, via.values))
        centered = conditional_expectation(d, i - 1).values
        note("martingale-difference-centered", _relative_gap(centered, np.zeros_like(centered)))

        total = np.zeros((1 << n, m))
        for j in range(1, n + 1):
            total += martingale_difference(f, j).values
        note("telescoping", _relative_gap(total, f.values - f.mean()))

        summed = np.zeros((1 << n, m))
        for j in range(1, n + 1):
            summed += partial_derivative(f, j).values
        recovered = fractional_laplacian(HypercubeFunction.from_values(summed), -1.0)
        note("laplacian-derivative-sum", _relative_gap(recovered.values, f.values - f.mean()))

    # Spectral actions of the derivative and averaging operators.
    action_n = min(n, 8)
    f = _random_function(rng, action_n, m)
    base = walsh_forward_naive(f).coefficients
    masks = np.arange(1 << action_n)
    for i in range(1, action_n + 1):
        contains = (masks & (1 << (i - 1))) != 0
        dspec = walsh_forward_naive(partial_derivative(f, i)).coefficients
        espec = walsh_forward_naive(averaging_operator(f, i)).coefficients
        note(
            "spectral-actions",
            _relative_gap(dspec, np.where(contains[:, None], base, 0.0)),
            _relative_gap(espec, np.where(contains[:, None], 0.0, base)),
        )

    # Self-adjointness of the conditional expectations.
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        g = _random_function(rng, n, m)
        level = int(rng.integers(0, n + 1))
        ef = conditional_expectation(f, level).values
        eg = conditional_expectation(g, level).values
        lhs = float(np.mean(np.einsum("km,km->k", ef, g.values)))
        rhs = float(np.mean(np.einsum("km,km->k", f.values, eg)))
        note("self-adjointness", abs(lhs - rhs) / max(1.0, abs(lhs)))

    # Symmetrization identity over the full permutation group.
    for _ in range(max(1, rounds // 4)):
        family = _random_family(rng, sym_n, m)
        note("symmetrization-identity", verify_symmetrization_identity(family))

    # Hilbert equality cases at p = 2.
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        lhs = pisier_lhs(f, 2.0, space)
        rhs = pisier_rhs(f, 2.0, space, plan)
        if rhs > 1e-12:
            note("hilbert-pisier-contraction", lhs / rhs - 1.0)
        family = _random_family(rng, min(n, 6), m)
        sl = stein_lhs(family, 2.0, space, plan)
        sr = stein_rhs(family, 2.0, space, plan)
        if sr > 1e-12:
            note("hilbert-stein-contraction", sl / sr - 1.0)
        try:
            M = make_dyadic_martingale(_random_function(rng, min(n, 6), m))
            note(
                "hilbert-umd-averaged-identity",
                abs(umd_plus_ratio(M, 2.0, space, plan) - 1.0),
                abs(umd_minus_ratio(M, 2.0, space, plan) - 1.0),
            )
        except DegenerateInputError:
            pass

    # L_p monotonicity on the probability cube.
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        grid = [lp_norm(f, p, space) for p in (1.0, 1.5, 2.0, 4.0)]
        note("lp-monotonicity", max(max(a - b, 0.0) for a, b in zip(grid, grid[1:])))

    # Distributional symmetry of the sign average.
    family = _random_family(rng, sym_n, m)
    base = rademacher_average(family, 2.0, space, exact_plan)
    rotated = FunctionFamily(family.functions[1:] + family.functions[:1])
    flipped = FunctionFamily((-1.0 * family.functions[0],) + family.functions[1:])
    gaps = [abs(rademacher_average(g, 2.0, space, exact_plan) - base) for g in (rotated, flipped)]
    note("sign-average-symmetry", max(gaps) / max(base, 1e-30))

    # Scale invariance of the martingale transform ratios.
    for _ in range(max(1, rounds // 4)):
        f = _random_function(rng, min(n, 6), m)
        M = make_dyadic_martingale(f)
        scaled = make_dyadic_martingale(137.5 * f)
        try:
            plus = [umd_plus_ratio(X, 2.5, space, plan) for X in (M, scaled)]
            note("ratio-scale-invariance", abs(plus[0] - plus[1]))
        except DegenerateInputError:
            pass

    # Conditional expectation is an L_p contraction on weighted trees.
    filtration = FiniteFiltration.tree(
        [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 1, 2, 3]],
        [0.1, 0.25, 0.15, 0.3, 0.2],
    )
    for _ in range(rounds):
        table = rng.standard_normal((filtration.size, m))
        for p in (1.0, 2.0, 4.0):
            before = martingale_lp_norm(table, p, space, filtration.probabilities)
            for level in range(filtration.n + 1):
                after = martingale_lp_norm(
                    filtration.condition(table, level), p, space, filtration.probabilities
                )
                note("tree-contraction", (after - before) / max(before, 1e-30))

    # Analytic search gradients against a central difference along one
    # direction.  The batched raw-array pass at the same three points must
    # give the ratios of `sides` there and, at the first point, the gradient
    # of that row alone, bit for bit (the deviation counts the ratios whose
    # bits differ); the tests compare every row of larger batches.
    h = 1e-6
    for name in FUNCTIONAL_NAMES:
        p = 1.5 if name.endswith("-type") else 2.5
        objective = SearchObjective(
            SearchConfig(functional=name, n=min(n, 3), m=2, p=p, q=3.0, seed=seed)
        )
        x = rng.standard_normal(objective.dimension)
        v = rng.standard_normal(objective.dimension)
        batch = np.stack([x, x + h * v, x - h * v])
        exact = np.array([lhs / rhs for lhs, rhs in map(objective.sides, batch)])
        _, alone, _ = objective.gradient(batch[:1])
        analytic = float(alone[0] @ v)
        numeric = (math.log(exact[1]) - math.log(exact[2])) / (2.0 * h)
        note("gradient-vs-finite-difference", _relative_gap(analytic, numeric))

        ratios, gradients, _ = objective.gradient(batch)
        same_row = np.array_equal(gradients[0], alone[0])
        note("batched-vs-single", _differing_bits(ratios, exact) if same_row else math.inf)

    # Exact sweeps visit one of each pair delta, -delta: their average, its
    # gradient and the umd maximum against the same kernels on every pattern.
    for count, q in ((1, 1.0), (min(n, 3), 3.0), (min(n, 6), math.inf)):
        tables = rng.standard_normal((count, 8, m))
        probs = np.full(8, 1.0 / 8)
        every = np.arange(1 << count)
        target = NormSpace(m, q)
        halved = signed_combination_average_gradient(tables, 2.5, target, exact_plan)
        full, full_gradient = _sign_average(count, 2.5, target, every, probs)(tables, True)
        maxima = [
            _transform_norm(2.5, target, probs)(tables, signs)[0]
            for signs in (
                _largest_transform(count, 2.5, target, probs)(tables),
                _largest_transform(count, 2.5, target, probs, every)(tables),
            )
        ]
        note(
            "halved-vs-full-enumeration",
            _relative_gap(halved.value, full),
            _relative_gap(halved.gradient(), full_gradient),
            _relative_gap(*maxima),
        )

    # The butterfly split into blocks of about sqrt(2^n m) entries, at least 8,
    # so each phase loops O(sqrt(2^n m)) times, against one block holding the
    # whole table: the number of entries whose bits differ.
    table = rng.standard_normal((1 << n, m))
    split = max(8, 1 << table.size.bit_length() // 2)
    blocked, whole = (_fwht(table, block=size) for size in (split, table.size))
    note("blocked-vs-whole-butterfly", _differing_bits(blocked, whole))

    # The dyadic martingale's levels, built in one pass, against the object
    # operators one level at a time: the number of entries whose bits differ.
    f = _random_function(rng, n, m)
    M = make_dyadic_martingale(f)
    levelwise = (martingale_difference(f, i).values for i in range(1, n + 1))
    note(
        "dyadic-levels-vs-operators",
        sum(map(_differing_bits, M.differences(), levelwise))
        + _differing_bits(M.increment(), (f - conditional_expectation(f, 0)).values),
    )

    # A tiny search, whose line search evaluates ladders of halvings in one
    # batch (of two and then four rungs at this seed), against the same search at one
    # row per batch, where every line-search round is one halving of one row:
    # the number of certificate characters that differ.
    config = SearchConfig(
        functional="pisier", n=2, m=1, p=2.5, q=1.0, restarts=1, iterations=1, probes=1, seed=107
    )
    ladder, one_row = (_certify(SearchObjective(config, rows)).to_json() for rows in (None, 1))
    differing = sum(a != b for a, b in zip(ladder, one_row)) + abs(len(ladder) - len(one_row))
    note("ladder-vs-one-row-search", float(differing))

    # The sign sweep in two tiles of points against one tile: its norms at
    # q = 2, and at q = inf what the tiles finish (the sign average's value and
    # gradient, the umd maximum's signs): the number of entries whose bits differ.
    count, points = min(n, 6), 1 << min(n, 7)
    tables = rng.standard_normal((count, points, m))
    masks, weights = np.arange(1 << (count - 1)), rng.dirichlet(np.ones(points))

    def swept(tile):
        norms = []  # each chunk's norms, its tiles unfinished
        sweep = _SignSweep(count, points, NormSpace(m, 2.0), masks, tile)
        keep = lambda kept, signs, pointwise, derivative: kept.append(pointwise)
        sweep.run(tables, lambda *arrays: arrays[:2], keep, norms)
        yield from norms
        space = NormSpace(m, math.inf)
        average = _sign_average(count, 2.5, space, masks, weights, tile)
        yield from (average(tables)[0], average(tables, True)[1])
        yield _largest_transform(count, 2.5, space, weights, masks, tile)(tables)

    whole = len(masks) * points * m
    note("tiled-vs-whole-sweep", sum(map(_differing_bits, swept(whole // 2), swept(whole))))

    if corrupt is not None:
        worst[corrupt] += _FAULT
    return [CheckResult(name, worst[name], tol) for name, tol in _TOLERANCES.items()]
