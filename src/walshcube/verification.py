"""The runnable identity suite behind the `verify` command.

Each check compares two independently computed quantities (an operator
identity, a spectral action, an equality case, the search's analytic
gradient against a central difference, its batched evaluation against
`sides` and against one row at a time, or the halved exact sign sweeps
against every pattern) and reports its largest deviation
against the stated tolerance.  The `corrupt` hook injects a
1e-3 fault into the named check so that pipelines can prove the suite
actually fails when an operator regresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import FUNCTIONAL_NAMES, SearchConfig, SearchObjective
from .hypercube import (
    HypercubeFunction,
    WalshSpectrum,
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
    _largest_transform,
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
    _sign_average,
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
    """Run every identity check at the given sizes and return the results.

    `rounds` random inputs are drawn per check; the reported deviation is
    the worst one seen.
    """
    rng = np.random.default_rng(seed)
    space = NormSpace(m, 2.0)
    plan = RademacherAveragePlan.auto(n, seed=seed)
    sym_n = min(n, 6)  # full S_n enumeration stays affordable

    def fault(name: str) -> float:
        return _FAULT if corrupt == name else 0.0

    results: list[CheckResult] = []

    def record(name: str, deviation: float, tolerance: float) -> None:
        results.append(CheckResult(name=name, deviation=deviation + fault(name), tolerance=tolerance))

    # Transform round trip and the fast/naive agreement.
    worst_round, worst_naive, worst_parseval = 0.0, 0.0, 0.0
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        spectrum = walsh_forward(f)
        worst_round = max(worst_round, _relative_gap(walsh_inverse(spectrum).values, f.values))
        if n <= 10:
            worst_naive = max(
                worst_naive,
                _relative_gap(spectrum.coefficients, walsh_forward_naive(f).coefficients),
            )
        energy_points = float(np.mean(np.sum(f.values**2, axis=1)))
        energy_coeffs = float(np.sum(spectrum.coefficients**2))
        worst_parseval = max(worst_parseval, abs(energy_points - energy_coeffs) / energy_points)
    record("transform-round-trip", worst_round, 1e-12)
    record("fast-vs-naive-transform", worst_naive, 1e-12)
    record("parseval", worst_parseval, 1e-10)

    # Character orthogonality, exact in float64: +-1 products, integer sums below 2^53.
    ortho_n = min(n, 8)
    w = character_matrix(ortho_n)
    gram = w @ w.T
    expected = (1 << ortho_n) * np.eye(1 << ortho_n)
    record("character-orthogonality", float(np.max(np.abs(gram - expected))), 0.0)

    # Pointwise operator identities.
    worst_complement, worst_annihilate = 0.0, 0.0
    worst_composition, worst_truncation = 0.0, 0.0
    worst_dual, worst_centered, worst_telescope = 0.0, 0.0, 0.0
    worst_laplacian = 0.0
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        i = int(rng.integers(1, n + 1))
        level = int(rng.integers(0, n + 1))

        combined = averaging_operator(f, i).values + partial_derivative(f, i).values
        worst_complement = max(worst_complement, _relative_gap(combined, f.values))
        killed = averaging_operator(partial_derivative(f, i), i).values
        worst_annihilate = max(worst_annihilate, _relative_gap(killed, np.zeros_like(killed)))

        composed = f
        for j in range(n, level, -1):
            composed = averaging_operator(composed, j)
        worst_composition = max(
            worst_composition,
            _relative_gap(conditional_expectation(f, level).values, composed.values),
        )

        spectrum = walsh_forward(f)
        keep = (np.arange(1 << n) & ~((1 << level) - 1)) == 0
        truncated = walsh_inverse(
            WalshSpectrum(n=n, m=m, coefficients=np.where(keep[:, None], spectrum.coefficients, 0.0))
        )
        worst_truncation = max(
            worst_truncation,
            _relative_gap(conditional_expectation(f, level).values, truncated.values),
        )

        d = martingale_difference(f, i)
        via = conditional_expectation(partial_derivative(f, i), i)
        worst_dual = max(worst_dual, _relative_gap(d.values, via.values))
        centered = conditional_expectation(d, i - 1).values
        worst_centered = max(worst_centered, _relative_gap(centered, np.zeros_like(centered)))

        total = np.zeros((1 << n, m))
        for j in range(1, n + 1):
            total += martingale_difference(f, j).values
        worst_telescope = max(worst_telescope, _relative_gap(total, f.values - f.mean()))

        summed = np.zeros((1 << n, m))
        for j in range(1, n + 1):
            summed += partial_derivative(f, j).values
        recovered = fractional_laplacian(HypercubeFunction.from_values(summed), -1.0)
        worst_laplacian = max(
            worst_laplacian, _relative_gap(recovered.values, f.values - f.mean())
        )
    record("averaging-complement", worst_complement, 1e-12)
    record("averaging-annihilates-derivative", worst_annihilate, 1e-12)
    record("conditional-expectation-composition", worst_composition, 1e-12)
    record("conditional-expectation-truncation", worst_truncation, 1e-12)
    record("martingale-difference-dual-formula", worst_dual, 1e-12)
    record("martingale-difference-centered", worst_centered, 1e-12)
    record("telescoping", worst_telescope, 1e-10)
    record("laplacian-derivative-sum", worst_laplacian, 1e-10)

    # Spectral actions of the derivative and averaging operators.
    action_n = min(n, 8)
    worst_action = 0.0
    f = _random_function(rng, action_n, m)
    base = walsh_forward_naive(f).coefficients
    masks = np.arange(1 << action_n)
    for i in range(1, action_n + 1):
        contains = (masks & (1 << (i - 1))) != 0
        dspec = walsh_forward_naive(partial_derivative(f, i)).coefficients
        espec = walsh_forward_naive(averaging_operator(f, i)).coefficients
        worst_action = max(
            worst_action,
            _relative_gap(dspec, np.where(contains[:, None], base, 0.0)),
            _relative_gap(espec, np.where(contains[:, None], 0.0, base)),
        )
    record("spectral-actions", worst_action, 1e-12)

    # Self-adjointness of the conditional expectations.
    worst_adjoint = 0.0
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        g = _random_function(rng, n, m)
        level = int(rng.integers(0, n + 1))
        ef = conditional_expectation(f, level).values
        eg = conditional_expectation(g, level).values
        lhs = float(np.mean(np.einsum("km,km->k", ef, g.values)))
        rhs = float(np.mean(np.einsum("km,km->k", f.values, eg)))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(1.0, abs(lhs)))
    record("self-adjointness", worst_adjoint, 1e-10)

    # Symmetrization identity over the full permutation group.
    worst_symmetrization = 0.0
    for _ in range(max(1, rounds // 4)):
        family = _random_family(rng, sym_n, m)
        worst_symmetrization = max(
            worst_symmetrization, verify_symmetrization_identity(family)
        )
    record("symmetrization-identity", worst_symmetrization, 1e-9)

    # Hilbert equality cases at p = 2.
    worst_pisier, worst_stein, worst_umd = 0.0, 0.0, 0.0
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        lhs = pisier_lhs(f, 2.0, space)
        rhs = pisier_rhs(f, 2.0, space, plan)
        if rhs > 1e-12:
            worst_pisier = max(worst_pisier, lhs / rhs - 1.0)
        family = _random_family(rng, min(n, 6), m)
        sl = stein_lhs(family, 2.0, space, plan)
        sr = stein_rhs(family, 2.0, space, plan)
        if sr > 1e-12:
            worst_stein = max(worst_stein, sl / sr - 1.0)
        try:
            M = make_dyadic_martingale(_random_function(rng, min(n, 6), m))
            worst_umd = max(
                worst_umd,
                abs(umd_plus_ratio(M, 2.0, space, plan) - 1.0),
                abs(umd_minus_ratio(M, 2.0, space, plan) - 1.0),
            )
        except DegenerateInputError:
            pass
    record("hilbert-pisier-contraction", max(worst_pisier, 0.0), 1e-9)
    record("hilbert-stein-contraction", max(worst_stein, 0.0), 1e-9)
    record("hilbert-umd-averaged-identity", worst_umd, 1e-9)

    # L_p monotonicity on the probability cube.
    worst_monotone = 0.0
    for _ in range(rounds):
        f = _random_function(rng, n, m)
        grid = [lp_norm(f, p, space) for p in (1.0, 1.5, 2.0, 4.0)]
        worst_monotone = max(
            worst_monotone, max(max(a - b, 0.0) for a, b in zip(grid, grid[1:]))
        )
    record("lp-monotonicity", worst_monotone, 1e-12)

    # Distributional symmetry of the sign average.
    sym_count = min(n, 6)
    family = _random_family(rng, sym_count, m)
    base = rademacher_average(family, 2.0, space, RademacherAveragePlan(mode="exact"))
    rotated = FunctionFamily(family.functions[1:] + family.functions[:1])
    flipped = FunctionFamily((-1.0 * family.functions[0],) + family.functions[1:])
    worst_symmetry = max(
        abs(rademacher_average(rotated, 2.0, space, RademacherAveragePlan(mode="exact")) - base),
        abs(rademacher_average(flipped, 2.0, space, RademacherAveragePlan(mode="exact")) - base),
    ) / max(base, 1e-30)
    record("sign-average-symmetry", worst_symmetry, 1e-12)

    # Scale invariance of the martingale transform ratios.
    worst_scale = 0.0
    for _ in range(max(1, rounds // 4)):
        f = _random_function(rng, min(n, 6), m)
        M = make_dyadic_martingale(f)
        scaled = make_dyadic_martingale(137.5 * f)
        try:
            worst_scale = max(
                worst_scale,
                abs(
                    umd_plus_ratio(M, 2.5, space, plan)
                    - umd_plus_ratio(scaled, 2.5, space, plan)
                ),
            )
        except DegenerateInputError:
            pass
    record("ratio-scale-invariance", worst_scale, 1e-12)

    # Conditional expectation is an L_p contraction on weighted trees.
    filtration = FiniteFiltration.tree(
        [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 1, 2, 3]],
        [0.1, 0.25, 0.15, 0.3, 0.2],
    )
    worst_tree = 0.0
    for _ in range(rounds):
        table = rng.standard_normal((filtration.size, m))
        for p in (1.0, 2.0, 4.0):
            before = martingale_lp_norm(table, p, space, filtration.probabilities)
            for level in range(filtration.n + 1):
                after = martingale_lp_norm(
                    filtration.condition(table, level), p, space, filtration.probabilities
                )
                worst_tree = max(worst_tree, (after - before) / max(before, 1e-30))
    record("tree-contraction", max(worst_tree, 0.0), 1e-12)

    # Analytic search gradients against a central difference along one
    # direction.  The batched raw-array pass at the same three points must
    # give the ratios of `sides` there and, at the first point, the gradient
    # of that row alone; the tests compare every row of larger batches.
    worst_gradient, worst_batched = 0.0, 0.0
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
        worst_gradient = max(worst_gradient, _relative_gap(analytic, numeric))

        ratios, gradients, _ = objective.gradient(batch)
        value_gap = float(np.max(np.abs(ratios - exact) / exact))
        same_row = np.array_equal(gradients[0], alone[0])
        worst_batched = max(worst_batched, value_gap if same_row else math.inf)
    record("gradient-vs-finite-difference", worst_gradient, 1e-6)
    record("batched-vs-single", worst_batched, 1e-12)

    # Exact sweeps visit one of each pair delta, -delta: their average, its
    # gradient and the umd maximum against the same kernels on every pattern.
    worst_halved = 0.0
    exact = RademacherAveragePlan(mode="exact")
    for count, q in ((1, 1.0), (min(n, 3), 3.0), (min(n, 6), math.inf)):
        tables = rng.standard_normal((count, 8, m))
        probs = np.full(8, 1.0 / 8)
        every = np.arange(1 << count)
        target = NormSpace(m, q)
        halved = signed_combination_average_gradient(tables, 2.5, target, exact)
        full = _sign_average(tables, 2.5, target, every)
        maxima = [
            martingale_lp_norm(np.tensordot(signs, tables, axes=(0, 0)), 2.5, target, probs)
            for signs in (
                _largest_transform(tables, 2.5, target, probs),
                _largest_transform(tables, 2.5, target, probs, every),
            )
        ]
        worst_halved = max(
            worst_halved,
            _relative_gap(halved.value, full.value),
            _relative_gap(halved.gradient(), full.gradient()),
            _relative_gap(*maxima),
        )
    record("halved-vs-full-enumeration", worst_halved, 1e-12)

    return results


CHECK_NAMES = (
    "transform-round-trip",
    "fast-vs-naive-transform",
    "parseval",
    "character-orthogonality",
    "averaging-complement",
    "averaging-annihilates-derivative",
    "conditional-expectation-composition",
    "conditional-expectation-truncation",
    "martingale-difference-dual-formula",
    "martingale-difference-centered",
    "telescoping",
    "laplacian-derivative-sum",
    "spectral-actions",
    "self-adjointness",
    "symmetrization-identity",
    "hilbert-pisier-contraction",
    "hilbert-stein-contraction",
    "hilbert-umd-averaged-identity",
    "lp-monotonicity",
    "sign-average-symmetry",
    "ratio-scale-invariance",
    "tree-contraction",
    "gradient-vs-finite-difference",
    "batched-vs-single",
    "halved-vs-full-enumeration",
)
