"""Inequality functionals: both sides, reduction chains, proof identities."""

import math

import numpy as np
import pytest

from walshcube.estimators import functional_report
from walshcube.hypercube import HypercubeFunction, walsh_forward_naive, subset_sizes
from walshcube.inequalities import (
    InequalityReport,
    corollary2_lhs,
    hn_remark_lhs,
    hn_remark_rhs,
    k_convexity_ratio,
    pisier_envelope,
    pisier_lhs,
    pisier_report,
    pisier_rhs,
    rademacher_type_ratio,
    stein_lhs,
    stein_rhs,
    theorem1_lhs,
    theorem1_rhs,
    verify_symmetrization_identity,
)
from walshcube.norms import (
    DegenerateInputError,
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    lp_norm,
    rademacher_average,
)
from walshcube.operators import conditional_expectation, partial_derivative

EXACT = RademacherAveragePlan(mode="exact")


def random_function(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))


def random_family(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return FunctionFamily(
        tuple(HypercubeFunction.from_values(rng.standard_normal((1 << n, m))) for _ in range(n))
    )


class TestPisierFunctionals:
    def test_constant_input_vanishes_on_both_sides(self):
        f = HypercubeFunction.constant(4, np.array([2.0]))
        space = NormSpace(1, 2.0)
        assert pisier_lhs(f, 2.0, space) == 0.0
        assert pisier_rhs(f, 2.0, space, EXACT) == 0.0

    def test_single_character_lhs(self):
        v = np.array([1.0, -1.0])
        f = HypercubeFunction.character(4, 0b1, v)
        space = NormSpace(2, 2.0)
        assert pisier_lhs(f, 3.0, space) == pytest.approx(space.norm(v))

    def test_hand_case_n2(self):
        f = HypercubeFunction.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert pisier_lhs(f, 2.0, NormSpace(1, 2.0)) == pytest.approx(math.sqrt(5.0) / 2.0)

    def test_n1_ratio_is_exactly_one(self):
        # On a single coordinate, f - mean equals the first derivative pointwise.
        f = random_function(1, 2, seed=1)
        space = NormSpace(2, 1.5)
        lhs = pisier_lhs(f, 2.0, space)
        rhs = pisier_rhs(f, 2.0, space, EXACT)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hilbert_rhs_spectral_identity(self):
        f = random_function(5, 2, seed=2)
        space = NormSpace(2, 2.0)
        coeffs = walsh_forward_naive(f).coefficients
        weights = subset_sizes(5).astype(float)
        expected = math.sqrt(float(np.sum(weights[:, None] * coeffs**2)))
        assert pisier_rhs(f, 2.0, space, EXACT) == pytest.approx(expected, rel=1e-12)

    def test_hilbert_ratio_at_most_one(self):
        space = NormSpace(2, 2.0)
        for seed in range(25):
            f = random_function(5, 2, seed=seed)
            lhs = pisier_lhs(f, 2.0, space)
            rhs = pisier_rhs(f, 2.0, space, EXACT)
            assert lhs <= rhs * (1 + 1e-12)

    def test_hilbert_equality_iff_degree_at_most_one(self):
        space = NormSpace(1, 2.0)
        low = HypercubeFunction.character(4, 0b1, np.array([1.0])) + HypercubeFunction.character(
            4, 0b100, np.array([0.5])
        )
        assert pisier_lhs(low, 2.0, space) == pytest.approx(
            pisier_rhs(low, 2.0, space, EXACT), rel=1e-12
        )
        bumped = low + HypercubeFunction.character(4, 0b11, np.array([0.5]))
        assert pisier_lhs(bumped, 2.0, space) < pisier_rhs(bumped, 2.0, space, EXACT) * (1 - 1e-9)

    def test_envelope_holds_on_random_inputs(self):
        for n in (2, 3, 5):
            for p in (1.5, 2.0, 3.0):
                for q in (1.0, 2.0, math.inf):
                    space = NormSpace(2, q)
                    f = random_function(n, 2, seed=int(10 * p) + n)
                    report = pisier_report(f, p, space, EXACT)
                    assert not report.degenerate
                    assert report.ratio <= pisier_envelope(n)

    def test_report_degenerate_flag(self):
        f = HypercubeFunction.constant(3, np.array([1.0]))
        report = pisier_report(f, 2.0, NormSpace(1, 2.0), EXACT)
        assert report.degenerate and report.ratio is None

    def test_report_json_round_trip(self):
        f = random_function(3, 2, seed=3)
        report = pisier_report(f, 2.0, NormSpace(2, math.inf), EXACT)
        back = InequalityReport.from_json_dict(report.to_json_dict())
        assert back == report

    def test_rejects_infinite_p(self):
        f = random_function(2, 1)
        with pytest.raises(ValueError):
            pisier_lhs(f, math.inf, NormSpace(1, 2.0))

    def test_rhs_matches_family_route(self):
        # The stacked fast path and the explicit derivative family agree.
        f = random_function(5, 3, seed=77)
        space = NormSpace(3, 1.5)
        derivatives = FunctionFamily(tuple(partial_derivative(f, i) for i in range(1, f.n + 1)))
        via_family = rademacher_average(derivatives, 2.5, space, EXACT)
        assert pisier_rhs(f, 2.5, space, EXACT) == pytest.approx(via_family, rel=1e-14)


class TestTheorem1Functionals:
    def test_constant_family_vanishes(self):
        f = HypercubeFunction.constant(3, np.array([1.0]))
        family = FunctionFamily((f, f, f))
        space = NormSpace(1, 2.0)
        assert theorem1_lhs(family, 2.0, space) == 0.0
        assert theorem1_rhs(family, 2.0, space, EXACT) == 0.0

    def test_repeated_function_telescopes_to_deviation(self):
        f = random_function(5, 2, seed=4)
        family = FunctionFamily((f,) * 5)
        space = NormSpace(2, 1.5)
        assert theorem1_lhs(family, 2.0, space) == pytest.approx(
            pisier_lhs(f, 2.0, space), rel=1e-10
        )
        assert theorem1_rhs(family, 2.0, space, EXACT) == pytest.approx(
            pisier_rhs(f, 2.0, space, EXACT), rel=1e-12
        )

    def test_lhs_equals_projected_derivative_sum(self):
        family = random_family(5, 2, seed=5)
        space = NormSpace(2, 2.0)
        total = np.zeros((32, 2))
        for i, f in enumerate(family, start=1):
            total += conditional_expectation(partial_derivative(f, i), i).values
        expected = lp_norm(HypercubeFunction.from_values(total), 2.5, space)
        assert theorem1_lhs(family, 2.5, space) == pytest.approx(expected, rel=1e-10)

    def test_hilbert_p2_never_exceeds_rhs(self):
        space = NormSpace(2, 2.0)
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            family = random_family(n, 2, seed=int(rng.integers(0, 2**31)))
            lhs = theorem1_lhs(family, 2.0, space)
            rhs = theorem1_rhs(family, 2.0, space, EXACT)
            assert lhs <= rhs * (1 + 1e-12)


class TestCorollary2Functionals:
    def test_repeated_function_reduces_to_deviation(self):
        f = random_function(5, 2, seed=7)
        family = FunctionFamily((f,) * 5)
        space = NormSpace(2, 2.0)
        assert corollary2_lhs(family, 2.0, space) == pytest.approx(
            pisier_lhs(f, 2.0, space), rel=1e-10
        )

    def test_singleton_characters_pass_through(self):
        n = 4
        vectors = [np.array([1.0, float(i)]) for i in range(1, n + 1)]
        family = FunctionFamily(
            tuple(HypercubeFunction.character(n, 1 << (i - 1), v) for i, v in enumerate(vectors, 1))
        )
        space = NormSpace(2, 2.0)
        total = np.zeros((1 << n, 2))
        for f in family:
            total += f.values
        expected = lp_norm(HypercubeFunction.from_values(total), 2.0, space)
        assert corollary2_lhs(family, 2.0, space) == pytest.approx(expected, rel=1e-12)

    def test_matches_permutation_average_route(self):
        family = random_family(5, 1, seed=8)
        space = NormSpace(1, 2.0)
        deviation = verify_symmetrization_identity(family)
        assert deviation <= 1e-9
        report = functional_report("corollary2", family, 2.0, space, EXACT)
        assert not report.degenerate


class TestSymmetrizationIdentity:
    def test_single_coordinate_is_exact(self):
        family = random_family(1, 2, seed=9)
        assert verify_symmetrization_identity(family) <= 1e-15

    def test_two_coordinates(self):
        family = random_family(2, 3, seed=10)
        assert verify_symmetrization_identity(family) <= 1e-12

    def test_character_family_closed_form(self):
        # Members concentrated on single subsets: the average injects 1/|A|.
        n = 4
        masks = [0b0011, 0b0110, 0b1100, 0b1001]
        family = FunctionFamily(
            tuple(
                HypercubeFunction.character(n, mask, np.array([1.0]))
                for mask in masks
            )
        )
        assert verify_symmetrization_identity(family) <= 1e-12

    def test_random_families_up_to_n8(self):
        for n in range(1, 9):
            family = random_family(n, 2, seed=11 + n)
            assert verify_symmetrization_identity(family) <= 1e-9

    def test_large_n_rejected(self):
        family = random_family(9, 1, seed=13)
        with pytest.raises(ValueError, match="n <= 8"):
            verify_symmetrization_identity(family)


class TestSteinFunctionals:
    def test_adapted_family_has_ratio_one(self):
        # f_i measurable w.r.t. the first i coordinates: E_i f_i = f_i.
        rng = np.random.default_rng(14)
        n, m = 4, 2
        members = []
        for i in range(1, n + 1):
            block = rng.standard_normal((1 << i, m))
            members.append(
                HypercubeFunction.from_values(np.tile(block, (1 << (n - i), 1)))
            )
        family = FunctionFamily(tuple(members))
        space = NormSpace(2, 1.5)
        lhs = stein_lhs(family, 2.5, space, EXACT)
        rhs = stein_rhs(family, 2.5, space, EXACT)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hilbert_contraction(self):
        space = NormSpace(3, 2.0)
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            family = random_family(n, 3, seed=int(rng.integers(0, 2**31)))
            lhs = stein_lhs(family, 2.0, space, EXACT)
            rhs = stein_rhs(family, 2.0, space, EXACT)
            assert lhs <= rhs * (1 + 1e-12)

    def test_last_coordinate_family(self):
        n, m = 4, 2
        v = np.array([1.0, 2.0])
        member = HypercubeFunction.character(n, 1 << (n - 1), v)
        family = FunctionFamily((member,) * n)
        space = NormSpace(2, 2.0)
        # Only the i = n projection survives, so the left side is ||v|| for p = 2.
        assert stein_lhs(family, 2.0, space, EXACT) == pytest.approx(
            space.norm(v), rel=1e-12
        )

    def test_report_labels_filtration_lower_bound(self):
        family = random_family(3, 1, seed=16)
        report = functional_report("stein", family, 2.0, NormSpace(1, 2.0), EXACT)
        assert report.name == "stein"
        assert report.ratio is not None


class TestHnRemark:
    def test_reduction_to_inverse_laplacian_functional(self):
        family = random_family(4, 2, seed=21)
        space = NormSpace(2, 2.0)
        derivatives = FunctionFamily(
            tuple(partial_derivative(f, i) for i, f in enumerate(family, start=1))
        )
        assert hn_remark_lhs(derivatives, 2.0, space) == pytest.approx(
            corollary2_lhs(family, 2.0, space), rel=1e-12
        )

    def test_singleton_components(self):
        n = 3
        vs = [np.array([1.0]), np.array([-2.0]), np.array([0.5])]
        comps = FunctionFamily(
            tuple(HypercubeFunction.character(n, 1 << i, vs[i]) for i in range(n))
        )
        space = NormSpace(1, 2.0)
        total = np.zeros((1 << n, 1))
        for g in comps:
            total += g.values
        assert hn_remark_lhs(comps, 2.0, space) == pytest.approx(
            lp_norm(HypercubeFunction.from_values(total), 2.0, space), rel=1e-12
        )
        assert hn_remark_rhs(comps, 2.0, space, EXACT) == pytest.approx(
            rademacher_average(comps, 2.0, space, EXACT), rel=1e-15
        )

    def test_hilbert_ratio_at_most_one(self):
        space = NormSpace(2, 2.0)
        for seed in range(50):
            comps = random_family(4, 2, seed=100 + seed)
            report = functional_report("hn-remark", comps, 2.0, space, EXACT)
            assert report.ratio <= 1 + 1e-12


class TestKConvexityRatio:
    def test_degree_one_input_is_fixed(self):
        f = HypercubeFunction.character(4, 0b10, np.array([1.0, 2.0]))
        assert k_convexity_ratio(f, 2.0, NormSpace(2, 2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_higher_degree_input_maps_to_zero(self):
        f = HypercubeFunction.character(4, 0b110, np.array([1.0]))
        assert k_convexity_ratio(f, 1.5, NormSpace(1, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_hilbert_contraction(self):
        space = NormSpace(2, 2.0)
        for seed in range(50):
            f = random_function(5, 2, seed=200 + seed)
            assert k_convexity_ratio(f, 2.0, space) <= 1 + 1e-12

    def test_zero_input_degenerate(self):
        f = HypercubeFunction.from_values(np.zeros((8, 1)))
        with pytest.raises(DegenerateInputError):
            k_convexity_ratio(f, 2.0, NormSpace(1, 2.0))


class TestRademacherTypeRatio:
    def test_single_vector(self):
        assert rademacher_type_ratio(
            np.array([[3.0, 4.0]]), 2.0, NormSpace(2, 2.0)
        ) == pytest.approx(1.0)

    def test_hilbert_s2_is_identity(self):
        rng = np.random.default_rng(22)
        vectors = rng.standard_normal((6, 3))
        assert rademacher_type_ratio(vectors, 2.0, NormSpace(3, 2.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_l1_basis_pair_hand_value(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = rademacher_type_ratio(vectors, 2.0, NormSpace(2, 1.0))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateInputError):
            rademacher_type_ratio(np.zeros((3, 2)), 2.0, NormSpace(2, 2.0))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            rademacher_type_ratio(np.eye(2), 2.5, NormSpace(2, 2.0))
