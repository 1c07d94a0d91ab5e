"""Operator layer: derivatives, averaging, conditional expectations, Laplacians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from walshcube.hypercube import (
    HypercubeFunction,
    subset_sizes,
    walsh_forward,
    walsh_forward_naive,
    walsh_inverse,
)
from walshcube.operators import (
    Permutation,
    averaging_operator,
    conditional_expectation,
    conditional_expectation_permuted,
    fractional_laplacian,
    martingale_difference,
    partial_derivative,
    rademacher_projection,
)

from _naive import conditional_expectation_sum


def random_function(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))


class TestPartialDerivative:
    def test_constant_maps_to_zero(self):
        f = HypercubeFunction.constant(4, np.array([3.0, -1.0]))
        assert_allclose(partial_derivative(f, 2).values, 0.0)

    def test_own_character_is_fixed(self):
        f = HypercubeFunction.character(4, 0b0100, np.array([1.0]))
        assert_allclose(partial_derivative(f, 3).values, f.values)

    def test_hand_case_n2(self):
        f = HypercubeFunction.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert_allclose(
            partial_derivative(f, 1).values[:, 0], [-0.5, 0.5, -0.5, 0.5]
        )

    def test_antisymmetric_under_flip(self):
        f = random_function(5, 2, seed=4)
        d = partial_derivative(f, 3).values
        flipped = d[np.arange(32) ^ 0b100]
        assert_allclose(flipped, -d)

    def test_out_of_range_coordinate(self):
        f = random_function(3, 1)
        with pytest.raises(ValueError, match="coordinate"):
            partial_derivative(f, 4)

    def test_idempotent_and_commuting(self):
        f = random_function(6, 2, seed=9)
        d2 = partial_derivative(f, 2)
        assert_allclose(partial_derivative(d2, 2).values, d2.values, rtol=1e-12, atol=1e-15)
        ab = partial_derivative(partial_derivative(f, 1), 5)
        ba = partial_derivative(partial_derivative(f, 5), 1)
        assert_allclose(ab.values, ba.values, rtol=1e-12, atol=1e-15)

    def test_spectral_action_keeps_containing_subsets(self):
        f = random_function(6, 1, seed=12)
        i = 4
        got = walsh_forward_naive(partial_derivative(f, i)).coefficients
        base = walsh_forward_naive(f).coefficients
        masks = np.arange(64)
        keeps = (masks & (1 << (i - 1))) != 0
        assert_allclose(got[keeps], base[keeps], rtol=1e-12, atol=1e-14)
        assert_allclose(got[~keeps], 0.0, atol=1e-14)


class TestAveragingOperator:
    def test_kills_own_character(self):
        f = HypercubeFunction.character(3, 0b010, np.array([2.0]))
        assert_allclose(averaging_operator(f, 2).values, 0.0, atol=1e-15)

    def test_fixes_constants(self):
        f = HypercubeFunction.constant(3, np.array([1.5]))
        assert_allclose(averaging_operator(f, 1).values, f.values)

    def test_complements_derivative(self):
        f = random_function(5, 3, seed=21)
        for i in range(1, 6):
            total = averaging_operator(f, i).values + partial_derivative(f, i).values
            assert_allclose(total, f.values, rtol=1e-12, atol=1e-15)

    def test_annihilates_derivative(self):
        f = random_function(5, 2, seed=22)
        composed = averaging_operator(partial_derivative(f, 2), 2)
        assert_allclose(composed.values, 0.0, atol=1e-14)

    def test_spectral_action_keeps_disjoint_subsets(self):
        f = random_function(6, 1, seed=23)
        i = 2
        got = walsh_forward_naive(averaging_operator(f, i)).coefficients
        base = walsh_forward_naive(f).coefficients
        masks = np.arange(64)
        keeps = (masks & (1 << (i - 1))) == 0
        assert_allclose(got[keeps], base[keeps], rtol=1e-12, atol=1e-14)
        assert_allclose(got[~keeps], 0.0, atol=1e-14)


class TestConditionalExpectation:
    def test_top_level_is_identity(self):
        f = random_function(5, 2, seed=31)
        assert conditional_expectation(f, 5) is f

    def test_level_zero_is_mean(self):
        f = random_function(5, 2, seed=32)
        out = conditional_expectation(f, 0)
        assert_allclose(out.values, np.tile(f.mean(), (32, 1)), rtol=1e-12)

    def test_matches_defining_sum(self):
        f = random_function(6, 2, seed=33)
        for level in range(7):
            got = conditional_expectation(f, level).values
            assert_allclose(got, conditional_expectation_sum(f, level), rtol=1e-12, atol=1e-14)

    def test_matches_averaging_composition(self):
        f = random_function(6, 2, seed=34)
        level = 3
        composed = f
        for i in range(f.n, level, -1):
            composed = averaging_operator(composed, i)
        got = conditional_expectation(f, level)
        assert_allclose(got.values, composed.values, rtol=1e-12, atol=1e-14)

    def test_matches_walsh_truncation_oracle(self):
        f = random_function(6, 2, seed=35)
        level = 3
        spectrum = walsh_forward_naive(f)
        masks = np.arange(64)
        keep = (masks & ~((1 << level) - 1)) == 0
        truncated = np.where(keep[:, None], spectrum.coefficients, 0.0)
        oracle = walsh_inverse(
            type(spectrum)(n=f.n, m=f.m, coefficients=truncated)
        ).values
        assert_allclose(conditional_expectation(f, level).values, oracle, rtol=1e-12, atol=1e-14)

    def test_constant_in_trailing_coordinates(self):
        f = random_function(5, 1, seed=36)
        out = conditional_expectation(f, 2).values
        for k in range(32):
            assert out[k, 0] == out[k & 0b11, 0]

    def test_level_out_of_range(self):
        f = random_function(3, 1)
        with pytest.raises(ValueError, match="level"):
            conditional_expectation(f, 4)

    def test_self_adjoint(self):
        rng = np.random.default_rng(37)
        f = random_function(5, 3, seed=38)
        g = random_function(5, 3, seed=39)
        for level in (0, 2, 5):
            ef = conditional_expectation(f, level).values
            eg = conditional_expectation(g, level).values
            lhs = np.mean(np.einsum("km,km->k", ef, g.values))
            rhs = np.mean(np.einsum("km,km->k", f.values, eg))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestPermutedConditionalExpectation:
    def test_identity_permutation_matches_plain(self):
        f = random_function(5, 2, seed=41)
        pi = Permutation.identity(5)
        for level in range(6):
            assert_allclose(
                conditional_expectation_permuted(f, pi, level).values,
                conditional_expectation(f, level).values,
                rtol=1e-12,
                atol=1e-13,
            )

    def test_level_zero_is_mean_for_any_permutation(self):
        f = random_function(4, 2, seed=42)
        pi = Permutation(n=4, image=(3, 1, 4, 2))
        out = conditional_expectation_permuted(f, pi, 0)
        assert_allclose(out.values, np.tile(f.mean(), (16, 1)), rtol=1e-12, atol=1e-13)

    def test_walsh_restriction_rule(self):
        pi = Permutation(n=4, image=(2, 4, 1, 3))
        kept = HypercubeFunction.character(4, 0b1010, np.array([1.0]))  # A = {2,4}
        dropped = HypercubeFunction.character(4, 0b0001, np.array([1.0]))  # A = {1}
        assert_allclose(
            conditional_expectation_permuted(kept, pi, 2).values, kept.values, rtol=1e-12
        )
        assert_allclose(conditional_expectation_permuted(dropped, pi, 2).values, 0.0, atol=1e-13)

    def test_matches_averaging_over_complement(self):
        # Independent oracle: averaging over every coordinate outside the
        # prefix set, at every level of several permutations.
        f = random_function(5, 2, seed=43)
        images = [(4, 2, 5, 1, 3), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (2, 5, 3, 1, 4)]
        for pi in (Permutation(n=5, image=image) for image in images):
            for level in range(6):
                prefix = {pi(j) for j in range(1, level + 1)}
                oracle = f
                for i in range(1, 6):
                    if i not in prefix:
                        oracle = averaging_operator(oracle, i)
                got = conditional_expectation_permuted(f, pi, level)
                assert_allclose(got.values, oracle.values, rtol=1e-12, atol=1e-13)

    def test_permutation_validation(self):
        with pytest.raises(ValueError, match="permutation"):
            Permutation(n=3, image=(1, 1, 3))
        pi = Permutation(n=3, image=(2, 3, 1))
        assert pi.inverse().image == (3, 1, 2)
        assert pi.prefix_mask(2) == 0b110


class TestFractionalLaplacian:
    def test_single_character_eigenfunction(self):
        v = np.array([1.0, 2.0])
        f = HypercubeFunction.character(5, 0b10101, v)  # |A| = 3
        for alpha in (-1.0, -0.5, 0.0, 1.0, 2.0):
            out = fractional_laplacian(f, alpha)
            assert_allclose(out.values, (3.0**alpha) * f.values, rtol=1e-12)

    def test_constant_annihilated_for_any_alpha(self):
        f = HypercubeFunction.constant(4, np.array([7.0]))
        for alpha in (-2.0, 0.0, 3.0):
            assert_allclose(fractional_laplacian(f, alpha).values, 0.0, atol=1e-13)

    def test_zeroth_power_removes_mean(self):
        f = random_function(5, 2, seed=51)
        expected = f.values - f.mean()
        assert_allclose(fractional_laplacian(f, 0.0).values, expected, rtol=1e-12, atol=1e-13)

    def test_inverse_composes_to_mean_removal(self):
        f = random_function(6, 2, seed=52)
        out = fractional_laplacian(fractional_laplacian(f, 1.0), -1.0)
        assert_allclose(out.values, f.values - f.mean(), rtol=1e-10, atol=1e-12)

    def test_inverse_cancels_derivative_sum(self):
        # sum_i d_i multiplies fhat(A) by |A|, so Delta^-1 applied to it removes the mean.
        f = random_function(6, 2, seed=53)
        summed = partial_derivative(f, 1)
        for i in range(2, 7):
            summed = summed + partial_derivative(f, i)
        out = fractional_laplacian(summed, -1.0)
        assert_allclose(out.values, f.values - f.mean(), rtol=1e-10, atol=1e-12)

    def test_rejects_non_finite_alpha(self):
        f = random_function(3, 1)
        with pytest.raises(ValueError, match="finite"):
            fractional_laplacian(f, np.inf)


class TestRademacherProjection:
    def test_fixes_degree_one(self):
        f = HypercubeFunction.character(4, 0b0010, np.array([1.0, -1.0]))
        assert_allclose(rademacher_projection(f).values, f.values, rtol=1e-12)

    def test_kills_constant_and_higher_degrees(self):
        const = HypercubeFunction.constant(4, np.array([2.0]))
        pair = HypercubeFunction.character(4, 0b0011, np.array([1.0]))
        assert_allclose(rademacher_projection(const).values, 0.0, atol=1e-13)
        assert_allclose(rademacher_projection(pair).values, 0.0, atol=1e-13)

    def test_idempotent(self):
        f = random_function(5, 2, seed=61)
        once = rademacher_projection(f)
        twice = rademacher_projection(once)
        assert_allclose(twice.values, once.values, rtol=1e-12, atol=1e-14)

    def test_matches_naive_spectrum_sum(self):
        f = random_function(5, 2, seed=62)
        coeffs = walsh_forward_naive(f).coefficients
        expected = np.zeros_like(f.values)
        for i in range(5):
            mask = 1 << i
            signs = 1.0 - 2.0 * ((np.arange(32) >> i) & 1)
            expected += signs[:, None] * coeffs[mask]
        assert_allclose(rademacher_projection(f).values, expected, rtol=1e-12, atol=1e-14)


class TestMartingaleDifference:
    def test_constant_gives_zero(self):
        f = HypercubeFunction.constant(4, np.array([1.0]))
        for i in range(1, 5):
            assert_allclose(martingale_difference(f, i).values, 0.0, atol=1e-15)

    def test_singleton_enters_at_its_level(self):
        v = np.array([1.0, 3.0])
        f = HypercubeFunction.character(4, 0b0100, v)  # A = {3}
        for i in range(1, 5):
            d = martingale_difference(f, i)
            if i == 3:
                assert_allclose(d.values, f.values, rtol=1e-12)
            else:
                assert_allclose(d.values, 0.0, atol=1e-13)

    def test_dual_formula_agreement(self):
        # d_i f = E_i(d_i f) both as a difference of projections and as the
        # conditional expectation of the i-th derivative.
        f = random_function(6, 2, seed=71)
        for i in range(1, 7):
            direct = martingale_difference(f, i).values
            via_derivative = conditional_expectation(partial_derivative(f, i), i).values
            assert_allclose(direct, via_derivative, rtol=1e-12, atol=1e-14)

    def test_conditionally_centered(self):
        f = random_function(6, 1, seed=72)
        for i in range(1, 7):
            d = martingale_difference(f, i)
            centered = conditional_expectation(d, i - 1)
            assert_allclose(centered.values, 0.0, atol=1e-13)

    def test_telescoping_to_centered_function(self):
        f = random_function(6, 3, seed=73)
        total = martingale_difference(f, 1)
        for i in range(2, 7):
            total = total + martingale_difference(f, i)
        assert_allclose(total.values, f.values - f.mean(), rtol=1e-10, atol=1e-12)

    def test_level_out_of_range(self):
        f = random_function(3, 1)
        with pytest.raises(ValueError, match="coordinate"):
            martingale_difference(f, 0)


def test_spectral_sizes_table():
    assert subset_sizes(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
