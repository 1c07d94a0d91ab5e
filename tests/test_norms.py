"""Measurement layer: ell_q targets, L_p norms, Rademacher averages."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import walshcube.norms as norms
from walshcube.hypercube import HypercubeFunction
from walshcube.martingales import martingale_lp_norm
from walshcube.norms import (
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    _exact_signs,
    _largest_transform,
    _sign_average,
    _sign_masks,
    _SignSweep,
    lp_norm,
    lp_norm_gradient,
    rademacher_average,
    sample_sign_masks,
    signed_combination_average,
    signed_combination_average_gradient,
)

from _naive import (
    ell_inf_norms_and_argmax_derivative,
    ell_q_norms_by_axis_reduce,
    lp_norm_sum,
    rademacher_average_enumerated,
    sign_average_per_mask,
)


def random_function(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))


def random_family(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return FunctionFamily(
        tuple(
            HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))
            for _ in range(n)
        )
    )


class TestNormSpace:
    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            NormSpace(2, 0.5)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 9, 16, 33])
    def test_norms_equal_the_axis_reduce_in_every_bit(self, m, q):
        rng = np.random.default_rng([m, 5])
        space = NormSpace(m, q)
        for shape in ((64, m), (5, 16, m)):
            table = rng.standard_normal(shape)
            assert np.array_equal(space.norms(table), ell_q_norms_by_axis_reduce(table, q))

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_reduce_last_has_the_bits_of_ufunc_reduce(self, ufunc, m):
        # Column by column below 8 columns: one call at m = 2, no copy of column 0.
        rng = np.random.default_rng([m, 23])
        for shape in ((64, m), (3, 5, m)):
            table = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            table.flat[::7] = np.nan
            reduced = norms._reduce_last(ufunc, table)
            expected = ufunc.reduce(table, axis=-1)
            assert np.array_equal(reduced.view(np.uint64), expected.view(np.uint64))
            assert not np.shares_memory(reduced, table)  # callers overwrite it

    @pytest.mark.parametrize("m", range(1, 10))
    def test_max_derivative_is_the_argmax_rule(self, m):
        # Small integers tie often; rows of zeros and of one repeated value too.
        rng = np.random.default_rng([m, 29])
        table = rng.integers(-3, 4, (6, 40, m)).astype(np.float64)
        table[0, :4] = 0.0
        table[1, :4] = -2.0
        for q_table in (table, table * 0.1, -table):
            norms_, derivative = norms._max_norms_with_derivative(q_table)
            expected = ell_inf_norms_and_argmax_derivative(q_table)
            assert np.array_equal(norms_.view(np.uint64), expected[0].view(np.uint64))
            assert np.array_equal(derivative.view(np.uint64), expected[1].view(np.uint64))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_a_row_holding_nan_keeps_a_non_finite_derivative(self, m):
        rng = np.random.default_rng([m, 31])
        table = rng.integers(-3, 4, (4, 10, m)).astype(np.float64)
        nan_rows = rng.random((4, 10)) < 0.3
        table[nan_rows, rng.integers(0, m, nan_rows.sum())] = np.nan
        table[0, 0], nan_rows[0, 0] = np.nan, True  # a row of NaNs
        norms_, derivative = norms._max_norms_with_derivative(table)
        expected = ell_inf_norms_and_argmax_derivative(table)[1]
        if m == 2:  # column 0 where it equals the maximum, else column 1; sign times 0 elsewhere
            first = np.abs(table[..., 0]) == norms_
            expected = np.sign(table) * np.stack([first, ~first], axis=-1) + 0.0
        assert np.isnan(norms_[nan_rows]).all() and not np.isnan(norms_[~nan_rows]).any()
        assert not np.isfinite(derivative[nan_rows]).all(axis=-1).any()
        assert np.array_equal(derivative.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_norm_axioms_on_samples(self, q):
        rng = np.random.default_rng(17)
        space = NormSpace(4, q)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            lam = rng.standard_normal()
            assert space.norm(u) >= 0
            assert space.norm(lam * u) == pytest.approx(abs(lam) * space.norm(u))
            assert space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-12
        assert space.norm(np.zeros(4)) == 0.0

    def test_definite(self):
        space = NormSpace(3, 1.5)
        assert space.norm(np.array([0.0, 1e-8, 0.0])) > 0
        assert space.norm(np.zeros(3)) == 0.0


class TestLpNorm:
    def test_constant_function(self):
        c = np.array([3.0, -4.0])
        f = HypercubeFunction.constant(4, c)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert lp_norm(f, p, NormSpace(2, 2.0)) == pytest.approx(5.0)

    def test_single_character_scaling(self):
        v = np.array([1.0, -2.0])
        f = HypercubeFunction.character(5, 0b1, v)
        for p in (1.0, 2.5, math.inf):
            for q in (1.0, 2.0, math.inf):
                assert lp_norm(f, p, NormSpace(2, q)) == pytest.approx(
                    NormSpace(2, q).norm(v)
                )

    def test_hand_case(self):
        f = HypercubeFunction.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert lp_norm(f, 2.0, NormSpace(1, 2.0)) == pytest.approx(math.sqrt(30.0 / 4.0))

    def test_matches_defining_sum(self):
        f = random_function(5, 3, seed=5)
        for p in (1.0, 2.0, 3.0, math.inf):
            for q in (1.0, 1.5, 2.0, math.inf):
                assert lp_norm(f, p, NormSpace(3, q)) == pytest.approx(
                    lp_norm_sum(f.values, p, q), rel=1e-12
                )

    def test_monotone_in_p(self):
        f = random_function(6, 2, seed=6)
        space = NormSpace(2, 2.0)
        values = [lp_norm(f, p, space) for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_exponent_and_shape(self):
        f = random_function(3, 2)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5, NormSpace(2, 2.0))
        with pytest.raises(ValueError):
            lp_norm(f, 2.0, NormSpace(3, 2.0))


class TestOneRuleEach:
    """Every exponent goes through one `PRange` and every vector length through
    one `NormSpace` check, each a one-line error naming what it refuses."""

    SPACE = NormSpace(2, 3.0)
    TABLES = np.random.default_rng(9).standard_normal((2, 4, 2))
    PLAN = RademacherAveragePlan()
    NORM = ("the L_p norm", "[1, inf]")
    RAW_NORM = ("the raw L_p norm", "(0, inf)")
    AVERAGE = ("the sign average", "(0, inf)")
    CALLS = {
        "lp_norm": (lambda p: lp_norm(random_function(2, 2), p, TestOneRuleEach.SPACE), NORM),
        "martingale_lp_norm": (
            lambda p: martingale_lp_norm(
                TestOneRuleEach.TABLES[0], p, TestOneRuleEach.SPACE, np.full(4, 0.25)
            ),
            NORM,
        ),
        "lp_norm_gradient": (
            lambda p: lp_norm_gradient(TestOneRuleEach.TABLES, p, TestOneRuleEach.SPACE),
            RAW_NORM,
        ),
        "signed_combination_average": (
            lambda p: signed_combination_average(
                TestOneRuleEach.TABLES, p, TestOneRuleEach.SPACE, TestOneRuleEach.PLAN
            ),
            AVERAGE,
        ),
        "signed_combination_average_gradient": (
            lambda p: signed_combination_average_gradient(
                TestOneRuleEach.TABLES, p, TestOneRuleEach.SPACE, TestOneRuleEach.PLAN
            ),
            AVERAGE,
        ),
        "rademacher_average": (
            lambda p: rademacher_average(
                random_family(2, 2), p, TestOneRuleEach.SPACE, TestOneRuleEach.PLAN
            ),
            AVERAGE,
        ),
    }

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("name", list(CALLS))
    def test_exponent_refusal_names_its_domain(self, name, p):
        call, (what, domain) = self.CALLS[name]
        if p == math.inf and domain.endswith("]"):
            assert call(p) > 0.0  # the L_p norms take p = inf
            return
        with pytest.raises(ValueError) as refused:
            call(p)
        assert str(refused.value) == f"{what} requires p in {domain}, got {p}"

    def test_infinite_exponent_gives_the_largest_pointwise_norm(self):
        f = random_function(4, 3, seed=2)
        space = NormSpace(3, 1.5)
        assert lp_norm(f, math.inf, space) == space.norms(f.values).max()

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_wrong_vector_length_has_one_message(self, p):
        # Prepared sides never check: each public function checks its witness.
        from walshcube import inequalities as ineq, martingales as mart

        f, family = random_function(2, 3), random_family(2, 3)
        M = mart.make_dyadic_martingale(f)
        space, plan = NormSpace(2, 2.0), self.PLAN
        calls = {
            "norms": lambda: space.norms(f.values),
            "lp_norm": lambda: lp_norm(f, p, space),
            "signed_combination_average": lambda: signed_combination_average(
                f.values[None], 2.0, space, plan
            ),
            "pisier_lhs": lambda: ineq.pisier_lhs(f, 2.5, space),
            "pisier_rhs": lambda: ineq.pisier_rhs(f, 2.5, space, plan),
            "theorem1_lhs": lambda: ineq.theorem1_lhs(family, 2.5, space),
            "theorem1_rhs": lambda: ineq.theorem1_rhs(family, 2.5, space, plan),
            "corollary2_lhs": lambda: ineq.corollary2_lhs(family, 2.5, space),
            "corollary2_rhs": lambda: ineq.corollary2_rhs(family, 2.5, space, plan),
            "stein_lhs": lambda: ineq.stein_lhs(family, 2.5, space, plan),
            "stein_rhs": lambda: ineq.stein_rhs(family, 2.5, space, plan),
            "hn_remark_lhs": lambda: ineq.hn_remark_lhs(family, 2.5, space),
            "hn_remark_rhs": lambda: ineq.hn_remark_rhs(family, 2.5, space, plan),
            "k_convexity_ratio": lambda: ineq.k_convexity_ratio(f, 2.5, space),
            "rademacher_type_ratio": lambda: ineq.rademacher_type_ratio(f.values, 1.5, space),
            "umd_ratio": lambda: mart.umd_ratio(M, 2.5, space),
            "umd_ratio signs": lambda: mart.umd_ratio(M, 2.5, space, mart.SignAssignment(2, 0b10)),
            "umd_maximum_gradient": lambda: mart.umd_maximum_gradient(
                M.differences(), 2.5, space, M.filtration.probabilities
            ),
            "umd_plus_ratio": lambda: mart.umd_plus_ratio(M, 2.5, space, plan),
            "umd_minus_ratio": lambda: mart.umd_minus_ratio(M, 2.5, space, plan),
            "martingale_type_ratio": lambda: mart.martingale_type_ratio(M, 1.5, space),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == "vectors of length 3 in ell_q^2", name


class TestFunctionFamily:
    def test_requires_n_members(self):
        f = random_function(3, 1)
        with pytest.raises(ValueError, match="exactly n=3"):
            FunctionFamily((f, f))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError, match="share"):
            FunctionFamily((random_function(2, 1), random_function(2, 2)))

    def test_json_round_trip(self):
        family = random_family(3, 2, seed=8)
        back = FunctionFamily.from_json_dict(family.to_json_dict())
        for a, b in zip(family, back):
            assert_allclose(a.values, b.values)


class TestRademacherAverageExact:
    def test_single_member_family(self):
        f = random_function(1, 2, seed=9)
        family = FunctionFamily((f,))
        plan = RademacherAveragePlan(mode="exact")
        got = rademacher_average(family, 3.0, NormSpace(2, 2.0), plan)
        assert got == pytest.approx(lp_norm(f, 3.0, NormSpace(2, 2.0)))

    def test_hilbert_p2_is_square_sum(self):
        family = random_family(5, 2, seed=10)
        plan = RademacherAveragePlan(mode="exact")
        space = NormSpace(2, 2.0)
        got = rademacher_average(family, 2.0, space, plan)
        expected = math.sqrt(sum(lp_norm(f, 2.0, space) ** 2 for f in family))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(1.5, 1.0), (2.0, 2.0), (3.0, math.inf)])
    def test_matches_enumerated_oracle(self, p, q):
        family = random_family(4, 2, seed=11)
        plan = RademacherAveragePlan(mode="exact")
        got = rademacher_average(family, p, NormSpace(2, q), plan)
        expected = rademacher_average_enumerated(family.stacked(), p, q)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_invariance_under_permutation_and_single_flip(self):
        family = random_family(4, 2, seed=12)
        plan = RademacherAveragePlan(mode="exact")
        space = NormSpace(2, 1.5)
        base = rademacher_average(family, 2.5, space, plan)
        shuffled = FunctionFamily(tuple(family.functions[i] for i in (2, 0, 3, 1)))
        flipped = FunctionFamily(
            (family.functions[0], -1.0 * family.functions[1]) + family.functions[2:]
        )
        assert rademacher_average(shuffled, 2.5, space, plan) == pytest.approx(base, rel=1e-12)
        assert rademacher_average(flipped, 2.5, space, plan) == pytest.approx(base, rel=1e-12)

    def test_rejects_infinite_exponent(self):
        family = random_family(2, 1)
        with pytest.raises(ValueError):
            rademacher_average(family, math.inf, NormSpace(1, 2.0), RademacherAveragePlan())


class TestAutoPlan:
    """`auto` enumerates while 2^(count-1) patterns cost no more than the samples."""

    @pytest.mark.parametrize(
        "count,samples,mode",
        [
            (15, 20000, "exact"),
            (16, 20000, "monte-carlo"),
            (11, 512, "monte-carlo"),
            (11, 1024, "exact"),
            (10, 1, "exact"),
            (21, 2**30, "monte-carlo"),
        ],
    )
    def test_mode(self, count, samples, mode):
        plan = RademacherAveragePlan.auto(count, samples=samples, seed=4)
        assert (plan.mode, plan.samples, plan.seed) == (mode, samples, 4)


QS = [1.0, 1.5, 2.0, 3.0, math.inf]
EXACT = RademacherAveragePlan(mode="exact")


class TestHalvedSignSweep:
    """Exact sweeps visit the 2^(count-1) patterns whose last sign is +1:
    each stands for itself and its negation, which an even norm cannot tell
    apart.  Count 1 is in every range: one pattern stands for both signs."""

    @pytest.mark.parametrize("q", QS)
    def test_average_matches_the_full_enumeration_oracle(self, q):
        rng = np.random.default_rng(40)
        for count in range(1, 11):
            tables = rng.standard_normal((count, 4, 2))
            got = signed_combination_average(tables, 2.5, NormSpace(2, q), EXACT)
            assert got == pytest.approx(rademacher_average_enumerated(tables, 2.5, q), rel=1e-12)

    @pytest.mark.parametrize("q", QS)
    def test_gradient_matches_the_kernel_on_every_pattern(self, q):
        rng = np.random.default_rng(41)
        space = NormSpace(3, q)
        for count in range(1, 11):
            tables = rng.standard_normal((2, count, 4, 3))  # a batch of two rows
            weights = rng.uniform(0.5, 1.5, 4)
            weights /= weights.sum()
            every = _sign_average(count, 1.5, space, np.arange(1 << count), weights)
            halved = signed_combination_average_gradient(tables, 1.5, space, EXACT, weights)
            value, full = every(tables, True)
            assert_allclose(halved.value, value, rtol=1e-12)
            assert_allclose(halved.gradient(), full, rtol=1e-12, atol=1e-12 * np.abs(full).max())

    def test_exact_masks_are_the_patterns_with_last_sign_plus(self):
        for count in range(1, 13):
            # Masks 0, 1, ..., 2^(count-1) - 1 in order: the top bit, the
            # last sign, stays clear.  The exact plan's masks are None.
            assert _sign_masks(count, EXACT) is None
            masks = np.arange(1 << (count - 1))
            blocks = [signs for signs, _, _ in chunks(np.zeros((count, 1, 1)), 2.0, None)]
            expected = 1.0 - 2.0 * ((masks[:, None] >> np.arange(count)) & 1)
            assert np.array_equal(np.concatenate(blocks), expected)
            assert all(len(block) <= 1024 for block in blocks)

    @pytest.mark.parametrize(
        "count,points,m,q,samples",
        [(3, 8, 2, 1.0, 50), (7, 16, 3, 3.0, 1500), (12, 4, 2, math.inf, 2100), (5, 32, 1, 2.0, 700)],
    )
    def test_monte_carlo_averages_its_keyed_samples(self, count, points, m, q, samples):
        # Sampled plans are not halved: they average the sign patterns of
        # their keyed masks, each as drawn.
        tables = np.random.default_rng([count, points, m]).standard_normal((count, points, m))
        plan = RademacherAveragePlan(mode="monte-carlo", samples=samples, seed=11)
        side = signed_combination_average_gradient(tables, 2.5, NormSpace(m, q), plan)
        value, gradient = sign_average_per_mask(tables, 2.5, q, sample_sign_masks(11, samples, count))
        assert side.value == pytest.approx(value, rel=1e-12)
        assert_allclose(side.gradient(), gradient, rtol=1e-12, atol=1e-12 * np.abs(gradient).max())


class TestExactSignTable:
    def test_rows_are_the_exact_patterns_read_only(self):
        for count in range(1, 12):
            table = _exact_signs(count)
            assert np.array_equal(table, norms.sign_matrix(count, np.arange(1 << (count - 1))))
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_a_second_sweep_builds_no_sign_rows(self, monkeypatch):
        built = []
        sign_matrix = norms.sign_matrix

        def recorded(count, masks):
            built.append(count)
            return sign_matrix(count, masks)

        monkeypatch.setattr(norms, "sign_matrix", recorded)
        rng = np.random.default_rng(12)
        space = NormSpace(2, 3.0)
        for count in (1, 4, 11):
            tables = rng.standard_normal((count, 8, 2))
            probs = np.full(8, 1.0 / 8)
            for _ in range(2):
                built.clear()
                signed_combination_average_gradient(tables, 2.5, space, EXACT).gradient()
                _largest_transform(count, 2.5, space, probs)(tables)
            assert built == []
        # Beyond one chunk of patterns the exact rows are built per chunk.
        signed_combination_average(rng.standard_normal((12, 2, 2)), 2.5, space, EXACT)
        assert built == [12, 12]

    @pytest.mark.parametrize("q", QS)
    def test_the_table_has_the_bits_of_the_masks(self, q):
        rng = np.random.default_rng(13)
        space = NormSpace(2, q)
        for count in (1, 3, 11, 12):
            tables = rng.standard_normal((2, count, 4, 2))
            probs = np.full(4, 0.25)
            masks = np.arange(1 << (count - 1))
            tabled = _sign_average(count, 2.5, space, None, probs)
            built = _sign_average(count, 2.5, space, masks, probs)
            assert np.array_equal(tabled(tables)[0], built(tables)[0])
            assert np.array_equal(tabled(tables, True)[1], built(tables, True)[1])
            assert np.array_equal(
                _largest_transform(count, 2.5, space, probs)(tables),
                _largest_transform(count, 2.5, space, probs, masks)(tables),
            )


class TestSweepMemory:
    def test_a_block_holds_at_most_2_22_combination_entries(self, monkeypatch):
        # One member over a 2^20-point scalar table: a block of 1,024 sign
        # patterns would hold 8 GiB of combinations, so each block holds 4.
        blocks = []
        sign_matrix = norms.sign_matrix

        def recorded(count, masks):
            blocks.append(len(masks))
            return sign_matrix(count, masks)

        monkeypatch.setattr(norms, "sign_matrix", recorded)
        tables = np.random.default_rng(4).standard_normal((1, 1 << 20, 1))
        plan = RademacherAveragePlan(mode="monte-carlo", samples=8, seed=3)
        tracemalloc.start()
        try:
            value = signed_combination_average(tables, 2.0, NormSpace(1, 2.0), plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == [4, 4]
        # Only a block's terms live whole: its norms and powers are finished a
        # tile of 2^17 combination entries at a time, and the last block's
        # terms are freed first: 1.38 blocks of 2^22 entries with the weights.
        assert peak < 1.5 * (8 << 22)
        # Every sign of one member gives |t|: the average is the L_2 norm of t.
        assert value == pytest.approx(np.sqrt(np.mean(tables**2)), rel=1e-12)

    def test_only_one_chunk_sweeps_hold_their_sign_rows(self, monkeypatch):
        # 1,024 samples fit one chunk, whose rows are decoded once; one sample
        # more leaves each chunk's rows to each sweep, one chunk at a time.
        space = NormSpace(1, 2.0)
        masks = sample_sign_masks(5, 1024, 2)
        held = _SignSweep(2, 1, space, masks)
        assert np.array_equal(held.signs, norms.sign_matrix(2, masks))
        assert _SignSweep(2, 1, space, sample_sign_masks(5, 1025, 2)).signs is None
        decoded = []
        sign_matrix = norms.sign_matrix

        def recorded(count, masks):
            decoded.append(len(masks))
            return sign_matrix(count, masks)

        monkeypatch.setattr(norms, "sign_matrix", recorded)
        tables = np.random.default_rng(6).standard_normal((2, 1, 1))
        masks = sample_sign_masks(5, 3000, 2)
        sweep = _SignSweep(2, 1, space, masks)
        for _ in range(2):
            decoded.clear()
            blocks = []
            sweep.run(tables, _unfinished, lambda _, signs, *__: blocks.append(signs), None)
            assert decoded == [1024, 1024, 952]
            for signs, first in zip(blocks, range(0, 3000, 1024), strict=True):
                assert np.array_equal(signs, sign_matrix(2, masks[first : first + 1024]))

    def test_the_gradient_sweep_frees_each_block_before_the_next(self):
        tables = np.random.default_rng(4).standard_normal((1, 1 << 20, 1))
        plan = RademacherAveragePlan(mode="monte-carlo", samples=8, seed=3)
        tracemalloc.start()
        try:
            side = signed_combination_average_gradient(tables, 2.0, NormSpace(1, 2.0), plan)
            gradient = side.gradient()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.84 blocks of 2^22 entries measured: the block's terms and
        # cotangents (no raw derivative), the (1, 2^20) gradient, its matmul's
        # product and the weights; the combinations, norms and derivative are
        # finished a 2^17-entry tile at a time.
        assert peak < 3.25 * (8 << 22)
        # Every sign of one member gives |t|: the gradient of the L_2 norm of t.
        expected = tables / np.sqrt(np.mean(tables**2)) / tables.shape[-2]
        assert_allclose(gradient, expected, rtol=1e-10, atol=0.0)


def _unfinished(pointwise, derivative, start):
    """A tile hook that leaves the norms and their derivative as they are."""
    return pointwise, derivative


def chunks(tables, q, masks, with_derivative=False, tile=norms._TILE_ENTRIES):
    """Every chunk of a sign sweep over `tables` as (signs, pointwise,
    derivative), in order, its tiles left unfinished."""
    *_, count, points, m = tables.shape
    kept = []
    sweep = _SignSweep(count, points, NormSpace(m, q), masks, tile)
    sweep.run(tables, _unfinished, lambda _, *chunk: kept.append(chunk), None, with_derivative)
    return kept


def whole_chunk_sweeps(tables, p, q, masks, weights, probs):
    """The sign average's value, its gradient sweep's value and gradient, and
    the umd maximum's signs, finished a whole chunk at a time: each consumer's
    elementwise passes over the norms of one tile holding the whole table."""
    *lead, count, points, m = tables.shape

    results = []
    for with_gradient in (False, True):
        total = np.zeros(lead)
        gradient = np.zeros((*lead, count, points * m))
        for signs, pointwise, derivative in chunks(tables, q, masks, with_gradient, 1 << 40):
            raised = pointwise ** (p - 1.0)
            raised *= weights
            if with_gradient:
                cotangents = raised[..., None] * derivative
                gradient += signs.T @ cotangents.reshape(*lead, len(signs), -1)
            pointwise *= raised
            total += pointwise.reshape(*lead, -1).sum(axis=-1)
        value = np.float_power(total / float(len(masks)), 1.0 / p)
        gradient *= norms._root_factor(value, p, float(len(masks)))[..., None, None]
        results += [value, gradient.reshape(tables.shape)] if with_gradient else [value]
    best = best_signs = None
    for signs, pointwise, _ in chunks(tables, q, masks, False, 1 << 40):
        powered = pointwise**p @ probs
        top, k = powered.max(axis=-1), powered.argmax(axis=-1)
        if best is None:
            best, best_signs = top, signs[k]
        else:
            better = top > best
            best = np.where(better, top, best)
            best_signs = np.where(better[..., None], signs[k], best_signs)
    return [*results, best_signs]


class TestTileFinishing:
    """Each tile finishes its own norms (powers, weights and cotangents) with
    the bits of the whole-chunk passes that did it before."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize(
        "shape, samples, tile",
        [
            ((12, 4096, 2), 256, norms._TILE_ENTRIES),  # desk-eval's Monte Carlo table
            ((12, 4096, 1), 256, norms._TILE_ENTRIES),
            ((12, 4096, 3), 256, norms._TILE_ENTRIES),
            ((6, 256, 3), None, 1 << 10),
            ((2, 5, 64, 1), 37, 1 << 8),
        ],
        ids=["desk-eval", "m1", "m3", "exact", "batch"],
    )
    def test_tiled_sweeps_have_the_bits_of_whole_chunk_passes(self, shape, samples, tile, q, p):
        *lead, count, points, m = shape
        rng = np.random.default_rng(list(shape))
        tables = rng.standard_normal(shape)
        weights, probs = (w / w.sum() for w in rng.uniform(0.5, 1.5, (2, points)))
        if samples is None:
            masks = np.arange(1 << (count - 1))
        else:
            masks = sample_sign_masks(31, samples, count)
        space = NormSpace(m, q)
        side = _sign_average(count, p, space, masks, weights, tile)
        got = [
            side(tables)[0],
            *side(tables, True),
            _largest_transform(count, p, space, probs, masks, tile)(tables),
        ]
        expected = whole_chunk_sweeps(tables, p, q, masks, weights, probs)
        for a, b in zip(got, expected, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestPointTiledSweep:
    """Within a chunk of sign patterns the combinations are built a tile of
    points at a time, and every entry keeps the bits of one whole tile."""

    def sweeps(self, tile, tables, p, q, masks):
        *_, count, points, m = tables.shape
        space = NormSpace(m, q)
        probs = np.full(points, 1.0 / points)
        side = _sign_average(count, p, space, masks, probs, tile)
        return (
            side(tables)[0],
            *side(tables, True),
            _largest_transform(count, p, space, probs, masks, tile)(tables),
        )

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
    def test_small_tiles_have_the_bits_of_one_whole_tile(self, m, q, p, mode, lead):
        count, points = 5, 64
        tables = np.random.default_rng([m, len(lead)]).standard_normal((*lead, count, points, m))
        masks = np.arange(1 << (count - 1)) if mode == "exact" else sample_sign_masks(9, 37, count)
        whole = self.sweeps(1 << 40, tables, p, q, masks)
        for tile in (1, 8 * len(masks) * m * math.prod(lead)):  # tiles of 2 and of 8 points
            tiled = self.sweeps(tile, tables, p, q, masks)
            for got, expected in zip(tiled, whole):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "lead, points, m, tile, width",
        [
            ((), 1 << 12, 3, norms._TILE_ENTRIES, 1 << 11),
            ((3,), 1 << 12, 2, norms._TILE_ENTRIES, 1 << 10),
            ((), 64, 1, 1, 2),
            ((), 12, 3, 4 * 16 * 3, 4),
            ((), 12, 3, 8 * 16 * 3, 12),
            ((), 1 << 10, 2, norms._TILE_ENTRIES, 1 << 10),
        ],
        ids=["two-tiles", "batch", "pairs", "three-tiles", "uneven-is-whole", "fits-one-tile"],
    )
    def test_tiles_are_equal_powers_of_two_of_at_least_two_points(
        self, monkeypatch, lead, points, m, tile, width
    ):
        widths = []
        matmul = np.matmul

        def recorded(signs, combos, out):
            widths.append(combos.shape[-1] // m)
            return matmul(signs, combos, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        tables = np.random.default_rng(5).standard_normal((*lead, 5, points, m))
        [(_, pointwise, _)] = chunks(tables, 2.0, np.arange(16), tile=tile)
        assert pointwise.shape == (*lead, 16, points)
        assert widths == [width] * (points // width)
        assert width == points or (width >= 2 and width & (width - 1) == 0)


class TestRademacherAverageMonteCarlo:
    def test_within_three_standard_errors_of_exact(self):
        family = random_family(8, 2, seed=13)
        space = NormSpace(2, 2.0)
        p = 2.0
        exact = rademacher_average(family, p, space, RademacherAveragePlan(mode="exact"))
        samples = 100_000
        mc = rademacher_average(
            family, p, space, RademacherAveragePlan(mode="monte-carlo", samples=samples, seed=3)
        )
        # Standard error of the p-th power mean, propagated through the root.
        values = []
        masks = sample_sign_masks(3, samples, 8)
        tables = family.stacked()
        for mask in masks[:2000]:
            signs = 1.0 - 2.0 * ((mask >> np.arange(8)) & 1)
            combo = np.tensordot(signs, tables, axes=(0, 0))
            values.append(np.mean(space.norms(combo) ** p))
        spread = np.std(values) / math.sqrt(samples)
        tolerance = 3.0 * spread / (p * exact ** (p - 1.0))
        assert abs(mc - exact) <= max(tolerance, 1e-12)

    def test_deterministic_given_seed(self):
        family = random_family(6, 1, seed=14)
        plan = RademacherAveragePlan(mode="monte-carlo", samples=500, seed=42)
        space = NormSpace(1, 2.0)
        first = rademacher_average(family, 2.0, space, plan)
        second = rademacher_average(family, 2.0, space, plan)
        assert first == second

    def test_counter_based_sampler_is_stateless(self):
        full = sample_sign_masks(7, 100, 6)
        tail = sample_sign_masks(7, 100, 6)[50:]
        assert np.array_equal(full[50:], tail)
        assert np.array_equal(full, sample_sign_masks(7, 100, 6))
        assert not np.array_equal(full, sample_sign_masks(8, 100, 6))
        assert full.min() >= 0 and full.max() < 64

    def test_sample_count_is_limited_to_the_largest_exact_sweep(self):
        with pytest.raises(ValueError, match="limited to 2\\^20 samples"):
            sample_sign_masks(0, 2**20 + 1, 4)

    def test_sampled_masks_are_limited_to_63_members(self):
        masks = sample_sign_masks(1, 200, 63)
        assert masks.min() >= 0 and masks.max() < 1 << 63
        for members in (64, 70):
            with pytest.raises(ValueError, match="limited to 63 members"):
                sample_sign_masks(1, 4, members)
        plan = RademacherAveragePlan(mode="monte-carlo", samples=4, seed=1)
        with pytest.raises(ValueError, match="63"):
            signed_combination_average(np.ones((64, 1, 1)), 2.0, NormSpace(1, 2.0), plan)
