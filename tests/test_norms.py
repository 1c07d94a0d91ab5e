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
    _sign_average,
    _sign_blocks,
    _sign_masks,
    lp_norm,
    lp_norm_gradient,
    rademacher_average,
    sample_sign_masks,
    signed_combination_average,
    signed_combination_average_gradient,
)

from _naive import (
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
        f = random_function(2, 3)
        space = NormSpace(2, 2.0)
        calls = (
            lambda: space.norms(f.values),
            lambda: lp_norm(f, p, space),
            lambda: signed_combination_average(f.values[None], 2.0, space, self.PLAN),
        )
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == "vectors of length 3 in ell_q^2"


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
            every = _sign_average(tables, 1.5, space, np.arange(1 << count), weights)
            halved = signed_combination_average_gradient(tables, 1.5, space, EXACT, weights)
            assert_allclose(halved.value, every.value, rtol=1e-12)
            full = every.gradient()
            assert_allclose(halved.gradient(), full, rtol=1e-12, atol=1e-12 * np.abs(full).max())

    def test_exact_masks_are_the_patterns_with_last_sign_plus(self):
        for count in range(1, 13):
            # Masks 0, 1, ..., 2^(count-1) - 1 in order: the top bit, the
            # last sign, stays clear.
            masks = _sign_masks(count, EXACT)
            assert np.array_equal(masks, np.arange(1 << (count - 1)))
            blocks = list(_sign_blocks(count, masks))
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
        # A block's combinations, norms and powers live at once, and the last
        # block's are freed first: 3.25 blocks of 2^22 entries with the weights.
        assert peak < 3.5 * (8 << 22)
        # Every sign of one member gives |t|: the average is the L_2 norm of t.
        assert value == pytest.approx(np.sqrt(np.mean(tables**2)), rel=1e-12)

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
        # 6.5 blocks of 2^22 entries measured: the combinations, the norms'
        # derivative and its temporaries, and the (1, 2^20) gradient.
        assert peak < 8 * (8 << 22)
        # Every sign of one member gives |t|: the gradient of the L_2 norm of t.
        expected = tables / np.sqrt(np.mean(tables**2)) / tables.shape[-2]
        assert_allclose(gradient, expected, rtol=1e-10, atol=0.0)


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
