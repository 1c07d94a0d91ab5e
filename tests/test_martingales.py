"""Filtered spaces, adapted martingales, and transform ratio functionals."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _naive import signs_of_mask, umd_maximum_per_mask
from walshcube.hypercube import HypercubeFunction, SignAssignment
from walshcube.inequalities import pisier_lhs
from walshcube.martingales import (
    FiniteFiltration,
    MartingaleSequence,
    _dyadic_parts,
    make_dyadic_martingale,
    martingale_lp_norm,
    martingale_type_ratio,
    umd_maximum_gradient,
    umd_minus_ratio,
    umd_plus_ratio,
    umd_ratio,
)
from walshcube.norms import (
    DegenerateInputError,
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    _largest_transform,
    rademacher_average,
)
from walshcube.operators import (
    _condition,
    _difference_each,
    _dyadic_levels,
    conditional_expectation,
    martingale_difference,
)

EXACT = RademacherAveragePlan(mode="exact")


def random_function(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))


def random_tree_martingale(seed=0, m=2):
    """A three-level tree with uneven branching and point masses."""
    rng = np.random.default_rng(seed)
    # 5 leaves; level 1 splits {0,1,2} | {3,4}; level 2 isolates all but {1,2}.
    levels = [
        [0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 1, 1, 2, 3],
    ]
    probs = np.array([0.1, 0.25, 0.15, 0.3, 0.2])
    filtration = FiniteFiltration.tree(levels, probs)
    terminal = rng.standard_normal((5, m))
    values = np.stack([filtration.condition(terminal, i) for i in range(3)])
    return MartingaleSequence(filtration=filtration, m=m, values=values)


class TestFiniteFiltration:
    def test_dyadic_levels_follow_low_bits(self):
        filtration = FiniteFiltration.dyadic(3)
        assert filtration.size == 8
        assert filtration.levels is None  # a rule: the ids are derived when read
        assert filtration.cells(0).tolist() == [0] * 8
        assert filtration.cells(2).tolist() == [k & 0b11 for k in range(8)]
        assert filtration.cells(3).tolist() == list(range(8))

    @pytest.mark.parametrize("n", [0, 21])
    def test_dyadic_dimension_is_the_cube_rule(self, n):
        with pytest.raises(ValueError) as error:
            FiniteFiltration.dyadic(n)
        assert str(error.value) == f"dimension n must be in [1, 20], got {n}"

    def test_rejects_non_refining_levels(self):
        with pytest.raises(ValueError, match="refine"):
            FiniteFiltration.tree(
                [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]],
                [0.25, 0.25, 0.25, 0.25],
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteFiltration.tree([[0, 0], [0, 1]], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteFiltration.tree([[0, 0], [0, 1]], [0.7, 0.4])

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
    def test_rejects_nan_probabilities(self, probs):
        # Every comparison with NaN is False, so a check must be written to pass only on numbers.
        with pytest.raises(ValueError, match="^point probabilities must"):
            FiniteFiltration.tree([[0, 0], [0, 1]], probs)

    def test_rejects_scalar_probabilities(self):
        with pytest.raises(ValueError, match="probabilities must be a nonempty vector"):
            FiniteFiltration.tree([[0], [0]], 0.5)

    @pytest.mark.parametrize(
        "kind,levels,level",
        [
            ("tree", [[0, 0.9], [0, 1.2]], 0),  # read as [[0, 0], [0, 1]]: a split root passed
            ("tree", [[0, 0], [0, "1"]], 1),
            ("tree", [[0, 0], [0, -1]], 1),
            ("tree", [[0, 0], [0, 1, 2]], 1),
            ("dyadic-hypercube", [[0, 0], [0, 1.7]], 1),  # read as the rule's [0, 1]
            ("dyadic-hypercube", [[0, 0], ["0", "1"]], 1),
            ("tree", [[0, 0], [0, True]], 1),  # read as [[0, 0], [0, 1]]
            ("tree", [[False, False], [0, 1]], 0),
            ("tree", [[0, 0], [0, np.True_]], 1),
            ("dyadic-hypercube", [[0, 0], [0, True]], 1),  # read as the rule's [0, 1]
        ],
    )
    def test_cell_ids_are_nonnegative_integers_one_per_point(self, kind, levels, level):
        spec = {"kind": kind, "n": 1, "probabilities": [0.5, 0.5], "levels": levels}
        with pytest.raises(ValueError) as error:
            FiniteFiltration.from_json_dict(spec)
        message = str(error.value)
        assert message.startswith(f"level {level} needs 2 nonnegative integer cell ids, got [")
        assert "\n" not in message

    def test_integer_cell_ids_keep_their_bits_and_bytes(self):
        given = [np.array([2, 2, 2]), np.array([2, 0, 1])]
        filtration = FiniteFiltration.tree(given, [0.25, 0.25, 0.5])
        for kept, ids in zip(filtration.levels, given):
            assert kept.dtype == np.int64 and np.array_equal(kept, ids)
        assert json.dumps(filtration.to_json_dict()) == (
            '{"kind": "tree", "n": 1, "probabilities": [0.25, 0.25, 0.5], '
            '"levels": [[2, 2, 2], [2, 0, 1]]}'
        )

    @pytest.mark.parametrize("kind", ["tree", "dyadic-hypercube"])
    @pytest.mark.parametrize("n", [1.9, 1.0, True, "1"])
    def test_json_n_is_an_integer(self, kind, n):
        spec = {"kind": kind, "n": n, "probabilities": [0.5, 0.5], "levels": [[0, 0], [0, 1]]}
        with pytest.raises(ValueError) as error:
            FiniteFiltration.from_json_dict(spec)
        assert str(error.value).startswith("filtration n must be an integer, got ")

    def test_rejects_nontrivial_root(self):
        with pytest.raises(ValueError, match="trivial"):
            FiniteFiltration.tree([[0, 1], [0, 1]], [0.5, 0.5])

    def test_condition_is_weighted_average(self):
        filtration = FiniteFiltration.tree(
            [[0, 0, 0], [0, 1, 1]], [0.5, 0.3, 0.2]
        )
        table = np.array([[1.0], [2.0], [7.0]])
        level0 = filtration.condition(table, 0)
        assert_allclose(level0[:, 0], 0.5 * 1 + 0.3 * 2 + 0.2 * 7)
        level1 = filtration.condition(table, 1)
        assert_allclose(level1[:, 0], [1.0, 4.0, 4.0])

    def test_condition_contraction_in_lp(self):
        # Conditional expectation never increases any L_p norm, p >= 1.
        M = random_tree_martingale(seed=1)
        filtration = M.filtration
        rng = np.random.default_rng(2)
        space = NormSpace(2, 2.0)
        for p in (1.0, 1.5, 2.0, 4.0):
            for _ in range(20):
                table = rng.standard_normal((filtration.size, 2))
                before = martingale_lp_norm(table, p, space, filtration.probabilities)
                for level in range(filtration.n + 1):
                    after = martingale_lp_norm(
                        filtration.condition(table, level), p, space, filtration.probabilities
                    )
                    assert after <= before * (1 + 1e-12)

    def test_json_round_trip(self):
        filtration = random_tree_martingale(seed=3).filtration
        back = FiniteFiltration.from_json_dict(filtration.to_json_dict())
        assert back.kind == filtration.kind
        assert_allclose(back.probabilities, filtration.probabilities)
        for a, b in zip(back.levels, filtration.levels):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("missing", ["probabilities", "levels"])
    def test_json_tree_needs_both_fields(self, missing):
        spec = random_tree_martingale(seed=3).filtration.to_json_dict()
        del spec[missing]
        with pytest.raises(ValueError, match="tree filtration needs its probabilities and levels"):
            FiniteFiltration.from_json_dict(spec)

    def test_json_dyadic_kind_must_be_the_coordinate_filtration(self):
        spec = FiniteFiltration.dyadic(2).to_json_dict()
        back, dyadic = FiniteFiltration.from_json_dict(spec), FiniteFiltration.dyadic(2)
        assert (back.kind, back.n) == (dyadic.kind, dyadic.n)
        assert np.array_equal(back.probabilities, dyadic.probabilities)
        for level in range(3):
            assert np.array_equal(back.cells(level), dyadic.cells(level))
        for key, value in (
            ("probabilities", [0.1, 0.2, 0.3, 0.4]),
            ("levels", [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]]),
        ):
            with pytest.raises(ValueError, match="coordinate filtration"):
                FiniteFiltration.from_json_dict({**spec, key: value})
        # A legal three-point tree that calls itself dyadic.
        small = {**spec, "probabilities": [0.5, 0.25, 0.25]}
        small["levels"] = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
        with pytest.raises(ValueError, match="coordinate filtration"):
            FiniteFiltration.from_json_dict(small)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dyadic_round_trips_with_any_rule_field_omitted(self, n):
        spec = FiniteFiltration.dyadic(n).to_json_dict()
        assert spec["levels"] == [[k & ((1 << i) - 1) for k in range(1 << n)] for i in range(n + 1)]
        for omitted in ((), ("levels",), ("probabilities",), ("levels", "probabilities")):
            partial = {key: value for key, value in spec.items() if key not in omitted}
            assert FiniteFiltration.from_json_dict(partial).to_json_dict() == spec

    def test_constructor_refuses_levels_its_loader_would_refuse(self):
        # A legal tree, split on the high bit first: not the coordinate filtration.
        levels = [[0] * 4, [0, 0, 1, 1], [0, 1, 2, 3]]
        with pytest.raises(ValueError, match="coordinate filtration"):
            FiniteFiltration(
                kind="dyadic-hypercube", n=2, probabilities=[0.25] * 4, levels=levels
            )
        assert FiniteFiltration.tree(levels, [0.25] * 4).to_json_dict()["levels"] == levels

    def test_dyadic_20_holds_only_its_point_measure(self):
        tracemalloc.start()
        try:
            filtration = FiniteFiltration.dyadic(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Only the 8 MiB probability vector: no level table is held.
        assert filtration.probabilities.nbytes == 8 << 20
        assert peak <= 9 << 20


class TestMartingaleSequence:
    def test_rejects_non_measurable_values(self):
        filtration = FiniteFiltration.dyadic(2)
        values = np.zeros((3, 4, 1))
        values[1, :, 0] = [1.0, 2.0, 3.0, 4.0]  # not constant on level-1 cells
        with pytest.raises(ValueError, match="measurable"):
            MartingaleSequence(filtration=filtration, m=1, values=values)

    def test_rejects_property_violation(self):
        filtration = FiniteFiltration.dyadic(2)
        values = np.zeros((3, 4, 1))
        values[2, :, 0] = [1.0, -1.0, 1.0, -1.0]
        values[1, :, 0] = [0.5, -0.5, 0.5, -0.5]  # should be 0 at level 1
        with pytest.raises(ValueError, match="martingale property"):
            MartingaleSequence(filtration=filtration, m=1, values=values)

    def test_dyadic_construction_from_function(self):
        f = random_function(6, 2, seed=4)
        M = make_dyadic_martingale(f)
        assert M.steps == 6
        assert_allclose(M.values[-1], f.values)
        assert_allclose(M.values[0], np.tile(f.mean(), (64, 1)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dyadic_construction_passes_the_validating_constructor(self, n):
        f = random_function(n, 3, seed=40 + n)
        for g in (f, 137.5 * f):
            M = make_dyadic_martingale(g)
            checked = MartingaleSequence(filtration=M.filtration, m=M.m, values=M.values)
            assert np.array_equal(checked.values, M.values)

    def test_dyadic_differences_match_operator_route(self):
        f = random_function(5, 2, seed=5)
        M = make_dyadic_martingale(f)
        diffs = M.differences()
        for i in range(1, 6):
            assert_allclose(
                diffs[i - 1], martingale_difference(f, i).values, rtol=1e-12, atol=1e-14
            )

    def test_constant_function_gives_flat_martingale(self):
        f = HypercubeFunction.constant(4, np.array([2.0, -1.0]))
        M = make_dyadic_martingale(f)
        assert_allclose(M.differences(), 0.0, atol=1e-15)

    def test_single_character_enters_once(self):
        v = np.array([1.0, 0.5])
        f = HypercubeFunction.character(4, 0b100, v)  # A = {3}
        M = make_dyadic_martingale(f)
        diffs = M.differences()
        assert_allclose(diffs[2], f.values, rtol=1e-12)
        for i in (0, 1, 3):
            assert_allclose(diffs[i], 0.0, atol=1e-13)

    def test_tree_martingale_validates(self):
        M = random_tree_martingale(seed=6)
        assert M.steps == 2
        # Property deviation is zero by construction.
        pulled = M.filtration.condition(M.values[2], 1)
        assert np.max(np.abs(pulled - M.values[1])) <= 1e-12

    def test_json_round_trip(self):
        M = random_tree_martingale(seed=7)
        back = MartingaleSequence.from_json_dict(M.to_json_dict())
        assert_allclose(back.values, M.values)


class TestDyadicLevels:
    """The one-pass level kernel against the per-level compositions it replaced."""

    BATCHES = [(), (4,), (2, 3)]

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_increments_have_the_bits_of_the_per_level_composition(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for batch in self.BATCHES:
            f = rng.standard_normal(batch + (1 << n, m))
            diffs, increment = _dyadic_parts(f, n)
            copies = np.broadcast_to(f[..., None, :, :], batch + (n, 1 << n, m))
            assert np.array_equal(diffs, _difference_each(copies, n))
            assert np.array_equal(increment, f - _condition(f, n, 0))
            stacked = np.stack([_condition(f, n, i) for i in range(n + 1)], axis=-3)
            assert np.array_equal(_dyadic_levels(f, n), stacked)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_martingale_values_are_the_conditional_expectations(self, n, m):
        f = random_function(n, m, seed=200 + n)
        stacked = np.stack([conditional_expectation(f, i).values for i in range(n + 1)])
        assert np.array_equal(make_dyadic_martingale(f).values, stacked)

    def test_martingale_holds_its_output_and_one_level_of_sums(self):
        f = random_function(15, 4, seed=15)
        tracemalloc.start()
        try:
            M = make_dyadic_martingale(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = M.values.nbytes
        assert output == 16 << 20
        assert peak < output + (1 << 20)


def skewed_martingale(n, m, rng):
    """A martingale on 2^n points split in halves level by level, with random point masses."""
    points = np.arange(1 << n)
    probs = rng.uniform(0.5, 1.5, 1 << n)
    filtration = FiniteFiltration.tree([points >> (n - i) for i in range(n + 1)], probs / probs.sum())
    terminal = rng.standard_normal((1 << n, m))
    values = np.stack([filtration.condition(terminal, i) for i in range(n + 1)])
    return MartingaleSequence(filtration=filtration, m=m, values=values)


class TestUmdRatio:
    def test_all_plus_signs_give_one(self):
        M = make_dyadic_martingale(random_function(5, 2, seed=8))
        signs = SignAssignment(n=5, bitmask=0)
        assert umd_ratio(M, 2.5, NormSpace(2, 1.5), signs) == pytest.approx(1.0, rel=1e-12)

    def test_hilbert_p2_any_signs_give_one(self):
        space = NormSpace(2, 2.0)
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            M = make_dyadic_martingale(random_function(n, 2, seed=int(rng.integers(2**31))))
            mask = int(rng.integers(0, 1 << n))
            got = umd_ratio(M, 2.0, space, SignAssignment(n=n, bitmask=mask))
            assert got == pytest.approx(1.0, rel=1e-10)

    def test_sign_search_beats_one_outside_hilbert(self):
        # ell_1^2 at p = 2, two steps.  On the uniform two-step dyadic
        # filtration every transform has the same norm (flipping a sign
        # permutes the four-point value multiset), so a witness needs a
        # skewed tree; this one came out of a random search.
        levels = [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 2, 3, 4]]
        weights = [0.125, 0.5, 0.125, 0.0625, 0.1875]
        terminal = np.array(
            [
                [-0.25, 1.0],
                [-0.25, -0.75],
                [1.0, -1.0],
                [-2.75, -1.0],
                [0.0, -3.0],
            ]
        )
        filtration = FiniteFiltration.tree(levels, weights)
        values = np.stack([filtration.condition(terminal, i) for i in range(3)])
        M = MartingaleSequence(filtration=filtration, m=2, values=values)
        best = umd_ratio(M, 2.0, NormSpace(2, 1.0))
        assert best > 1.3
        # The maximizing pattern flips exactly one of the two steps.
        assert umd_ratio(M, 2.0, NormSpace(2, 1.0), SignAssignment(n=2, bitmask=0b01)) == (
            pytest.approx(best)
        )

    def test_uniform_two_step_dyadic_transforms_are_isometric(self):
        # The symmetry that forces tree witnesses above: every sign pattern
        # gives ratio exactly 1 on a two-step uniform dyadic martingale.
        for seed in range(20):
            M = make_dyadic_martingale(random_function(2, 2, seed=seed))
            try:
                assert umd_ratio(M, 2.0, NormSpace(2, 1.0)) == pytest.approx(1.0, rel=1e-12)
            except DegenerateInputError:
                pass

    def test_search_covers_explicit_patterns(self):
        M = make_dyadic_martingale(random_function(4, 2, seed=10))
        space = NormSpace(2, 1.0)
        best = umd_ratio(M, 2.0, space)
        for mask in range(16):
            one = umd_ratio(M, 2.0, space, SignAssignment(n=4, bitmask=mask))
            assert one <= best * (1 + 1e-12)

    def test_degenerate_denominator(self):
        M = make_dyadic_martingale(HypercubeFunction.constant(3, np.array([1.0])))
        with pytest.raises(DegenerateInputError):
            umd_ratio(M, 2.0, NormSpace(1, 2.0))


    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    def test_vectorised_search_matches_per_mask_loop(self, q):
        space = NormSpace(2, q)
        for M in (
            make_dyadic_martingale(random_function(5, 2, seed=31)),
            random_tree_martingale(seed=32),
        ):
            probs = M.filtration.probabilities
            expected = umd_maximum_per_mask(M.differences(), 2.5, q, probs) / martingale_lp_norm(
                M.increment(), 2.5, space, probs
            )
            assert umd_ratio(M, 2.5, space) == pytest.approx(expected, rel=1e-12)


class TestHalvedUmdSweep:
    """The umd maximum ranges over the patterns whose last sign is +1."""

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_maximum_matches_the_per_mask_oracle(self, q):
        rng = np.random.default_rng(50)
        for count in range(1, 11):
            diffs = rng.standard_normal((count, 6, 2))
            probs = rng.uniform(0.5, 1.5, 6)
            probs /= probs.sum()
            got = umd_maximum_gradient(diffs, 2.5, NormSpace(2, q), probs).value
            assert got == pytest.approx(umd_maximum_per_mask(diffs, 2.5, q, probs), rel=1e-12)

    def test_the_patterns_are_swept_once_for_value_and_gradient(self, monkeypatch):
        import walshcube.norms as norms

        sweeps = []
        run = norms._SignSweep.run
        monkeypatch.setattr(
            norms._SignSweep, "run", lambda *a, **k: sweeps.append(1) or run(*a, **k)
        )
        diffs = np.random.default_rng(52).standard_normal((2, 4, 3, 2))
        side = umd_maximum_gradient(diffs, 2.5, NormSpace(2, 3.0), np.full(3, 1.0 / 3))
        assert sweeps == [1]
        value, gradient = side.value, side.gradient()
        assert sweeps == [1] and value.shape == (2,) and gradient.shape == diffs.shape

    @pytest.mark.parametrize("q", [1.0, 3.0, math.inf])
    def test_pattern_is_the_first_maximum_of_a_full_ascending_sweep(self, q):
        # Skewed point masses break the symmetries of the uniform dyadic
        # filtration: transforms tie only within each pair delta, -delta.
        rng = np.random.default_rng(51)
        space = NormSpace(2, q)
        for n in range(1, 9):
            M = skewed_martingale(n, 2, rng)
            diffs, probs = M.differences(), M.filtration.probabilities
            # A one-step "martingale" per pattern: its maximum is || combo ||.
            values = [
                umd_maximum_per_mask(
                    np.tensordot(signs_of_mask(mask, n), diffs, axes=(0, 0))[None], 2.5, q, probs
                )
                for mask in range(1 << n)
            ]
            best = int(np.argmax(values))
            assert best < 1 << (n - 1)
            chosen = _largest_transform(n, 2.5, space, probs)(diffs)
            assert np.array_equal(chosen, signs_of_mask(best, n))
            every = _largest_transform(n, 2.5, space, probs, np.arange(1 << n))(diffs)
            assert np.array_equal(every, chosen)
            reported = umd_ratio(M, 2.5, space, SignAssignment(n=n, bitmask=best))
            assert umd_ratio(M, 2.5, space) == reported


class TestUmdAveragedRatios:
    def test_hilbert_p2_both_equal_one(self):
        space = NormSpace(2, 2.0)
        for seed in range(20):
            M = make_dyadic_martingale(random_function(5, 2, seed=20 + seed))
            assert umd_plus_ratio(M, 2.0, space, EXACT) == pytest.approx(1.0, rel=1e-10)
            assert umd_minus_ratio(M, 2.0, space, EXACT) == pytest.approx(1.0, rel=1e-10)

    def test_single_step_is_one_for_any_target(self):
        M = make_dyadic_martingale(random_function(1, 3, seed=40))
        for q in (1.0, 1.5, math.inf):
            space = NormSpace(3, q)
            assert umd_plus_ratio(M, 2.5, space, EXACT) == pytest.approx(1.0, rel=1e-12)
            assert umd_minus_ratio(M, 2.5, space, EXACT) == pytest.approx(1.0, rel=1e-12)

    def test_tree_martingale_ratios_are_finite_and_reproducible(self):
        M = random_tree_martingale(seed=41, m=3)
        space = NormSpace(3, 4.0)
        plan = EXACT
        plus_1 = umd_plus_ratio(M, 2.5, space, plan)
        plus_2 = umd_plus_ratio(M, 2.5, space, plan)
        minus = umd_minus_ratio(M, 2.5, space, plan)
        assert math.isfinite(plus_1) and math.isfinite(minus)
        assert plus_1 == plus_2
        assert abs(plus_1 * minus - 1.0) <= 1e-9  # same averaged quantity, two orientations

    def test_monte_carlo_plan_close_to_exact(self):
        M = make_dyadic_martingale(random_function(6, 2, seed=42))
        space = NormSpace(2, 1.0)
        exact = umd_plus_ratio(M, 2.0, space, EXACT)
        mc = umd_plus_ratio(
            M, 2.0, space, RademacherAveragePlan(mode="monte-carlo", samples=40000, seed=5)
        )
        assert mc == pytest.approx(exact, rel=0.05)


class TestMartingaleTypeRatio:
    def test_single_step_is_one(self):
        M = make_dyadic_martingale(random_function(1, 2, seed=50))
        for q in (1.0, 2.0, math.inf):
            assert martingale_type_ratio(M, 2.0, NormSpace(2, q)) == pytest.approx(1.0, rel=1e-12)

    def test_hilbert_s2_is_one(self):
        space = NormSpace(2, 2.0)
        for seed in range(20):
            M = make_dyadic_martingale(random_function(5, 2, seed=60 + seed))
            assert martingale_type_ratio(M, 2.0, space) == pytest.approx(1.0, rel=1e-10)

    def test_switching_martingale_exceeds_one_in_l1(self):
        f = HypercubeFunction.from_values(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        )
        M = make_dyadic_martingale(f)
        assert martingale_type_ratio(M, 2.0, NormSpace(2, 1.0)) > 1.0 + 1e-9

    def test_rejects_out_of_range_exponent(self):
        M = make_dyadic_martingale(random_function(2, 1, seed=70))
        with pytest.raises(ValueError):
            martingale_type_ratio(M, 2.5, NormSpace(1, 2.0))


class TestCrossModuleConsistency:
    def test_dyadic_transform_average_matches_family_route(self):
        f = random_function(5, 2, seed=80)
        M = make_dyadic_martingale(f)
        space = NormSpace(2, 1.5)
        p = 2.0
        family = FunctionFamily(
            tuple(
                HypercubeFunction.from_values(M.differences()[i]) for i in range(5)
            )
        )
        averaged = rademacher_average(family, p, space, EXACT)
        deviation = pisier_lhs(f, p, space)
        assert umd_plus_ratio(M, p, space, EXACT) == pytest.approx(
            averaged / deviation, rel=1e-10
        )

    def test_scale_invariance_of_all_ratios(self):
        M = random_tree_martingale(seed=81, m=2)
        scaled = MartingaleSequence(
            filtration=M.filtration, m=M.m, values=M.values * 137.5
        )
        space = NormSpace(2, 1.0)
        assert umd_plus_ratio(scaled, 2.0, space, EXACT) == pytest.approx(
            umd_plus_ratio(M, 2.0, space, EXACT), rel=1e-12
        )
        assert umd_minus_ratio(scaled, 2.0, space, EXACT) == pytest.approx(
            umd_minus_ratio(M, 2.0, space, EXACT), rel=1e-12
        )
        assert martingale_type_ratio(scaled, 2.0, space) == pytest.approx(
            martingale_type_ratio(M, 2.0, space), rel=1e-12
        )
        assert umd_ratio(scaled, 2.0, space) == pytest.approx(
            umd_ratio(M, 2.0, space), rel=1e-12
        )


def test_tree_with_non_contiguous_cell_ids():
    # Cell ids may skip values; averages must not touch the empty ids.
    filtration = FiniteFiltration.tree(
        [[0, 0, 0], [0, 2, 2], [0, 2, 5]], [0.5, 0.25, 0.25]
    )
    table = np.array([[4.0], [2.0], [6.0]])
    level1 = filtration.condition(table, 1)
    assert_allclose(level1[:, 0], [4.0, 4.0, 4.0])
    assert_allclose(filtration.condition(table, 2)[:, 0], [4.0, 2.0, 6.0])
    values = np.stack([filtration.condition(table, i) for i in range(3)])
    M = MartingaleSequence(filtration=filtration, m=1, values=values)
    assert M.steps == 2


def test_huge_cell_ids_behave_like_their_compact_relabelling():
    huge = 10**15
    sparse = FiniteFiltration.tree(
        [[7, 7, 7, 7], [3, 3, huge, huge], [0, 3, huge, 12]], [0.1, 0.2, 0.3, 0.4]
    )
    compact = FiniteFiltration.tree(
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 3, 2]], [0.1, 0.2, 0.3, 0.4]
    )
    table = np.random.default_rng(4).standard_normal((4, 3))
    for level in range(3):
        assert np.array_equal(sparse.condition(table, level), compact.condition(table, level))
    for level in sparse.levels:
        assert level.max() < sparse.size


def test_refinement_check_rejects_a_split_parent_late_in_the_table():
    with pytest.raises(ValueError, match="does not refine"):
        FiniteFiltration.tree([[0] * 6, [0, 0, 0, 1, 1, 1], [0, 1, 2, 3, 4, 2]], [1 / 6] * 6)


class TestMartingaleFileIntegers:
    """The martingale reader takes n and m only as JSON integers."""

    VALUES = [[[0.0], [0.0]], [[1.0], [-1.0]]]

    @pytest.mark.parametrize("n", [1.9, True, "1"])
    def test_dyadic_n(self, n):
        data = {"filtration": {"kind": "dyadic-hypercube", "n": n}, "m": 1, "values": self.VALUES}
        with pytest.raises(ValueError) as error:
            MartingaleSequence.from_json_dict(data)
        assert str(error.value).startswith("filtration n must be an integer, got ")

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1"])
    def test_m(self, m):
        data = {"filtration": FiniteFiltration.dyadic(1).to_json_dict(), "m": m, "values": self.VALUES}
        with pytest.raises(ValueError) as error:
            MartingaleSequence.from_json_dict(data)
        assert str(error.value).startswith("martingale m must be an integer, got ")
