"""Transform layer: Walsh forward/inverse, characters, Parseval, linearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshcube import hypercube
from walshcube.hypercube import (
    HypercubeFunction,
    _character_column,
    _fwht,
    WalshSpectrum,
    SignAssignment,
    character_matrix,
    evaluate_walsh_character,
    sign_vector,
    walsh_forward,
    walsh_forward_naive,
    walsh_inverse,
    walsh_inverse_naive,
)

from walshcube.martingales import FiniteFiltration
from walshcube.norms import FunctionFamily
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

from _naive import (
    butterfly_in_place_order,
    character_value,
    forward_double_sum,
    inverse_double_sum,
)


def random_function(n, m, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return HypercubeFunction.from_values(scale * rng.standard_normal((1 << n, m)))


class TestConstruction:
    def test_shape_is_inferred(self):
        f = random_function(3, 2)
        assert (f.n, f.m) == (3, 2)

    def test_one_dimensional_input_becomes_column(self):
        f = HypercubeFunction.from_values(np.arange(4.0))
        assert (f.n, f.m) == (2, 1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="2\\^n rows"):
            HypercubeFunction.from_values(np.zeros((6, 1)))

    def test_rejects_non_finite(self):
        values = np.zeros((4, 1))
        values[2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            HypercubeFunction.from_values(values)

    def test_rejects_oversized_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            HypercubeFunction(n=21, m=1, values=np.zeros((1 << 21, 1)))

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None])
    def test_library_dimensions_are_integers(self, n):
        # 1.5 and 2.0 once raised TypeError from a shift, and True passed as n = 1.
        builds = {
            "dyadic filtration": lambda: FiniteFiltration(kind="dyadic-hypercube", n=n),
            "FiniteFiltration.dyadic": lambda: FiniteFiltration.dyadic(n),
            "character": lambda: HypercubeFunction.character(n, 0, [1.0]),
            "SignAssignment": lambda: SignAssignment(n, 0),
        }
        for name, build in builds.items():
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == f"dimension n must be an integer, got {n!r}", name

    def test_each_constructor_and_reader_checks_its_table_once(self, monkeypatch):
        calls = []
        check = hypercube._check_table
        monkeypatch.setattr(hypercube, "_check_table", lambda *a: calls.append(1) or check(*a))
        values = np.arange(8.0).reshape(4, 2)
        table = {"n": 2, "m": 2, "values": values.tolist()}
        builds = {
            "HypercubeFunction": (lambda: HypercubeFunction(2, 2, values), 1),
            "from_values array": (lambda: HypercubeFunction.from_values(values), 1),
            "from_values list": (lambda: HypercubeFunction.from_values(values.tolist()), 1),
            "function reader": (lambda: HypercubeFunction.from_json_dict(table), 1),
            "WalshSpectrum": (lambda: WalshSpectrum(2, 2, values), 1),
            "from_coefficients": (lambda: WalshSpectrum.from_coefficients(values), 1),
            "spectrum reader": (
                lambda: WalshSpectrum.from_json_dict({"coefficients": values.tolist()}), 1
            ),
            "family reader, one per member": (
                lambda: FunctionFamily.from_json_dict({"functions": [values.tolist()] * 2}), 2
            ),
        }
        for name, (build, expected) in builds.items():
            calls.clear()
            build()
            assert len(calls) == expected, name
        # The one copy is the instance's own.
        assert not np.shares_memory(HypercubeFunction.from_values(values).values, values)

    @pytest.mark.parametrize(
        "field,value", [("n", 1.9), ("n", True), ("n", "1"), ("n", 1.0), ("m", 1.5), ("m", "1")]
    )
    def test_declared_dimensions_are_json_integers(self, field, value):
        # Each value once read as 1 through int() and passed against a 2 x 1 table.
        readers = {
            "values": HypercubeFunction.from_json_dict,
            "coefficients": WalshSpectrum.from_json_dict,
            "functions": FunctionFamily.from_json_dict,
        }
        for key, read in readers.items():
            table = [[0.5], [-0.5]]
            data = {key: [table] if key == "functions" else table, field: value}
            with pytest.raises(ValueError) as error:
                read(data)
            assert str(error.value).startswith(f"declared {field} must be an integer, got ")

    def test_values_are_read_only(self):
        f = random_function(2, 1)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_sign_assignment_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            SignAssignment(n=2, bitmask=4)
        assert_allclose(SignAssignment(n=3, bitmask=0b101).signs(), [-1.0, 1.0, -1.0])


F3 = random_function(3, 2)
INDEX_SITES = {
    "character": (lambda v: HypercubeFunction.character(3, v, [1.0]), "subset bitmask", 0, 7),
    "coefficient": (lambda v: walsh_forward(F3).coefficient(v), "subset bitmask", 0, 7),
    "sign-assignment": (lambda v: SignAssignment(n=3, bitmask=v), "bitmask", 0, 7),
    "character-subset": (lambda v: evaluate_walsh_character(v, 0, 3), "subset bitmask", 0, 7),
    "character-point": (lambda v: evaluate_walsh_character(0, v, 3), "point index", 0, 7),
    "prefix-mask": (lambda v: Permutation.identity(3).prefix_mask(v), "level", 0, 3),
    "partial-derivative": (lambda v: partial_derivative(F3, v), "coordinate", 1, 3),
    "averaging": (lambda v: averaging_operator(F3, v), "coordinate", 1, 3),
    "martingale-difference": (lambda v: martingale_difference(F3, v), "coordinate", 1, 3),
    "conditional-expectation": (lambda v: conditional_expectation(F3, v), "level", 0, 3),
    "filtration-condition": (
        lambda v: FiniteFiltration.dyadic(3).condition(F3.values, v), "level", 0, 3
    ),
}


@pytest.mark.parametrize("site", INDEX_SITES)
@pytest.mark.parametrize("side", ["below", "above"])
def test_every_index_site_states_one_range_message(site, side):
    call, what, low, high = INDEX_SITES[site]
    value = low - 1 if side == "below" else high + 1
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == f"{what} {value} out of range {low}..{high}"
    call(low)  # both ends are in range
    call(high)


class TestWalshCharacter:
    def test_empty_subset_is_one_everywhere(self):
        assert all(evaluate_walsh_character(0, k) == 1 for k in range(8))

    def test_singleton_on_flipped_coordinate(self):
        # A = {1}, eps with bit 0 set means eps_1 = -1.
        assert evaluate_walsh_character(0b1, 0b1) == -1

    def test_hand_product_n3(self):
        # A = {1,3}; eps = (-1, +1, -1) has index 0b101; product is (-1)(-1) = +1.
        assert evaluate_walsh_character(0b101, 0b101, n=3) == 1

    def test_matches_literal_product(self):
        for a in range(16):
            for k in range(16):
                assert evaluate_walsh_character(a, k) == character_value(a, k)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            evaluate_walsh_character(8, 0, n=3)
        with pytest.raises(ValueError):
            evaluate_walsh_character(0, 8, n=3)


class TestForwardTransform:
    def test_constant_function_concentrates_on_empty_set(self):
        c = np.array([2.5, -1.0])
        s = walsh_forward(HypercubeFunction.constant(4, c))
        assert_allclose(s.coefficient(0), c)
        assert_allclose(s.coefficients[1:], 0.0, atol=1e-15)

    def test_single_character_recovers_its_coefficient(self):
        v = np.array([1.0, -2.0, 0.5])
        f = HypercubeFunction.character(5, 0b10110, v)
        s = walsh_forward(f)
        assert_allclose(s.coefficient(0b10110), v)
        others = np.delete(s.coefficients, 0b10110, axis=0)
        assert_allclose(others, 0.0, atol=1e-15)

    def test_matches_double_sum_oracle(self):
        f = random_function(6, 3, seed=11)
        expected = forward_double_sum(f)
        got = walsh_forward(f).coefficients
        assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_fast_equals_naive_matrix_route(self):
        for n in range(1, 9):
            f = random_function(n, 2, seed=n)
            assert_allclose(
                walsh_forward(f).coefficients,
                walsh_forward_naive(f).coefficients,
                rtol=1e-12,
                atol=1e-14,
            )


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


class TestButterflyBits:
    """`_fwht` against the in-place stage order it replaced, bit for bit."""

    def inputs(self, n, m, lead, rng):
        # Magnitudes from 1e-300 to 1e300, exact zeros of both signs.
        table = rng.standard_normal(lead + (1 << n, m))
        table *= 10.0 ** rng.choice([-300.0, -150.0, 0.0, 150.0, 300.0], size=table.shape)
        zeros = rng.random(table.shape) < 0.1
        table[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
        return table

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_in_place_order(self, lead):
        rng = np.random.default_rng(len(lead))
        for n in range(1, 13):
            for m in (1, 2, 3, 4, 8, 9):
                table = self.inputs(n, m, lead, rng)
                got = _fwht(table)
                assert got.shape == table.shape and got.flags.c_contiguous
                assert np.array_equal(_bits(got), _bits(butterfly_in_place_order(table))), (n, m)

    def test_broadcast_read_only_and_integer_inputs(self):
        rng = np.random.default_rng(5)
        for block in (hypercube._BLOCK, 8, 64, 512):  # one block, then split both ways
            for n in (1, 4, 9):
                table = self.inputs(n, 3, (), rng)
                frozen = table.copy()
                frozen.setflags(write=False)
                integers = rng.integers(-1000, 1000, size=(2, 1 << n, 3))
                for view in (
                    np.broadcast_to(table, (2, 3) + table.shape),  # zero strides on the batch
                    np.broadcast_to(table[:, :1], table.shape),  # one column repeated
                    frozen,
                    table[::-1],  # negative row stride
                    np.asfortranarray(table),
                    integers,
                ):
                    expected = butterfly_in_place_order(view)
                    got = _fwht(view, block=block)
                    assert np.array_equal(_bits(got), _bits(expected)), (block, n, view.strides)
                assert np.array_equal(_bits(table), _bits(frozen))  # the input is untouched

    # Blocks far below `_BLOCK` split small tables both ways: phase 1 loops
    # over blocks of rows (a (3, 2^9, 1) stack at block 8 is 192 rows of
    # B = 8 points, one block each), phase 2 over column panels, ragged where
    # the panel width does not divide B m (n=5, m=3 at block 64: B = 16
    # points of 3 columns, panels of 32 and 16), and m = 9 > 8 leaves phase 1
    # no bits at block 8.
    @pytest.mark.parametrize("block", [8, 64, 512])
    def test_blocked_splits_equal_in_place_order(self, block):
        rng = np.random.default_rng(block)
        for lead in [(), (3,), (2, 3)]:
            for n in range(1, 10):
                for m in (1, 3, 9):
                    table = self.inputs(n, m, lead, rng)
                    got = _fwht(table, block=block)
                    assert got.shape == table.shape and got.flags.c_contiguous
                    assert np.array_equal(_bits(got), _bits(butterfly_in_place_order(table))), (
                        lead, n, m,
                    )

    def test_table_above_the_real_block(self):
        table = self.inputs(17, 1, (), np.random.default_rng(17))
        assert table.size > hypercube._BLOCK
        assert np.array_equal(_bits(_fwht(table)), _bits(butterfly_in_place_order(table)))

    def test_signed_zeros_and_extremes(self):
        table = np.array(
            [
                [0.0, -0.0, 1e300],
                [-0.0, -0.0, 1e300],
                [0.0, 5e-324, -1e300],
                [-0.0, -5e-324, 1e-300],
            ]
        )
        assert np.array_equal(_bits(_fwht(table)), _bits(butterfly_in_place_order(table)))


class TestOwnedOutputs:
    """The transforms and operators keep the arrays they compute, read-only."""

    def outputs(self, f):
        spectrum = walsh_forward(f)
        return [
            spectrum.coefficients,
            walsh_inverse(spectrum).values,
            partial_derivative(f, 1).values,
            averaging_operator(f, 2).values,
            conditional_expectation(f, 1).values,
            conditional_expectation_permuted(f, Permutation(3, (2, 3, 1)), 2).values,
            fractional_laplacian(f, 0.5).values,
            rademacher_projection(f).values,
            martingale_difference(f, 2).values,
            (f + f).values,
            (f - f).values,
            (2.0 * f).values,
            (-f).values,
        ]

    def test_read_only(self):
        for out in self.outputs(random_function(3, 2, seed=4)):
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = 1.0

    def test_later_writes_to_the_input_buffer_do_not_reach_them(self):
        buffer = np.random.default_rng(6).standard_normal((8, 2))
        f = HypercubeFunction.from_values(buffer)
        before = [out.copy() for out in self.outputs(f)]
        spectrum = walsh_forward(f)
        coefficients = spectrum.coefficients.copy()
        back = WalshSpectrum.from_coefficients(coefficients)
        buffer[:] = 7.0
        coefficients[:] = -3.0
        for out, kept in zip(self.outputs(f), before):
            assert np.array_equal(out, kept)
        assert np.array_equal(walsh_inverse(back).values, walsh_inverse(spectrum).values)

    def test_overflow_is_a_value_error(self):
        table = np.array([[1e308], [1e308]])
        huge = HypercubeFunction.from_values(table)
        spectrum = WalshSpectrum.from_coefficients(table)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="spectrum table contains non-finite"):
                walsh_forward(huge)
            with pytest.raises(ValueError, match="function table contains non-finite"):
                walsh_inverse(spectrum)
            with pytest.raises(ValueError, match="function table contains non-finite"):
                huge + huge


class TestInverseTransform:
    def test_zero_spectrum_gives_zero_function(self):
        s = WalshSpectrum.from_coefficients(np.zeros((8, 2)))
        assert_allclose(walsh_inverse(s).values, 0.0)

    def test_mean_only_spectrum_gives_constant(self):
        coeffs = np.zeros((16, 1))
        coeffs[0, 0] = 3.25
        f = walsh_inverse(WalshSpectrum.from_coefficients(coeffs))
        assert_allclose(f.values, 3.25)

    def test_round_trip_identity(self):
        f = random_function(8, 2, seed=3)
        back = walsh_inverse(walsh_forward(f))
        assert_allclose(back.values, f.values, rtol=1e-12, atol=1e-14)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        s = WalshSpectrum.from_coefficients(rng.standard_normal((32, 2)))
        assert_allclose(walsh_inverse(s).values, inverse_double_sum(s), rtol=1e-12, atol=1e-14)
        assert_allclose(
            walsh_inverse_naive(s).values, inverse_double_sum(s), rtol=1e-12, atol=1e-14
        )


class TestTransformProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, seed):
        f = random_function(n, 1, seed=seed)
        back = walsh_inverse(walsh_forward(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(
            1.0, np.max(np.abs(f.values))
        )

    def test_parseval_scalar(self):
        for n in range(1, 11):
            f = random_function(n, 1, seed=100 + n)
            s = walsh_forward(f)
            lhs = np.mean(f.values**2)
            rhs = np.sum(s.coefficients**2)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_linearity(self):
        f = random_function(6, 2, seed=1)
        g = random_function(6, 2, seed=2)
        combo = walsh_forward(1.5 * f + (-2.0) * g)
        expected = 1.5 * walsh_forward(f).coefficients - 2.0 * walsh_forward(g).coefficients
        assert_allclose(combo.coefficients, expected, rtol=1e-12, atol=1e-14)

    def test_character_orthogonality_is_exact(self):
        # Integer arithmetic: the inner products are computed over +-1 entries.
        for n in range(1, 9):
            w = character_matrix(n).astype(np.int64)
            gram = w @ w.T  # 2^n on the diagonal, 0 off it, exactly
            assert np.array_equal(gram, (1 << n) * np.eye(1 << n, dtype=np.int64))

    def test_character_matrix_holds_each_character_value(self):
        for n in range(1, 9):
            w = character_matrix(n)
            expected = [
                [evaluate_walsh_character(a, k, n) for k in range(1 << n)] for a in range(1 << n)
            ]
            assert np.array_equal(w, np.array(expected, dtype=np.float64))

    def test_sylvester_doubling_has_the_bytes_of_the_popcount_gather(self):
        # The matrix built before: the parities of A & k gathered from one column.
        for n in range(1, 11):
            idx = np.arange(1 << n, dtype=np.uint16)
            gathered = _character_column((1 << n) - 1, n)[np.bitwise_and.outer(idx, idx)]
            assert character_matrix(n).tobytes() == gathered.tobytes()

    def test_character_matrix_is_the_popcount_parity_at_the_largest_size(self):
        w = character_matrix(10)
        idx = np.arange(1 << 10, dtype=np.uint64)
        parity = np.bitwise_count(idx[:, None] & idx[None, :]) & np.uint64(1)
        assert w.dtype == np.float64 and w.flags.c_contiguous
        assert np.array_equal(w, 1.0 - 2.0 * parity.astype(np.float64))
        with pytest.raises(ValueError):
            character_matrix(11)

    def test_sign_vector_convention(self):
        # Bit 0 clear -> coordinate 1 equals +1.
        assert_allclose(sign_vector(3, 0b100), [1.0, 1.0, -1.0])
