"""Path-space enumeration, the path measure, and (conditional) expectations."""
import numpy as np
import pytest

from obtusewalk import (
    PathSpace,
    PathTable,
    SizeCapError,
    conditional_expectation,
    covariance,
    expectation,
    increment_rv,
    is_measurable,
)
from obtusewalk.omega import _as_int, _as_real, _tree_offset, tree_means
from helpers import (
    allclose,
    atom_means,
    bernoulli,
    biased,
    d2_fixture,
    max_abs_diff,
    random_table,
    random_walk,
)
from malliavin_oracle import mutated_indices
from market_oracle import oracle_measure


def _paths(d, N):
    """Every path of the space as a tuple, in index order."""
    return [tuple(row) for row in PathSpace(d, N).outcomes.tolist()]


class TestEnumeration:
    def test_single_step_binary(self):
        assert _paths(1, 0) == [(0,), (1,)]

    def test_two_step_binary_lexicographic(self):
        assert _paths(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_d2_counts_and_extremes(self):
        space = PathSpace(2, 1)
        assert space.num_paths == 9
        assert space.path_at(0) == (0, 0)
        assert space.path_at(8) == (2, 2)

    def test_no_duplicates(self):
        paths = _paths(2, 2)
        assert len(set(paths)) == len(paths) == 27

    def test_cap_error_names_count(self):
        with pytest.raises(SizeCapError, match="1024"):
            PathSpace(1, 9, cap=1000)

    def test_cap_check_never_builds_a_huge_count(self):
        # (d+1)^(N+1) here has about 3e11 digits; the check stops at 2^11
        with pytest.raises(SizeCapError, match="at least 2048 entries"):
            PathSpace(1, 10**12, cap=1000)

    def test_index_round_trip(self):
        # a path's index is the base-(d+1) number of its outcomes, time 0 first
        space = PathSpace(2, 2)
        for idx, path in enumerate(_paths(2, 2)):
            assert int("".join(map(str, path)), 3) == idx
            assert space.path_at(idx) == path

    @pytest.mark.parametrize("d,N", [(2, 2), (1, 3), (3, 1)])
    def test_path_at_decodes_the_index(self, d, N):
        space = PathSpace(d, N)
        decoded = [space.path_at(idx) for idx in range(space.num_paths)]
        assert "outcomes" not in space.__dict__
        assert decoded == [tuple(row) for row in space.outcomes.tolist()]
        with pytest.raises(ValueError):
            space.path_at(space.num_paths)

    def test_outcomes_table_layout(self):
        out = PathSpace(2, 2).outcomes
        assert out.dtype == np.int32 and out.flags.c_contiguous and not out.flags.writeable
        assert out.tolist() == [[a, b, c] for a in range(3) for b in range(3) for c in range(3)]


class TestPathProbability:
    def test_symmetric_bernoulli(self):
        assert bernoulli(1).measure[1] == pytest.approx(0.25, abs=1e-15)  # path (0, 1)

    def test_d2_fixture(self):
        assert d2_fixture(1).measure[8] == pytest.approx(0.25, abs=1e-15)  # path (2, 2)

    def test_normalization(self, rng):
        for d, N in [(1, 3), (2, 2), (3, 1)]:
            walk = random_walk(rng, d, N)
            total = sum(oracle_measure(walk).tolist())  # one product per path, summed in order
            assert total == pytest.approx(1.0, abs=1e-12)
            assert np.add.reduce(walk.measure) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive(self, rng):
        walk = random_walk(rng, 2, 2)
        assert np.all(walk.measure > 0.0)


class TestExpectation:
    def test_constant(self):
        walk = bernoulli(1)
        assert expectation(walk, PathTable.constant(walk.space, 3.25)) == 3.25

    def test_increment_is_centered(self, rng):
        walk = random_walk(rng, 2, 2)
        for n in range(3):
            for j in (1, 2):
                assert abs(expectation(walk, increment_rv(walk, n, j))) < 1e-12

    def test_indicator_of_path(self):
        walk = bernoulli(1)
        values = np.zeros(4)
        values[0] = 1.0  # path (0, 0)
        assert expectation(walk, PathTable(walk.space, values)) == pytest.approx(0.25)

    def test_linearity(self, rng):
        walk = biased(2)
        f = random_table(rng, walk.space)
        g = random_table(rng, walk.space)
        lhs = expectation(walk, f * 2.0 + g * (-0.5))
        rhs = 2.0 * expectation(walk, f) - 0.5 * expectation(walk, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConditionalExpectation:
    def test_terminal_time_returns_table(self, rng):
        walk = bernoulli(2)
        f = random_table(rng, walk.space)
        assert np.array_equal(conditional_expectation(walk, f, 2).values, f.values)

    def test_increment_given_past_is_zero(self, rng):
        walk = random_walk(rng, 2, 1)
        f = increment_rv(walk, 1, 2)
        assert allclose(conditional_expectation(walk, f, 0), 0.0, atol=1e-12)

    def test_product_on_atoms(self):
        walk = bernoulli(1)
        f = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 1)
        assert allclose(conditional_expectation(walk, f, 0), 0.0, atol=1e-15)

    def test_minus_one_is_mean(self, rng):
        walk = biased(2)
        f = random_table(rng, walk.space)
        ce = conditional_expectation(walk, f, -1)
        assert allclose(ce, expectation(walk, f), atol=1e-14)

    def test_range_error(self, rng):
        walk = bernoulli(1)
        f = random_table(rng, walk.space)
        with pytest.raises(ValueError):
            conditional_expectation(walk, f, 2)
        with pytest.raises(ValueError):
            conditional_expectation(walk, f, -2)

    def test_tower_property(self, rng):
        walk = random_walk(rng, 2, 2)
        f = random_table(rng, walk.space)
        for m in range(-1, 3):
            for n in range(-1, 3):
                once = conditional_expectation(walk, f, m)
                twice = conditional_expectation(walk, once, n)
                direct = conditional_expectation(walk, f, min(m, n))
                assert max_abs_diff(twice, direct) < 1e-12

    def test_result_is_measurable(self, rng):
        walk = random_walk(rng, 1, 3)
        f = random_table(rng, walk.space)
        for n in range(-1, 4):
            assert is_measurable(conditional_expectation(walk, f, n), n)


class TestTreeMeans:
    @pytest.mark.parametrize("d, N", [(1, 0), (1, 5), (2, 4), (3, 3)])
    def test_every_range_has_the_bits_of_its_levels(self, rng, d, N):
        """For every (first, stop), the means on F_first..F_{stop-1} in tree
        order are the one-level calls and the oracle, byte for byte."""
        for _ in range(3):
            walk = random_walk(rng, d, N)
            values = random_table(rng, walk.space).values
            levels = {n: tree_means(walk, values, n, n + 1) for n in range(-1, N + 1)}
            for n, means in levels.items():
                assert means.tobytes() == atom_means(walk, values, n).tobytes()
            for first in range(-1, N + 1):
                for stop in range(first, N + 2):
                    got = tree_means(walk, values, first, stop)
                    assert len(got) == _tree_offset(d, stop) - _tree_offset(d, first)
                    want = [np.empty(0)] + [levels[n] for n in range(first, stop)]
                    assert got.tobytes() == np.concatenate(want).tobytes()

    def test_last_level_is_the_values_themselves(self, rng):
        walk = random_walk(rng, 2, 2)
        values = random_table(rng, walk.space).values
        assert tree_means(walk, values, 2, 3) is values


class TestMutatePath:
    def test_mutated_indices_consistent(self):
        for d, N in [(2, 2), (1, 3), (3, 1)]:
            space = PathSpace(d, N)
            index = {path: idx for idx, path in enumerate(_paths(d, N))}
            for k in range(N + 1):
                mut = mutated_indices(space, k)
                for idx in range(space.num_paths):
                    for i in range(d + 1):
                        mutated = list(space.path_at(idx))
                        mutated[k] = i
                        assert mut[idx, i] == index[tuple(mutated)]


class TestCovariance:
    def test_variance_nonnegative(self, rng):
        walk = random_walk(rng, 2, 1)
        f = random_table(rng, walk.space)
        assert covariance(walk, f, f) >= 0.0

    def test_constant_gives_zero(self, rng):
        walk = bernoulli(1)
        f = random_table(rng, walk.space)
        g = PathTable.constant(walk.space, 7.0)
        assert covariance(walk, f, g) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_monomials(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        y0y1 = y0 * increment_rv(walk, 1, 1)
        assert covariance(walk, y0, y0y1) == pytest.approx(0.0, abs=1e-14)


class TestIntegerRule:
    @pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 2.0, np.float32(2.0), -0.0])
    def test_integers_and_integral_floats_pass(self, value):
        got = _as_int(value, "N")
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [
        True, False, np.True_, "2", 1.5, np.float64(1e-300), float("inf"), float("nan"), None, [2],
    ])
    def test_anything_else_is_one_error_naming_the_field(self, value):
        with pytest.raises(ValueError) as info:
            _as_int(value, "N")
        assert str(info.value) == f"N must be an integer, got {value!r}"

    def test_path_index_is_read_by_the_rule(self):
        space = PathSpace(2, 1)
        assert space.path_at(5.0) == space.path_at(5) == (1, 2)
        with pytest.raises(ValueError, match=r"^path index must be an integer, got 1.5$"):
            space.path_at(1.5)


class TestRealRule:
    @pytest.mark.parametrize("value", [
        2, -0.0, 1e308, np.float64(0.5), np.int64(3), [], [1, 2.5], [[0.5], [2]], float("nan"),
    ])
    def test_numbers_and_lists_of_numbers_pass(self, value):
        got = _as_real(value, "p entry")
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(value, dtype=float), equal_nan=True)

    @pytest.mark.parametrize("value, bad", [
        (True, True), ("0.5", "0.5"), (None, None), ([0.5, False], False),
        ([[1.0], ["2"]], "2"), ([[1.0, None]], None), ({"a": 1}, {"a": 1}),
        ([0.5, 1j], 1j), ([np.complex128(1.0)], np.complex128(1.0)), ([np.True_], np.True_),
    ])
    def test_bool_string_or_null_is_one_error_naming_the_field(self, value, bad):
        with pytest.raises(ValueError) as info:
            _as_real(value, "p entry")
        assert str(info.value) == f"p entry must be a real number, got {bad!r}"

    @pytest.mark.parametrize("value", [[[1.0], [2.0, 3.0]], [[1.0], 2.0]])
    def test_uneven_lists_are_refused(self, value):
        with pytest.raises(ValueError):
            _as_real(value, "p entry")


class TestTableArithmetic:
    def test_reflected_subtraction_and_negation(self, rng):
        table = random_table(rng, PathSpace(2, 2))
        assert np.array_equal((5 - table).values, 5.0 - table.values)
        assert np.array_equal((-table).values, np.negative(table.values))
        other = random_table(rng, table.space).values
        assert np.array_equal((other.tolist() - table).values, other - table.values)
