"""Path-space enumeration, measure, and conditional-expectation oracles."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from obtusewalk import (
    PathSpace,
    PathTable,
    SizeCapError,
    conditional_expectation,
    covariance,
    enumerate_paths,
    expectation,
    increment_rv,
    is_measurable,
    mutate_path,
    path_probability,
)
from helpers import bernoulli, biased, d2_fixture, random_table, random_walk
from malliavin_oracle import mutated_indices


class TestEnumeration:
    def test_single_step_binary(self):
        assert enumerate_paths(1, 0) == [(0,), (1,)]

    def test_two_step_binary_lexicographic(self):
        assert enumerate_paths(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_d2_counts_and_extremes(self):
        paths = enumerate_paths(2, 1)
        assert len(paths) == 9
        assert paths[0] == (0, 0)
        assert paths[-1] == (2, 2)

    def test_no_duplicates(self):
        paths = enumerate_paths(2, 2)
        assert len(set(paths)) == len(paths) == 27

    def test_cap_error_names_count(self):
        with pytest.raises(SizeCapError, match="1024"):
            enumerate_paths(1, 9, cap=1000)

    def test_cap_check_never_builds_a_huge_count(self):
        # (d+1)^(N+1) here has about 3e11 digits; the check stops at 2^11
        with pytest.raises(SizeCapError, match="at least 2048 entries"):
            PathSpace(1, 10**12, cap=1000)

    def test_index_round_trip(self):
        space = PathSpace(2, 2)
        for idx, path in enumerate(enumerate_paths(2, 2)):
            assert space.index_of(path) == idx
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
        assert path_probability(bernoulli(1), (0, 1)) == pytest.approx(0.25, abs=1e-15)

    def test_d2_fixture(self):
        assert path_probability(d2_fixture(1), (2, 2)) == pytest.approx(0.25, abs=1e-15)

    def test_normalization(self, rng):
        for d, N in [(1, 3), (2, 2), (3, 1)]:
            walk = random_walk(rng, d, N)
            total = sum(path_probability(walk, p) for p in enumerate_paths(d, N))
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
        assert conditional_expectation(walk, f, 0).allclose(0.0, atol=1e-12)

    def test_product_on_atoms(self):
        walk = bernoulli(1)
        f = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 1)
        assert conditional_expectation(walk, f, 0).allclose(0.0, atol=1e-15)

    def test_minus_one_is_mean(self, rng):
        walk = biased(2)
        f = random_table(rng, walk.space)
        ce = conditional_expectation(walk, f, -1)
        assert ce.allclose(expectation(walk, f), atol=1e-14)

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
                assert twice.max_abs_diff(direct) < 1e-12

    def test_result_is_measurable(self, rng):
        walk = random_walk(rng, 1, 3)
        f = random_table(rng, walk.space)
        for n in range(-1, 4):
            assert is_measurable(conditional_expectation(walk, f, n), n)


class TestMutatePath:
    def test_examples(self):
        assert mutate_path((0, 1), 0, 1) == (1, 1)
        assert mutate_path((0, 1), 1, 1) == (0, 1)
        assert mutate_path((2, 0), 1, 2) == (2, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mutate_path((0, 1), 2, 0)
        with pytest.raises(ValueError):
            mutate_path((0, 1), 0, 3, d=2)

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(0, 4),
        st.integers(0, 2),
    )
    def test_round_trip(self, path, k, i):
        path = tuple(path)
        k = k % len(path)
        mutated = mutate_path(path, k, i)
        assert mutate_path(mutated, k, path[k]) == path
        assert mutate_path(path, k, path[k]) == path

    def test_mutated_indices_consistent(self):
        for d, N in [(2, 2), (1, 3), (3, 1)]:
            space = PathSpace(d, N)
            for k in range(N + 1):
                mut = mutated_indices(space, k)
                for idx in range(space.num_paths):
                    for i in range(d + 1):
                        assert mut[idx, i] == space.index_of(
                            mutate_path(space.path_at(idx), k, i)
                        )


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
