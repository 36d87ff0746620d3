"""Stochastic integrals, symmetrization, isometry, and the recurrence."""
import math
import re
from itertools import combinations

import numpy as np
import pytest

from obtusewalk import (
    Kernel,
    PredictabilityError,
    PredictableProcess,
    VectorProcess,
    clark_ocone,
    conditional_expectation,
    construct_obtuse,
    divergence,
    expectation,
    increment_rv,
    integrate_predictable,
    monomial_kernel,
    multiple_integral,
    symmetrize,
)
from chaos_oracle import kernel_dot, kernel_head_slice, kernel_truncate, monomial_table
from helpers import (
    bernoulli,
    d2_fixture,
    max_abs_diff,
    random_kernel,
    random_predictable,
    random_process,
    random_table,
    random_walk,
)


class TestIntegratePredictable:
    def test_deterministic_unit_process(self):
        walk = bernoulli(1)
        vals = np.zeros((2, 4, 1))
        vals[0, :, 0] = 1.0
        result = integrate_predictable(walk, VectorProcess(walk.space, vals))
        assert np.array_equal(result.values, increment_rv(walk, 0, 1).values)

    def test_past_measurable_integrand(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        vals = np.zeros((2, 4, 1))
        vals[1, :, 0] = y0.values
        result = integrate_predictable(walk, VectorProcess(walk.space, vals))
        expected = y0 * increment_rv(walk, 1, 1)
        assert max_abs_diff(result, expected) == 0.0

    def test_rejects_non_predictable(self, rng):
        walk = bernoulli(1)
        with pytest.raises(PredictabilityError):
            integrate_predictable(walk, random_process(rng, walk))

    def test_zero_mean(self, rng):
        walk = random_walk(rng, 2, 2)
        u = random_predictable(rng, walk)
        assert abs(expectation(walk, integrate_predictable(walk, u))) < 1e-12

    def test_conditional_isometry_per_atom(self, rng):
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            u = random_predictable(rng, walk)
            for n in range(N + 1):
                tail = np.array(u.values)
                tail[:n] = 0.0
                integral = integrate_predictable(walk, VectorProcess(walk.space, tail))
                lhs = conditional_expectation(walk, integral * integral, n - 1)
                norm = np.einsum("kpj,kpj->p", tail, tail)
                rhs = conditional_expectation(
                    walk, type(integral)(walk.space, norm), n - 1
                )
                assert max_abs_diff(lhs, rhs) < 1e-10


ONES = np.ones((2, 2))


class TestKernel:
    @pytest.mark.parametrize(
        "times, message",
        [
            ([[0, 1], [-1, 2]], r"negative time index in \(-1, 2\)"),
            ([[0, 1], [2, 2], [-1, 0]], r"time tuple \(2, 2\) is not strictly increasing"),
            ([[0, 2], [1, 0]], r"time tuple \(1, 0\) is not strictly increasing"),
            ([[0, 1], [0, 1], [1, 0]], r"time tuple \(0, 1\) is repeated"),
            ([[1, 2], [0, 3], [-1, 4]], r"time tuple \(0, 3\) comes after \(1, 2\), out of"),
            ([[0, 2], [1, 2], [1, 3], [0, 4]], r"time tuple \(0, 4\) comes after \(1, 3\)"),
        ],
    )
    def test_first_bad_tuple_is_named(self, times, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Kernel(2, 2, np.array(times), np.zeros((len(times), 4)))

    def test_shapes_and_orders_are_checked(self):
        with pytest.raises(ValueError, match=r"^tensors have shape \(1, 2\), expected \(1, 4\)$"):
            Kernel(2, 2, np.array([[0, 1]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match=r"^tensors have shape \(2, 4\), expected \(1, 4\)$"):
            Kernel(2, 2, np.array([[0, 1]]), np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"^tuples are int64 \(1, 3\), not int \(U, 2\)$"):
            Kernel(2, 2, np.array([[0, 1, 2]]), np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"^tuples are float64 \(1, 2\), not int \(U, 2\)$"):
            Kernel(2, 2, np.array([[0.0, 1.0]]), np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"^time tuple \(\) is repeated$"):
            Kernel(0, 2, np.zeros((2, 0), dtype=np.int64), np.ones((2, 1)))
        with pytest.raises(ValueError, match=r"^kernel order must be >= 0$"):
            Kernel(-1, 2, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1)))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 1, 2): ONES}, r"tuple \(0, 1, 2\) has length != order 2"),
            ({(0, 1): np.ones(2)}, r"tensor at \(0, 1\) has shape \(2,\), expected \(2, 2\)"),
            ({(0, 1): ONES, (-1, 3): ONES}, r"negative time index in \(-1, 3\)"),
            ({(2, 1): ONES}, r"time tuple \(2, 1\) is not strictly increasing"),
            ({(0, 1): ONES, (0.5, 1): ONES}, r"times entry must be an integer, got 0\.5"),
        ],
    )
    def test_from_entries_keeps_the_mapping_messages(self, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Kernel.from_entries(2, 2, entries)
        with pytest.raises(ValueError, match=r"^kernel order must be >= 0$"):
            Kernel.from_entries(-1, 2, {})

    def test_from_entries_reads_times_as_integers(self):
        with pytest.raises(ValueError, match=r"^times entry must be an integer, got 0\.9$"):
            Kernel.from_entries(1, 1, {(0.9,): [1.0]})
        assert Kernel.from_entries(1, 1, {(2.0,): [1.0]}).times.tolist() == [[2]]

    def test_arrays_and_entries_are_read_only_views_of_one_layout(self, rng):
        kernel = random_kernel(rng, 2, 3, 2)
        assert kernel.times.tolist() == [list(t) for t in combinations(range(4), 2)]
        assert kernel.tensors.shape == (6, 4)
        for times, tensor in zip(kernel.times.tolist(), kernel.tensors):
            assert np.array_equal(kernel.entries[tuple(times)], tensor.reshape(2, 2))
        assert not kernel.times.flags.writeable and not kernel.tensors.flags.writeable
        with pytest.raises(TypeError):
            kernel.entries[(0, 1)] = np.zeros((2, 2))
        again = Kernel.from_entries(2, 2, kernel.entries)
        assert np.array_equal(again.times, kernel.times)
        assert np.array_equal(again.tensors, kernel.tensors)
        assert np.array_equal(kernel.tensor((0, 5)), np.zeros((2, 2)))
        assert Kernel.scalar(2.5, 3).entries == {(): 2.5}
        assert Kernel.zero(3, 2).entries == {}


class TestSymmetrize:
    def test_symmetric_input_is_fixed_point(self):
        raw = [
            ((0, 1), (1, 2), 0.7),
            ((1, 0), (2, 1), 0.7),
        ]
        kernel = symmetrize(raw, 2, 2)
        assert kernel.tensor((0, 1))[0, 1] == pytest.approx(0.7)

    def test_two_permutations_split_value(self):
        kernel = symmetrize([((0, 1), (1, 2), 1.0)], 2, 2)
        assert kernel.tensor((0, 1))[0, 1] == pytest.approx(0.5)
        assert kernel.tensor((0, 1))[1, 0] == pytest.approx(0.0)
        # the transposed-time value lands on the transposed components
        kernel_rev = symmetrize([((1, 0), (2, 1), 1.0)], 2, 2)
        assert kernel_rev.tensor((0, 1))[0, 1] == pytest.approx(0.5)

    def test_elementary_indicator_weight(self):
        # all orderings of the indicator at times {0,1}, coords (1,2)
        raw = [((0, 1), (1, 2), 1.0), ((1, 0), (2, 1), 1.0)]
        kernel = symmetrize(raw, 2, 2)
        assert kernel.tensor((0, 1))[0, 1] == pytest.approx(1.0)
        assert kernel.tensor((0, 1))[1, 0] == pytest.approx(0.0)

    def test_repeated_time_rejected(self):
        with pytest.raises(ValueError):
            symmetrize([((0, 0), (1, 1), 1.0)], 2, 1)

    def test_no_entries_is_the_zero_kernel(self):
        kernel, zero = symmetrize([], 2, 2), Kernel.zero(2, 2)
        assert (kernel.order, kernel.d) == (zero.order, zero.d)
        assert np.array_equal(kernel.times, zero.times) and kernel.times.shape == (0, 2)
        assert np.array_equal(kernel.tensors, zero.tensors) and kernel.tensors.shape == (0, 4)

    def test_order_zero_entries_add_up(self):
        kernel = symmetrize([((), (), 0.25), ([], [], 0.5)], 0, 2)
        assert kernel.entries == {(): 0.75}
        with pytest.raises(ValueError, match="^order-0 entries must have empty times and coords$"):
            symmetrize([((0,), (1,), 1.0)], 0, 2)

    @pytest.mark.parametrize("times, coords, message", [
        ([True, 2], [1, 1], "times entry must be an integer, got True"),
        ([0, 2], [1, 1.5], "coords entry must be an integer, got 1.5"),
        ([0.9, 2], [1, 1], "times entry must be an integer, got 0.9"),
    ])
    def test_entries_are_read_as_integers(self, times, coords, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            symmetrize([((0, 1), (1, 1), 1.0), (times, coords, 1.0)], 2, 1)

    def test_integral_floats_read_as_integers(self):
        floats = symmetrize([([1.0, 0.0], [2, 1.0], 0.5)], 2, 2)
        ints = symmetrize([([1, 0], [2, 1], 0.5)], 2, 2)
        assert np.array_equal(floats.times, ints.times)
        assert np.array_equal(floats.tensors, ints.tensors)

    def test_integral_invariant_under_symmetrization(self, rng):
        # a raw one-sided assignment and its symmetrization integrate equally
        walk = d2_fixture(1)
        raw_value = 0.83
        kernel = symmetrize([((1, 0), (2, 1), raw_value)], 2, 2)
        integral = multiple_integral(walk, kernel)
        expected = monomial_table(walk, (0, 1), (1, 2)) * raw_value
        assert max_abs_diff(integral, expected) < 1e-12


class TestMultipleIntegral:
    def test_order_zero_constant(self):
        walk = bernoulli(1)
        table = multiple_integral(walk, Kernel.scalar(3.0, 1))
        assert np.all(table.values == 3.0)

    def test_elementary_indicator_gives_monomial(self):
        walk = bernoulli(1)
        table = multiple_integral(walk, monomial_kernel((0, 1), (1, 1), 1))
        assert np.array_equal(table.values, [1.0, -1.0, -1.0, 1.0])

    def test_zero_mean(self, rng):
        walk = random_walk(rng, 2, 2)
        for r in (1, 2, 3):
            table = multiple_integral(walk, random_kernel(rng, 2, 2, r))
            assert abs(expectation(walk, table)) < 1e-12

    def test_order_above_horizon_is_zero(self):
        walk = bernoulli(0)
        kernel = Kernel.from_entries(2, 1, {})
        assert np.all(multiple_integral(walk, kernel).values == 0.0)

    def test_horizon_error(self):
        walk = bernoulli(0)
        kernel = monomial_kernel((0, 1), (1, 1), 1)
        with pytest.raises(ValueError):
            multiple_integral(walk, kernel)

    def test_isometry(self, rng):
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    f = random_kernel(rng, d, N, r)
                    g = random_kernel(rng, d, N, s)
                    lhs = expectation(
                        walk,
                        multiple_integral(walk, f) * multiple_integral(walk, g),
                    )
                    rhs = math.factorial(r) * kernel_dot(f, g) if r == s else 0.0
                    assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_recurrence(self, rng):
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for r in (1, 2, 3):
                f = random_kernel(rng, d, N, r)
                direct = multiple_integral(walk, f)
                total = np.zeros(walk.space.num_paths)
                for k in range(1, d + 1):
                    for last in range(N + 1):
                        head = kernel_head_slice(f, k, last)
                        inner = multiple_integral(walk, head)
                        total += r * inner.values * increment_rv(walk, last, k).values
                assert np.max(np.abs(direct.values - total)) < 1e-9

    def test_projection_matches_conditioning(self, rng):
        walk = random_walk(rng, 2, 2)
        for r in (1, 2, 3):
            f = random_kernel(rng, 2, 2, r)
            table = multiple_integral(walk, f)
            for horizon in range(-1, 3):
                conditioned = conditional_expectation(walk, table, horizon)
                truncated = multiple_integral(walk, kernel_truncate(f, horizon))
                assert max_abs_diff(conditioned, truncated) < 1e-10

    def test_measurability_corollary(self, rng):
        walk = random_walk(rng, 1, 2)
        f = random_kernel(rng, 1, 2, 2)
        table = multiple_integral(walk, f)
        # not F_1-measurable since f loads time 2; truncated version is
        from obtusewalk import is_measurable

        assert not is_measurable(table, 1)
        assert is_measurable(multiple_integral(walk, kernel_truncate(f, 1)), 1)


class TestMonomialKernel:
    def test_single_increment(self):
        walk = bernoulli(1)
        table = multiple_integral(walk, monomial_kernel((0,), (1,), 1))
        assert max_abs_diff(table, increment_rv(walk, 0, 1)) == 0.0

    def test_pair_on_bernoulli(self):
        walk = bernoulli(1)
        table = multiple_integral(walk, monomial_kernel((0, 1), (1, 1), 1))
        assert np.array_equal(table.values, [1.0, -1.0, -1.0, 1.0])

    def test_pair_on_d2_fixture(self):
        walk = d2_fixture(1)
        table = multiple_integral(walk, monomial_kernel((0, 1), (1, 2), 2))
        expected = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 2)
        assert max_abs_diff(table, expected) < 1e-14

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            monomial_kernel((1, 0), (1, 1), 1)
        with pytest.raises(ValueError):
            monomial_kernel((0, 0), (1, 1), 1)

    def test_times_and_coords_are_integers(self):
        with pytest.raises(ValueError, match=r"^times entry must be an integer, got 0\.7$"):
            monomial_kernel([0.7, 1.2], [1, 1], 1)
        with pytest.raises(ValueError, match=r"^coords entry must be an integer, got True$"):
            monomial_kernel([0, 1], [1, True], 1)
        floats = monomial_kernel([0.0, 2.0], [2.0, 1], 2)
        ints = monomial_kernel([0, 2], [2, 1], 2)
        assert np.array_equal(floats.times, ints.times)
        assert np.array_equal(floats.tensors, ints.tensors)


class TestVectorProcess:
    def test_predictability_flag(self, rng):
        walk = random_walk(rng, 2, 2)
        for process, predictable in ((random_predictable, True), (random_process, False)):
            defect = PredictableProcess.from_paths(walk.space, process(rng, walk).values).defect
            assert (defect <= 1e-10) == predictable

    def test_table_access(self, rng):
        walk = bernoulli(1)
        proc = random_process(rng, walk)
        assert np.array_equal(proc.table(1, 1).values, proc.values[1][:, 0])

    def test_nan_is_not_predictable(self):
        walk = construct_obtuse([[0.5, 0.5]] * 3)
        vals = np.zeros((3, walk.space.num_paths, 1))
        vals[1, 1, 0] = np.nan  # path 1 is not the first of its F_0 atom
        proc = VectorProcess(walk.space, vals)
        assert np.isnan(PredictableProcess.from_paths(walk.space, proc.values).defect)
        with pytest.raises(PredictabilityError, match="nan"):
            integrate_predictable(walk, proc)


class TestPredictableProcess:
    def test_from_paths_then_on_paths_is_the_input(self, rng):
        walk = random_walk(rng, 2, 3)
        values = random_predictable(rng, walk).values
        process = PredictableProcess.from_paths(walk.space, values)
        assert process.defect == 0.0
        assert np.array_equal(process.on_paths().view(np.uint64), values.view(np.uint64))
        for n in range(walk.N + 1):
            assert process.at(n).shape == (walk.space.atom_count(n - 1), walk.d)

    def test_nan_entry_is_a_nan_defect(self):
        walk = construct_obtuse([[0.5, 0.5]] * 3)
        values = np.zeros((3, walk.space.num_paths, 1))
        values[2, 3, 0] = np.nan  # path 3 is the second of its F_1 atom
        process = PredictableProcess.from_paths(walk.space, values)
        assert np.isnan(process.defect)
        with pytest.raises(PredictabilityError, match="nan"):
            integrate_predictable(walk, process)

    @pytest.mark.parametrize("d, N", [(1, 4), (2, 3), (3, 2)])
    def test_defect_is_the_largest_deviation_from_each_atoms_first_row(self, rng, d, N):
        """The defect is max|v - v0| over every atom of F_{n-1} at every n, bit for
        bit, on values of mixed magnitudes, with a NaN entry and with an infinite one."""
        walk = random_walk(rng, d, N)
        space = walk.space

        def subtracted(u, n):
            if n >= N:
                return 0.0
            v = u.reshape(space.atom_count(n), -1, d)
            return float(np.max(np.abs(v - v[:, :1])))

        for trial in range(20):
            values = random_process(rng, walk).values * 10.0 ** rng.integers(
                -300, 300, size=(N + 1, space.num_paths, d)
            )
            if trial % 4:
                bad = (np.nan, -np.inf, np.inf)[trial % 4 - 1]
                values[rng.integers(N + 1), rng.integers(space.num_paths), 0] = bad
            defect = PredictableProcess.from_paths(space, values).defect
            want = np.max([subtracted(u, n - 1) for n, u in enumerate(values)])
            assert np.array_equal(defect, want, equal_nan=True)

    def test_wrong_row_count_raises(self):
        walk = construct_obtuse([[0.5, 0.5]] * 3)  # 1 + 2 + 4 rows
        with pytest.raises(ValueError, match=r"shape \(6, 1\), expected \(7, width\)"):
            PredictableProcess(walk.space, np.zeros((6, 1)))
        with pytest.raises(ValueError, match=r"expected \(7, width\)"):
            PredictableProcess.from_paths(walk.space, np.zeros((2, 8, 1)))

    def test_integral_needs_one_entry_per_coordinate(self):
        walk = construct_obtuse([[0.5, 0.5]] * 3)
        process = PredictableProcess(walk.space, np.zeros((7, 2)))  # [beta | gamma] rows
        with pytest.raises(ValueError, match=r"^process rows have width 2, expected 1$"):
            integrate_predictable(walk, process)

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2), (3, 6)])
    def test_integral_on_atoms_has_the_bits_of_the_path_forms(self, rng, d, N):
        walk = random_walk(rng, d, N)
        xi = clark_ocone(walk, random_table(rng, walk.space))[1]
        on_paths = VectorProcess(walk.space, xi.on_paths())
        got = integrate_predictable(walk, xi).values.view(np.uint64)
        assert np.array_equal(got, integrate_predictable(walk, on_paths).values.view(np.uint64))
        assert np.array_equal(got, divergence(walk, on_paths).values.view(np.uint64))
