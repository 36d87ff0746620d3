"""Chaos decomposition round trips, projections, and energy identities."""
import math
from itertools import combinations

import numpy as np
import pytest

from obtusewalk import (
    ChaosCoefficients,
    Kernel,
    PathTable,
    WalkSpec,
    conditional_expectation,
    decompose,
    expectation,
    gradient,
    gradient_chaos,
    increment_rv,
    is_measurable,
    monomial_kernel,
    multiple_integral,
    parseval_energy,
    project_horizon,
    reconstruct,
)
from obtusewalk.serialize import kernel_from_json
from chaos_oracle import monomial_table
from helpers import (
    allclose,
    bernoulli,
    d2_fixture,
    max_abs_diff,
    random_kernel,
    random_table,
    random_walk,
)


class TestDecompose:
    def test_constant(self):
        walk = bernoulli(1)
        coeffs = decompose(walk, PathTable.constant(walk.space, 4.5))
        assert coeffs.mean == pytest.approx(4.5)
        assert coeffs.max_order() == 0

    def test_single_increment(self):
        walk = bernoulli(1)
        coeffs = decompose(walk, increment_rv(walk, 0, 1))
        assert coeffs.mean == pytest.approx(0.0, abs=1e-15)
        assert coeffs.kernel(1).tensor((0,))[0] == pytest.approx(1.0)
        assert np.all(coeffs.kernel(1).tensor((1,)) == pytest.approx(0.0))
        assert coeffs.max_order() == 1

    def test_indicator_coefficients(self):
        walk = bernoulli(1)
        values = np.zeros(4)
        values[0] = 1.0  # indicator of the path (0, 0)
        coeffs = decompose(walk, PathTable(walk.space, values))
        assert coeffs.mean == pytest.approx(0.25)
        assert coeffs.kernel(1).tensor((0,))[0] == pytest.approx(0.25)
        assert coeffs.kernel(1).tensor((1,))[0] == pytest.approx(0.25)
        assert coeffs.kernel(2).tensor((0, 1))[0, 0] == pytest.approx(0.125)
        # the expansion is (1 + Y_0 + Y_1 + Y_0 Y_1) / 4
        y0, y1 = increment_rv(walk, 0, 1), increment_rv(walk, 1, 1)
        expansion = (PathTable.constant(walk.space, 1.0) + y0 + y1 + y0 * y1) * 0.25
        assert max_abs_diff(expansion, PathTable(walk.space, values)) < 1e-14


class TestReconstruct:
    def test_mean_only(self):
        walk = bernoulli(1)
        coeffs = ChaosCoefficients.from_kernels(1, 1, 5.0, [Kernel.zero(1, 1), Kernel.zero(2, 1)])
        assert np.all(reconstruct(walk, coeffs).values == 5.0)

    def test_order_zero_kernel_adds_to_the_mean(self):
        walk = bernoulli(1)
        coeffs = ChaosCoefficients.from_kernels(1, 1, 5.0, [Kernel.scalar(2.0, 1)])
        assert coeffs.mean == 7.0
        assert np.all(reconstruct(walk, coeffs).values == 7.0)

    def test_from_kernels_checks_dimension_and_horizon(self):
        with pytest.raises(ValueError, match="dimension"):
            ChaosCoefficients.from_kernels(1, 1, 0.0, [monomial_kernel((0,), (1,), 2)])
        with pytest.raises(ValueError, match="beyond horizon 1"):
            ChaosCoefficients.from_kernels(1, 1, 0.0, [monomial_kernel((2,), (1,), 1)])

    def test_zero_entries_beyond_the_horizon_are_dropped(self):
        kernel = Kernel.from_entries(1, 2, {(0,): [1.0, 2.0], (3,): [0.0, 0.0]})
        coeffs = ChaosCoefficients.from_kernels(2, 1, 0.5, [kernel])
        assert coeffs.coef[:, 0].tolist() == [0.5, 1.0, 2.0]
        assert coeffs.max_time() == 0

    def test_kernel_view_at_the_ends(self):
        coeffs = ChaosCoefficients.from_kernels(1, 1, 5.0, [])
        assert coeffs.kernel(0).entries[()] == 5.0
        assert coeffs.kernel(3).entries == {}

    def test_order_beyond_an_array_is_one_error_line(self):
        coeffs = ChaosCoefficients.from_kernels(2, 3, 1.5, [])
        message = r"^an order-63 kernel on d = 2 has more components than an array holds$"
        with pytest.raises(ValueError, match=message):
            coeffs.kernel(63)
        with pytest.raises(ValueError, match=message):
            kernel_from_json({"order": 63, "entries": []}, 2)
        entry = {"times": list(range(63)), "coords": [1] * 63, "value": 1.0}
        with pytest.raises(ValueError, match=message):
            kernel_from_json({"order": 63, "entries": [entry]}, 2)
        assert coeffs.kernel(59).tensors.shape == (0, 2**59)  # the largest that fits
        assert ChaosCoefficients.from_kernels(1, 3, 1.5, []).kernel(10**6).tensors.shape == (0, 1)

    def test_orders_above_the_horizon_build_no_digit_table(self):
        # 2**40 components per tuple: only an empty kernel of this order fits in memory
        coeffs = ChaosCoefficients.from_kernels(2, 3, 1.5, [Kernel.zero(40, 2)])
        assert coeffs.mean == 1.5 and coeffs.max_order() == 0
        assert coeffs.kernel(40).tensors.shape == (0, 2**40)

    def test_tensor_shape_is_checked(self):
        with pytest.raises(ValueError, match="shape"):
            ChaosCoefficients(1, 2, np.zeros((2, 2)))
        coeffs = ChaosCoefficients(1, 1, np.zeros((2, 2)))
        assert not coeffs.coef.flags.writeable

    def test_other_horizons_that_use_no_later_time(self, rng):
        walk = random_walk(rng, 2, 2)
        head = WalkSpec(2, 1, walk.steps[:2])
        f = random_table(rng, head.space)
        expected = np.repeat(f.values, 3)  # F does not depend on the last step
        short = decompose(head, f)
        assert max_abs_diff(reconstruct(walk, short), expected) < 1e-12
        padded = np.zeros((3,) * 4)
        padded[:, :, 0, 0] = short.coef
        longer = ChaosCoefficients(2, 3, padded)
        assert longer.max_time() == 1
        assert max_abs_diff(reconstruct(walk, longer), expected) < 1e-12

    def test_later_times_are_rejected(self, rng):
        walk = random_walk(rng, 1, 1)
        late = ChaosCoefficients.from_kernels(1, 2, 0.0, [monomial_kernel((2,), (1,), 1)])
        assert late.max_time() == 2
        with pytest.raises(ValueError, match="beyond the walk horizon 1"):
            reconstruct(walk, late)
        with pytest.raises(ValueError, match="beyond the walk horizon 1"):
            gradient_chaos(walk, late, 0, 1)
        with pytest.raises(ValueError, match="dimension"):
            reconstruct(random_walk(rng, 2, 2), late)

    def test_monomial_coefficients(self):
        walk = bernoulli(1)
        target = monomial_table(walk, (0, 1), (1, 1))
        coeffs = decompose(walk, target)
        assert max_abs_diff(reconstruct(walk, coeffs), target) < 1e-14

    def test_round_trip_random_tables(self, rng):
        walk = d2_fixture(2)
        for _ in range(20):
            table = random_table(rng, walk.space)
            recon = reconstruct(walk, decompose(walk, table))
            assert max_abs_diff(recon, table) < 1e-10

    @pytest.mark.parametrize("N", [10, 11])
    def test_round_trip_beyond_ten_steps(self, rng, N):
        walk = random_walk(rng, 1, N)
        table = random_table(rng, walk.space)
        assert max_abs_diff(reconstruct(walk, decompose(walk, table)), table) < 1e-12

    def test_linear_in_coefficients(self, rng):
        walk = random_walk(rng, 2, 1)
        f = random_table(rng, walk.space)
        g = random_table(rng, walk.space)
        cf, cg = decompose(walk, f), decompose(walk, g)
        combo = ChaosCoefficients(cf.d, cf.N, cf.coef + 2.0 * cg.coef)
        assert max_abs_diff(reconstruct(walk, combo), f + g * 2.0) < 1e-10


class TestProjectHorizon:
    def test_full_horizon_is_identity(self, rng):
        walk = bernoulli(2)
        coeffs = decompose(walk, random_table(rng, walk.space))
        projected = project_horizon(coeffs, 2)
        assert max_abs_diff(reconstruct(walk, projected), reconstruct(walk, coeffs)) == 0.0

    def test_minus_one_keeps_only_mean(self, rng):
        walk = bernoulli(2)
        table = random_table(rng, walk.space)
        coeffs = project_horizon(decompose(walk, table), -1)
        assert coeffs.max_order() == 0
        assert allclose(reconstruct(walk, coeffs), expectation(walk, table), atol=1e-12)

    def test_monomial_projects_to_zero(self):
        walk = bernoulli(1)
        coeffs = decompose(walk, monomial_table(walk, (0, 1), (1, 1)))
        projected = project_horizon(coeffs, 0)
        assert allclose(reconstruct(walk, projected), 0.0, atol=1e-14)

    def test_matches_conditional_expectation(self, rng):
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        coeffs = decompose(walk, table)
        for n in range(-1, 3):
            lhs = reconstruct(walk, project_horizon(coeffs, n))
            rhs = conditional_expectation(walk, table, n)
            assert max_abs_diff(lhs, rhs) < 1e-10

    def test_range_error(self, rng):
        walk = bernoulli(1)
        coeffs = decompose(walk, random_table(rng, walk.space))
        with pytest.raises(ValueError):
            project_horizon(coeffs, 2)


class TestInvariants:
    def test_dimension_count(self):
        for d, n in [(1, 2), (2, 2), (3, 1)]:
            total = 1
            for r in range(1, n + 2):
                count = math.comb(n + 1, r) * d**r
                total += count
                assert count == len(
                    [t for t in combinations(range(n + 1), r)]
                ) * d**r
            assert total == (d + 1) ** (n + 1)

    def test_chaos_orthogonality(self, rng):
        walk = random_walk(rng, 2, 2)
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                if r == s:
                    continue
                f = multiple_integral(walk, random_kernel(rng, 2, 2, r))
                g = multiple_integral(walk, random_kernel(rng, 2, 2, s))
                assert expectation(walk, f * g) == pytest.approx(0.0, abs=1e-10)

    def test_parseval(self, rng):
        walk = d2_fixture(2)
        for _ in range(10):
            table = random_table(rng, walk.space)
            energy = expectation(walk, table * table)
            assert parseval_energy(decompose(walk, table)) == pytest.approx(
                energy, rel=1e-9
            )

    def test_measurability_iff_no_late_times(self, rng):
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        for n in range(-1, 3):
            conditioned = conditional_expectation(walk, table, n)
            coeffs = decompose(walk, conditioned)
            pruned = ChaosCoefficients(
                coeffs.d, coeffs.N, np.where(np.abs(coeffs.coef) > 1e-11, coeffs.coef, 0.0)
            )
            assert pruned.max_time() <= n
        # conversely a table loading a late time is not early-measurable
        late = increment_rv(walk, 2, 1)
        assert decompose(walk, late).max_time() == 2
        assert not is_measurable(late, 1)


def test_one_sixteen_round_trip_parseval_and_lowering(rng):
    # 131,072 paths: every operator here is one contraction per step
    walk = random_walk(rng, 1, 16)
    table = random_table(rng, walk.space)
    coeffs = decompose(walk, table)
    assert max_abs_diff(reconstruct(walk, coeffs), table) < 1e-12
    assert parseval_energy(coeffs) == pytest.approx(expectation(walk, table * table), rel=1e-12)
    grad = gradient(walk, table)
    for k in (0, 7, 16):
        assert max_abs_diff(gradient_chaos(walk, coeffs, k, 1), grad.table(k, 1)) < 1e-12
