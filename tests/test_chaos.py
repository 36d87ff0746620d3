"""Chaos decomposition round trips, projections, and energy identities."""
import math
from itertools import combinations

import numpy as np
import pytest

from obtusewalk import (
    ChaosCoefficients,
    Kernel,
    PathTable,
    conditional_expectation,
    decompose,
    expectation,
    increment_rv,
    is_measurable,
    monomial_table,
    multiple_integral,
    parseval_energy,
    project_horizon,
    reconstruct,
)
from helpers import bernoulli, d2_fixture, random_kernel, random_table, random_walk


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
        assert expansion.max_abs_diff(PathTable(walk.space, values)) < 1e-14


class TestReconstruct:
    def test_mean_only(self):
        walk = bernoulli(1)
        coeffs = ChaosCoefficients(d=1, N=1, mean=5.0, kernels=(Kernel.zero(1, 1), Kernel.zero(2, 1)))
        assert np.all(reconstruct(walk, coeffs).values == 5.0)

    def test_monomial_coefficients(self):
        walk = bernoulli(1)
        target = monomial_table(walk, (0, 1), (1, 1))
        coeffs = decompose(walk, target)
        assert reconstruct(walk, coeffs).max_abs_diff(target) < 1e-14

    def test_round_trip_random_tables(self, rng):
        walk = d2_fixture(2)
        for _ in range(20):
            table = random_table(rng, walk.space)
            recon = reconstruct(walk, decompose(walk, table))
            assert recon.max_abs_diff(table) < 1e-10

    @pytest.mark.parametrize("N", [10, 11])
    def test_round_trip_beyond_ten_steps(self, rng, N):
        walk = random_walk(rng, 1, N)
        table = random_table(rng, walk.space)
        assert reconstruct(walk, decompose(walk, table)).max_abs_diff(table) < 1e-12

    def test_linear_in_coefficients(self, rng):
        walk = random_walk(rng, 2, 1)
        f = random_table(rng, walk.space)
        g = random_table(rng, walk.space)
        cf, cg = decompose(walk, f), decompose(walk, g)
        combo = ChaosCoefficients(
            d=cf.d,
            N=cf.N,
            mean=cf.mean + 2.0 * cg.mean,
            kernels=tuple(
                Kernel(
                    k1.order,
                    k1.d,
                    {
                        t: k1.tensor(t) + 2.0 * k2.tensor(t)
                        for t in set(k1.entries) | set(k2.entries)
                    },
                )
                for k1, k2 in zip(cf.kernels, cg.kernels)
            ),
        )
        assert reconstruct(walk, combo).max_abs_diff(f + g * 2.0) < 1e-10


class TestProjectHorizon:
    def test_full_horizon_is_identity(self, rng):
        walk = bernoulli(2)
        coeffs = decompose(walk, random_table(rng, walk.space))
        projected = project_horizon(coeffs, 2)
        assert reconstruct(walk, projected).max_abs_diff(reconstruct(walk, coeffs)) == 0.0

    def test_minus_one_keeps_only_mean(self, rng):
        walk = bernoulli(2)
        table = random_table(rng, walk.space)
        coeffs = project_horizon(decompose(walk, table), -1)
        assert coeffs.max_order() == 0
        assert reconstruct(walk, coeffs).allclose(expectation(walk, table), atol=1e-12)

    def test_monomial_projects_to_zero(self):
        walk = bernoulli(1)
        coeffs = decompose(walk, monomial_table(walk, (0, 1), (1, 1)))
        projected = project_horizon(coeffs, 0)
        assert reconstruct(walk, projected).allclose(0.0, atol=1e-14)

    def test_matches_conditional_expectation(self, rng):
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        coeffs = decompose(walk, table)
        for n in range(-1, 3):
            lhs = reconstruct(walk, project_horizon(coeffs, n))
            rhs = conditional_expectation(walk, table, n)
            assert lhs.max_abs_diff(rhs) < 1e-10

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
                coeffs.d,
                coeffs.N,
                coeffs.mean,
                tuple(
                    Kernel(
                        k.order,
                        k.d,
                        {
                            t: arr
                            for t, arr in k.entries.items()
                            if np.max(np.abs(arr)) > 1e-11
                        },
                    )
                    for k in coeffs.kernels
                ),
            )
            assert pruned.max_time() <= n
        # conversely a table loading a late time is not early-measurable
        late = increment_rv(walk, 2, 1)
        assert decompose(walk, late).max_time() == 2
        assert not is_measurable(late, 1, tol=1e-10)
