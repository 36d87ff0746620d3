"""Semigroup forms, covariance identities, and the deviation bound."""
import math
import tracemalloc

import numpy as np
import pytest

from obtusewalk import (
    PathTable,
    clark_ocone,
    covariance,
    cov_gradient,
    cov_semigroup,
    deviation_bound,
    expectation,
    gradient,
    increment_rv,
    ou_apply_chaos,
    ou_apply_kernel,
    ou_kernel_matrix,
    poincare_check,
    tail_probability,
)
from obtusewalk import ou as ou_mod
from helpers import (
    allclose,
    bernoulli,
    biased,
    d2_fixture,
    max_abs_diff,
    random_table,
    random_walk,
)
from malliavin_oracle import exp_gradient_residual, semigroup_gradient_contraction

TS = (0.0, 0.3, 1.0, 5.0)


class TestSemigroupChaos:
    def test_constant_is_fixed(self, rng):
        walk = bernoulli(1)
        table = PathTable.constant(walk.space, 2.5)
        for t in TS:
            assert allclose(ou_apply_chaos(walk, table, t), 2.5, atol=1e-12)

    def test_first_chaos_damping(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        result = ou_apply_chaos(walk, y0, math.log(2.0))
        assert max_abs_diff(result, y0 * 0.5) < 1e-12

    def test_second_chaos_damping(self):
        walk = bernoulli(1)
        table = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 1)
        t = 0.7
        result = ou_apply_chaos(walk, table, t)
        assert max_abs_diff(result, table * math.exp(-2.0 * t)) < 1e-12

    def test_identity_at_zero(self, rng):
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        assert max_abs_diff(ou_apply_chaos(walk, table, 0.0), table) < 1e-12

    def test_negative_time_rejected(self, rng):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            ou_apply_chaos(walk, random_table(rng, walk.space), -0.1)

    def test_semigroup_law(self, rng):
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        for s, t in [(0.2, 0.5), (1.0, 0.3)]:
            once = ou_apply_chaos(walk, table, s + t)
            twice = ou_apply_chaos(walk, ou_apply_chaos(walk, table, t), s)
            assert max_abs_diff(once, twice) < 1e-10


    def test_infinite_time_gives_the_mean_on_both_routes(self, rng):
        for d, N in [(1, 3), (2, 2)]:
            walk = random_walk(rng, d, N)
            table = random_table(rng, walk.space)
            mean = expectation(walk, table)
            assert allclose(ou_apply_chaos(walk, table, math.inf), mean, atol=1e-12)
            assert allclose(ou_apply_kernel(walk, table, math.inf), mean, atol=1e-12)


class TestSemigroupKernel:
    def test_preserves_constants(self, rng):
        walk = random_walk(rng, 2, 2)
        table = PathTable.constant(walk.space, 1.0)
        for t in TS:
            assert allclose(ou_apply_kernel(walk, table, t), 1.0, atol=1e-10)

    def test_bernoulli_first_chaos(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        for t in (0.0, 0.4, 2.0):
            result = ou_apply_kernel(walk, y0, t)
            assert max_abs_diff(result, y0 * math.exp(-t)) < 1e-12

    def test_agrees_with_chaos_form(self, rng):
        walk = d2_fixture(2)
        for _ in range(5):
            table = random_table(rng, walk.space)
            for t in TS:
                via_kernel = ou_apply_kernel(walk, table, t)
                via_chaos = ou_apply_chaos(walk, table, t)
                assert max_abs_diff(via_kernel, via_chaos) < 1e-9

    def test_matrix_row_stochastic(self, rng):
        for maker in (bernoulli, d2_fixture):
            walk = maker(2)
            for t in (0.0, 0.3, 1.0):
                matrix = ou_kernel_matrix(walk, t)
                assert matrix.shape == (walk.space.num_paths,) * 2
                assert np.max(np.abs(matrix @ walk.measure - 1.0)) < 1e-10

    def test_matrix_nonnegative_on_fixtures(self):
        # checked and reported on fixtures; not asserted for arbitrary walks
        for maker in (bernoulli, biased, d2_fixture):
            walk = maker(1)
            for t in (0.1, 1.0):
                assert np.min(ou_kernel_matrix(walk, t)) >= -1e-12

    def test_gradient_contraction(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(3):
            table = random_table(rng, walk.space)
            grad = gradient(walk, table)
            base = float(np.max(np.abs(grad.values).max(axis=2).sum(axis=0)))
            for t in (0.0, 0.3, 1.0):
                assert semigroup_gradient_contraction(walk, grad, t) <= base + 1e-10


class TestCovarianceIdentities:
    def test_first_chaos(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        assert cov_gradient(walk, y0, y0) == pytest.approx(1.0, abs=1e-12)
        assert cov_semigroup(walk, y0, y0) == pytest.approx(1.0, abs=1e-12)

    def test_different_chaoses_are_uncorrelated(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        y0y1 = y0 * increment_rv(walk, 1, 1)
        assert cov_gradient(walk, y0, y0y1) == pytest.approx(0.0, abs=1e-12)
        assert cov_semigroup(walk, y0, y0y1) == pytest.approx(0.0, abs=1e-12)

    def test_second_chaos_variance(self):
        walk = bernoulli(1)
        table = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 1)
        assert cov_semigroup(walk, table, table) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_covariance(self, rng):
        walk = d2_fixture(2)
        for _ in range(8):
            f = random_table(rng, walk.space)
            g = random_table(rng, walk.space)
            oracle = covariance(walk, f, g)
            assert cov_gradient(walk, f, g) == pytest.approx(oracle, abs=1e-9)
            assert cov_semigroup(walk, f, g) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("d, N", [(1, 0), (1, 7), (2, 1), (2, 5), (3, 2), (3, 4)])
    def test_streamed_forms_equal_the_full_gradient_formulas(self, rng, d, N):
        """Bit for bit: the step-by-step sums round as the (N+1, P, d) gradient formulas do."""
        for _ in range(3):
            walk = random_walk(rng, d, N)
            f, g = random_table(rng, walk.space), random_table(rng, walk.space)
            grad_f, grad_g = gradient(walk, f).values, gradient(walk, g).values
            energy = expectation(walk, PathTable(walk.space, np.einsum("kpj,kpj->p", grad_f, grad_f)))
            assert poincare_check(walk, f) == (covariance(walk, f, f), energy)

            xi = clark_ocone(walk, f)[1].on_paths()
            total = 0.0
            for k in range(N + 1):
                inner = np.einsum("pj,pj->p", xi[k], grad_g[k])
                total += float(np.add.reduce(walk.measure * inner))
            assert cov_gradient(walk, f, g) == total

            h = ou_mod._scale_chaos(walk, g, [0.0] + [1.0 / r for r in range(1, N + 2)])
            inner = np.einsum("kpj,kpj->p", grad_f, gradient(walk, h).values)
            assert cov_semigroup(walk, f, g) == float(np.add.reduce(walk.measure * inner))


class TestExpGradientIdentity:
    def test_pointwise(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(3):
            table = random_table(rng, walk.space)
            for s in (0.1, 1.0):
                assert exp_gradient_residual(walk, table, s) < 1e-9


def _whole_array_bound(walk, table, x):
    """deviation_bound with spread and the gradient maxima reduced over whole arrays."""
    spread = max(
        float(np.max(view.max(axis=1) - view.min(axis=1)))
        for view in (walk.space.axis_view(table.values, k) for k in range(walk.N + 1))
    )
    coeff_max = max(float(np.max(np.abs(step.c))) for step in walk.steps)
    grad_sum = np.zeros(walk.space.num_paths)
    for k in range(walk.N + 1):
        step_max = np.abs(ou_mod._step_gradient(walk, table.values, k)).max(axis=3)
        walk.space.axis_view(grad_sum, k)[...] += step_max
    grad_norm = float(np.max(grad_sum))
    scale = walk.d * coeff_max * grad_norm
    u = x / scale
    g_u = (1.0 + u) * math.log1p(u) - u
    return ou_mod.DeviationBound(
        x=x,
        spread=spread,
        coeff_max=coeff_max,
        grad_norm=grad_norm,
        scale=scale,
        bound_bennett=math.exp(-(scale / spread) * g_u),
        bound_log=math.exp(-(x / (2.0 * spread)) * math.log1p(u)),
        oracle_tail=tail_probability(walk, table, x),
    )


class TestDeviationBound:
    @pytest.mark.parametrize("d, N", [(3, 4), (1, 9)])
    def test_running_maxima_give_the_whole_array_reductions(self, rng, d, N):
        walk = random_walk(rng, d, N)
        for _ in range(3):
            magnitudes = 10.0 ** rng.integers(-5, 5, size=walk.space.num_paths)
            table = PathTable(walk.space, random_table(rng, walk.space).values * magnitudes)
            for x in (0.1, 1.0, 10.0):
                assert deviation_bound(walk, table, x) == _whole_array_bound(walk, table, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_names_its_first_path(self, bad):
        walk = bernoulli(2)
        values = np.linspace(-1.0, 1.0, walk.space.num_paths)
        values[[5, 6]] = bad
        table = PathTable(walk.space, values)
        with pytest.raises(ValueError, match=rf"^table is {bad} at path 5 = \(1, 0, 1\)$"):
            deviation_bound(walk, table, 0.5)

    def test_bernoulli_constants(self):
        walk = bernoulli(1)
        bound = deviation_bound(walk, increment_rv(walk, 0, 1), 1.0)
        assert bound.spread == pytest.approx(2.0)
        assert bound.coeff_max == pytest.approx(0.5)
        assert bound.grad_norm == pytest.approx(1.0)
        assert bound.scale == pytest.approx(0.5)
        assert bound.bound_log == pytest.approx(3.0 ** (-0.25), abs=1e-12)
        g2 = 3.0 * math.log(3.0) - 2.0
        assert bound.bound_bennett == pytest.approx(math.exp(-0.5 * g2 / 2.0), abs=1e-12)
        assert bound.oracle_tail == pytest.approx(0.5)
        assert bound.oracle_tail <= bound.bound_bennett <= bound.bound_log

    def test_two_step_sum(self):
        walk = bernoulli(1)
        table = increment_rv(walk, 0, 1) + increment_rv(walk, 1, 1)
        bound = deviation_bound(walk, table, 2.0)
        assert bound.spread == pytest.approx(2.0)
        assert bound.grad_norm == pytest.approx(2.0)
        assert bound.scale == pytest.approx(1.0)
        assert bound.oracle_tail == pytest.approx(0.25)
        assert bound.oracle_tail <= bound.bound_bennett

    def test_constant_rejected(self):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            deviation_bound(walk, PathTable.constant(walk.space, 1.0), 1.0)

    def test_nonpositive_threshold_rejected(self, rng):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            deviation_bound(walk, random_table(rng, walk.space), 0.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, x):
        walk = bernoulli(1)
        message = rf"^deviation threshold must be finite and > 0, got {x}$"
        with pytest.raises(ValueError, match=message):
            deviation_bound(walk, increment_rv(walk, 0, 1), x)

    def test_overflowing_ratio_gives_the_limit_zero(self):
        walk = bernoulli(1)
        y0 = increment_rv(walk, 0, 1)
        bound = deviation_bound(walk, y0, 1e308)  # x / scale overflows to inf
        assert bound.scale == 0.5
        assert bound.bound_bennett == 0.0 and bound.bound_log == 0.0
        finite = math.exp(-0.25 * (3.0 * math.log1p(2.0) - 2.0))  # scale / spread = 1/4, u = 2
        assert deviation_bound(walk, y0, 1.0).bound_bennett == finite

    def test_bound_dominates_tail_on_random_tables(self, rng):
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for _ in range(20):
                table = random_table(rng, walk.space)
                for x in (0.25, 0.5, 1.0, 2.0):
                    bound = deviation_bound(walk, table, x)
                    assert bound.bound_bennett <= bound.bound_log + 1e-15
                    assert bound.oracle_tail <= bound.bound_bennett + 1e-12

    @pytest.mark.parametrize("d, N", [(1, 9), (2, 7), (3, 6)])
    def test_grad_norm_streams_the_gradient(self, rng, d, N):
        """grad_norm is max over paths of sum_k max_j |D_k^j F|, bit for bit, and
        no operator that reduces the gradient to a number holds all of it: each
        one's traced peak stays below the (N+1, P, d) gradient's bytes."""
        walk = random_walk(rng, d, N)
        tables = [random_table(rng, walk.space) for _ in range(3)]
        for table in tables:
            grad_norm = np.max(np.abs(gradient(walk, table).values).max(axis=2).sum(axis=0))
            assert deviation_bound(walk, table, 0.5).grad_norm == float(grad_norm)
        f, g = tables[:2]
        gradient_bytes = (N + 1) * walk.space.num_paths * d * 8
        for op in (
            lambda: deviation_bound(walk, f, 0.5),
            lambda: poincare_check(walk, f),
            lambda: cov_semigroup(walk, f, g),
            lambda: cov_gradient(walk, f, g),
        ):
            op()  # anything the walk builds once is built before tracing
            tracemalloc.start()
            try:
                op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < gradient_bytes

    def test_tail_probability_oracle(self):
        walk = bernoulli(1)
        table = increment_rv(walk, 0, 1)
        assert tail_probability(walk, table, 1.0) == pytest.approx(0.5)
        assert tail_probability(walk, table, 1.5) == pytest.approx(0.0)
