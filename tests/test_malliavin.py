"""Gradient forms, divergence, adjointness, Clark-Ocone, Poincare."""
import json

import numpy as np
import pytest

from obtusewalk import (
    MartingaleError,
    PathTable,
    PredictableProcess,
    VectorProcess,
    clark_ocone,
    clark_ocone_from,
    conditional_expectation,
    construct_obtuse,
    covariance,
    decompose,
    divergence,
    expectation,
    gradient,
    gradient_chaos,
    increment_rv,
    integrate_predictable,
    is_measurable,
    poincare_check,
    predictable_representation,
)
from helpers import (
    allclose,
    bernoulli,
    d2_fixture,
    max_abs_diff,
    random_predictable,
    random_process,
    random_table,
    random_walk,
)
from obtusewalk import malliavin, serialize
from malliavin_oracle import product_rule_residual


def _record_integrands(monkeypatch):
    """Spy on the row arrays handed to PredictableProcess."""
    handed = []
    check = PredictableProcess.__post_init__

    def record(process):
        handed.append(process.rows)
        check(process)

    monkeypatch.setattr(PredictableProcess, "__post_init__", record)
    return handed


def _reconstructs(walk, mean, xi, table, atol=1e-10):
    total = integrate_predictable(walk, xi) + mean
    return max_abs_diff(total, table) < atol


class TestGradient:
    def test_single_increment(self):
        walk = d2_fixture(1)
        grad = gradient(walk, increment_rv(walk, 0, 1))
        assert allclose(grad.table(0, 1), 1.0, atol=1e-12)
        assert allclose(grad.table(0, 2), 0.0, atol=1e-12)
        assert allclose(grad.table(1, 1), 0.0, atol=1e-12)
        assert allclose(grad.table(1, 2), 0.0, atol=1e-12)

    def test_constant_vanishes(self):
        walk = bernoulli(1)
        grad = gradient(walk, PathTable.constant(walk.space, 9.0))
        assert np.max(np.abs(grad.values)) < 1e-12

    def test_product_lowers_to_partner(self):
        walk = bernoulli(1)
        y0, y1 = increment_rv(walk, 0, 1), increment_rv(walk, 1, 1)
        grad = gradient(walk, y0 * y1)
        assert max_abs_diff(grad.table(0, 1), y1) < 1e-12
        assert max_abs_diff(grad.table(1, 1), y0) < 1e-12

    def test_linear(self, rng):
        walk = random_walk(rng, 2, 1)
        f, g = random_table(rng, walk.space), random_table(rng, walk.space)
        lhs = gradient(walk, f * 3.0 - g).values
        rhs = 3.0 * gradient(walk, f).values - gradient(walk, g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_vanishes_beyond_measurability(self, rng):
        walk = random_walk(rng, 2, 2)
        table = conditional_expectation(walk, random_table(rng, walk.space), 1)
        grad = gradient(walk, table)
        assert np.max(np.abs(grad.values[2])) < 1e-10

    def test_vanishing_tail_implies_measurable(self, rng):
        # converse direction: D_k F = 0 for k > n forces F = E[F | F_n]
        walk = random_walk(rng, 1, 2)
        table = random_table(rng, walk.space)
        grad = gradient(walk, table)
        n = 1
        if np.max(np.abs(grad.values[n + 1 :])) < 1e-12:
            assert is_measurable(table, n)
        adjusted = conditional_expectation(walk, table, n)
        assert np.max(np.abs(gradient(walk, adjusted).values[n + 1 :])) < 1e-10
        assert is_measurable(adjusted, n)


def test_zero_sums_have_one_sign_however_the_walk_was_built(rng):
    """A constructed walk and the same walk read back from its JSON give the
    same bits on tables of signed zeros and the smallest subnormals."""
    for _ in range(20):
        walk = construct_obtuse(list(rng.dirichlet(np.ones(3), size=6) * 0.7 + 0.1))
        text = serialize.dump_json(serialize.walk_to_json(walk))
        again = serialize.walk_from_json(json.loads(text))
        values = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=walk.space.num_paths)
        table = PathTable(walk.space, values)
        for op in (lambda w: gradient(w, table).values, lambda w: clark_ocone(w, table)[1].rows):
            assert np.array_equal(op(walk).view(np.uint64), op(again).view(np.uint64))


class TestGradientChaos:
    def test_constant(self, rng):
        walk = bernoulli(1)
        coeffs = decompose(walk, PathTable.constant(walk.space, 2.0))
        assert allclose(gradient_chaos(walk, coeffs, 0, 1), 0.0, atol=1e-12)

    def test_single_increment(self):
        walk = bernoulli(1)
        coeffs = decompose(walk, increment_rv(walk, 0, 1))
        assert allclose(gradient_chaos(walk, coeffs, 0, 1), 1.0, atol=1e-12)

    def test_agrees_with_finite_difference(self, rng):
        walk = d2_fixture(2)
        for _ in range(10):
            table = random_table(rng, walk.space)
            coeffs = decompose(walk, table)
            grad = gradient(walk, table)
            for k in range(3):
                for j in (1, 2):
                    chaos_form = gradient_chaos(walk, coeffs, k, j)
                    assert max_abs_diff(chaos_form, grad.table(k, j)) < 1e-9


class TestDivergence:
    def test_deterministic_process(self):
        walk = bernoulli(1)
        vals = np.zeros((2, 4, 1))
        vals[0, :, 0] = 1.0
        result = divergence(walk, VectorProcess(walk.space, vals))
        assert np.array_equal(result.values, increment_rv(walk, 0, 1).values)

    def test_anticipating_increment_cancels(self):
        walk = bernoulli(0)
        vals = np.zeros((1, 2, 1))
        vals[0, :, 0] = increment_rv(walk, 0, 1).values
        result = divergence(walk, VectorProcess(walk.space, vals))
        assert allclose(result, 0.0, atol=1e-12)

    def test_equals_integral_on_predictable(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(5):
            proc = random_predictable(rng, walk)
            delta = divergence(walk, proc)
            integral = integrate_predictable(walk, proc)
            assert np.array_equal(delta.values, integral.values)

    def test_adjoint_to_gradient(self, rng):
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for _ in range(5):
                f = random_table(rng, walk.space)
                x = random_process(rng, walk)
                grad = gradient(walk, f)
                pairing = np.einsum("kpj,kpj->p", grad.values, x.values)
                lhs = float(np.add.reduce(walk.measure * pairing))
                rhs = expectation(walk, f * divergence(walk, x))
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestClarkOcone:
    def test_product_representation(self):
        walk = bernoulli(1)
        y0, y1 = increment_rv(walk, 0, 1), increment_rv(walk, 1, 1)
        mean, xi = clark_ocone(walk, y0 * y1)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(xi.on_paths()[0])) < 1e-12
        assert np.max(np.abs(xi.on_paths()[1][:, 0] - y0.values)) < 1e-12

    def test_constant(self):
        walk = bernoulli(1)
        mean, xi = clark_ocone(walk, PathTable.constant(walk.space, 3.0))
        assert mean == 3.0
        assert np.max(np.abs(xi.on_paths())) < 1e-12

    def test_indicator(self):
        walk = bernoulli(1)
        values = np.zeros(4)
        values[0] = 1.0
        mean, xi = clark_ocone(walk, PathTable(walk.space, values))
        assert mean == pytest.approx(0.25)
        assert np.max(np.abs(xi.on_paths()[0] - 0.25)) < 1e-14
        y0 = increment_rv(walk, 0, 1)
        assert np.max(np.abs(xi.on_paths()[1][:, 0] - (1.0 + y0.values) / 4.0)) < 1e-14

    def test_reconstruction_and_predictability(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(10):
            table = random_table(rng, walk.space)
            mean, xi = clark_ocone(walk, table)
            assert xi.defect == 0.0
            assert _reconstructs(walk, mean, xi, table)

    def test_builds_no_head_table(self, rng, monkeypatch):
        """E[F] comes from `expectation`; no conditional-expectation table is built."""
        walk = random_walk(rng, 2, 2)
        table = random_table(rng, walk.space)
        want = clark_ocone(walk, table)
        monkeypatch.setattr(malliavin, "conditional_expectation", lambda *a: pytest.fail("head built"))
        mean, xi = clark_ocone(walk, table)
        assert mean == want[0] and xi.rows.tobytes() == want[1].rows.tobytes()

    def test_operator_norm_identity(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(10):
            table = random_table(rng, walk.space)
            _, xi = clark_ocone(walk, table)
            energy = float(
                np.add.reduce(
                    walk.measure * np.einsum("kpj,kpj->p", xi.on_paths(), xi.on_paths())
                )
            )
            variance = covariance(walk, table, table)
            assert energy == pytest.approx(variance, abs=1e-9)
            assert energy <= expectation(walk, table * table) + 1e-9


class TestClarkOconeFrom:
    def test_terminal_time(self, rng):
        walk = bernoulli(1)
        table = random_table(rng, walk.space)
        head, xi = clark_ocone_from(walk, table, 1)
        assert max_abs_diff(head, table) == 0.0
        assert np.max(np.abs(xi.on_paths())) == 0.0

    def test_start_reduces_to_plain_form(self, rng):
        walk = random_walk(rng, 1, 2)
        table = random_table(rng, walk.space)
        head, xi = clark_ocone_from(walk, table, -1)
        mean, xi_plain = clark_ocone(walk, table)
        assert allclose(head, mean, atol=1e-12)
        assert np.max(np.abs(xi.on_paths() - xi_plain.on_paths())) < 1e-14

    def test_reconstruction_and_energy(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(5):
            table = random_table(rng, walk.space)
            for n in range(-1, 3):
                head, xi = clark_ocone_from(walk, table, n)
                total = integrate_predictable(walk, xi) + head
                assert max_abs_diff(total, table) < 1e-10
                energy = expectation(walk, head * head) + float(
                    np.add.reduce(
                        walk.measure * np.einsum("kpj,kpj->p", xi.on_paths(), xi.on_paths())
                    )
                )
                assert energy == pytest.approx(
                    expectation(walk, table * table), abs=1e-9
                )

    def test_range_error(self, rng):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            clark_ocone_from(walk, random_table(rng, walk.space), 2)

    def test_integrand_is_not_copied(self, rng, monkeypatch):
        handed = _record_integrands(monkeypatch)
        walk = random_walk(rng, 2, 3)
        _, xi = clark_ocone_from(walk, random_table(rng, walk.space), 0)
        assert xi.rows is handed[-1]
        assert not xi.rows.flags.writeable


class TestPredictableRepresentation:
    def test_conditional_martingale(self):
        walk = bernoulli(1)
        y0, y1 = increment_rv(walk, 0, 1), increment_rv(walk, 1, 1)
        target = y0 * y1
        mart = [conditional_expectation(walk, target, n) for n in range(2)]
        m_init, xi = predictable_representation(walk, mart)
        assert m_init == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(xi.on_paths()[1][:, 0] - y0.values)) < 1e-12

    def test_constant_martingale(self):
        walk = bernoulli(1)
        mart = [PathTable.constant(walk.space, 2.5)] * 2
        m_init, xi = predictable_representation(walk, mart)
        assert m_init == 2.5
        assert np.max(np.abs(xi.on_paths())) < 1e-12

    def test_partial_sums(self, rng):
        walk = random_walk(rng, 1, 2)
        partial = []
        acc = PathTable.constant(walk.space, 0.0)
        for n in range(3):
            acc = acc + increment_rv(walk, n, 1)
            partial.append(acc)
        m_init, xi = predictable_representation(walk, partial)
        assert m_init == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(xi.on_paths()[:, :, 0] - 1.0)) < 1e-10

    def test_reconstruction_per_time(self, rng):
        walk = random_walk(rng, 2, 2)
        target = random_table(rng, walk.space)
        mart = [conditional_expectation(walk, target, n) for n in range(3)]
        m_init, xi = predictable_representation(walk, mart)
        acc = np.full(walk.space.num_paths, m_init)
        for n in range(3):
            acc = acc + np.einsum("pj,pj->p", xi.on_paths()[n], walk.increments[n])
            assert np.max(np.abs(acc - mart[n].values)) < 1e-10

    def test_rejects_non_martingale(self, rng):
        walk = bernoulli(1)
        bad = [
            PathTable.constant(walk.space, 1.0),
            PathTable.constant(walk.space, 2.0),
        ]
        with pytest.raises(MartingaleError):
            predictable_representation(walk, bad)

    def test_integrand_is_not_copied(self, rng, monkeypatch):
        handed = _record_integrands(monkeypatch)
        walk = random_walk(rng, 2, 2)
        target = random_table(rng, walk.space)
        mart = [conditional_expectation(walk, target, n) for n in range(3)]
        _, xi = predictable_representation(walk, mart)
        assert xi.rows is handed[-1]
        assert not xi.rows.flags.writeable

    def test_rejects_non_adapted(self, rng):
        walk = bernoulli(1)
        y1 = increment_rv(walk, 1, 1)
        with pytest.raises(MartingaleError):
            predictable_representation(walk, [y1, y1])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_nan(self, n):
        walk = construct_obtuse([[0.5, 0.5]] * 3)
        mart = [PathTable.constant(walk.space, 0.0)] * 3
        mart[n] = PathTable(walk.space, np.where(np.arange(8) == 1, np.nan, 0.0))
        with pytest.raises(MartingaleError, match="nan"):
            predictable_representation(walk, mart)


class TestPoincare:
    def test_first_chaos_equality(self):
        walk = bernoulli(1)
        variance, bound = poincare_check(walk, increment_rv(walk, 0, 1))
        assert variance == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        walk = bernoulli(1)
        variance, bound = poincare_check(walk, PathTable.constant(walk.space, 1.0))
        assert variance == pytest.approx(0.0, abs=1e-14)
        assert bound == pytest.approx(0.0, abs=1e-14)

    def test_second_chaos_gap(self):
        walk = bernoulli(1)
        table = increment_rv(walk, 0, 1) * increment_rv(walk, 1, 1)
        variance, bound = poincare_check(walk, table)
        assert variance == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(2.0, abs=1e-12)

    def test_always_bounded(self, rng):
        for d in (1, 2):
            walk = random_walk(rng, d, 2)
            for _ in range(10):
                variance, bound = poincare_check(walk, random_table(rng, walk.space))
                assert variance <= bound + 1e-12


class TestProductRule:
    def test_correction_formula(self, rng):
        walk = random_walk(rng, 2, 2)
        for _ in range(5):
            f = random_table(rng, walk.space)
            g = random_table(rng, walk.space)
            assert product_rule_residual(walk, f, g) < 1e-9
