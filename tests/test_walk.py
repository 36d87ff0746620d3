"""Walk validation, canonical construction, and structure identities."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations, product

from obtusewalk import (
    SizeCapError,
    StepLaw,
    WalkSpec,
    construct_obtuse,
    expectation,
    increment_rv,
    structure_residual,
    structure_tensor,
    validate,
)
from obtusewalk.walk import _complete_orthogonal, canonical_step
from chaos_oracle import monomial_table
from helpers import SQ2, bernoulli, biased, d2_fixture, random_walk


class TestValidate:
    def test_symmetric_bernoulli_passes_exactly(self):
        report = validate(bernoulli(0))
        assert report.passed
        assert report.max_mean_residual == 0.0
        assert report.max_moment_residual == 0.0

    def test_uncentered_fails_with_unit_residual(self):
        step = StepLaw(np.array([0.5, 0.5]), np.array([[1.0], [1.0]]))
        report = validate(WalkSpec(d=1, N=0, steps=(step,)))
        assert not report.passed
        assert report.max_mean_residual == pytest.approx(1.0)

    def test_d2_fixture_passes(self):
        report = validate(d2_fixture(0))
        assert report.passed
        assert report.max_mean_residual < 1e-10
        assert report.max_moment_residual < 1e-10

    def test_structural_errors_reported(self):
        step = StepLaw(np.array([0.7, 0.6]), np.array([[1.0], [-1.0]]))
        report = validate(WalkSpec(d=1, N=0, steps=(step,)))
        assert not report.passed
        assert any("sum" in e for e in report.errors)

    def test_non_positive_probability_reported(self):
        step = StepLaw(np.array([0.0, 1.0]), np.array([[1.0], [-1.0]]))
        report = validate(WalkSpec(d=1, N=0, steps=(step,)))
        assert not report.passed
        assert report.errors == ("step 0: non-positive probability",)

    @pytest.mark.parametrize(
        "p, v, message",
        [
            ([[0.5, 0.5]], [[1.0], [-1.0]],
             "step law needs a probability vector and a vector matrix"),
            ([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
             "outcome matrix has shape (2, 2), expected (2, 1)"),
        ],
    )
    def test_step_law_shapes(self, p, v, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StepLaw(np.array(p), np.array(v))

    def test_worst_locations_reported(self):
        report = validate(biased(2))
        assert report.worst_mean is not None
        assert report.worst_moment is not None

    def test_non_finite_step_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StepLaw(np.array([0.5, 0.5]), np.array([[np.nan], [-1.0]]))

    def test_overflowing_residual_fails_quietly(self):
        step = StepLaw(np.array([0.5, 0.5]), np.array([[1e308], [-1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(WalkSpec(d=1, N=0, steps=(step,)))
        assert not report.passed
        assert report.max_moment_residual == np.inf


class TestConstructObtuse:
    def test_symmetric_bernoulli(self):
        walk = construct_obtuse([[0.5, 0.5]])
        v = walk.steps[0].v
        assert v[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert v[1, 0] == pytest.approx(-1.0, abs=1e-14)
        assert v[0, 0] >= 0.0

    def test_biased_closed_form(self):
        p, q = 1 / 3, 2 / 3
        walk = construct_obtuse([[p, q]])
        v = walk.steps[0].v
        assert v[0, 0] == pytest.approx(np.sqrt(q / p), abs=1e-14)
        assert v[1, 0] == pytest.approx(-np.sqrt(p / q), abs=1e-14)

    def test_d2_fixture_vectors(self):
        walk = construct_obtuse([[0.25, 0.25, 0.5]])
        expected = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
        assert np.max(np.abs(walk.steps[0].v - expected)) < 1e-12

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ValueError):
            construct_obtuse([[1.0, 0.0]])
        with pytest.raises(ValueError):
            construct_obtuse([[0.5, 0.6]])

    @pytest.mark.parametrize("p", [[1e-30, 1.0], [1e-30, 1e-30, 1.0], [1e-30, 1.0, 1e-30]])
    def test_completion_survives_a_dominant_weight(self, p):
        """A candidate e_j that sqrt(p) nearly spans is replaced by e_0."""
        sqrt_p = np.sqrt(np.asarray(p) / np.sum(p))
        u = _complete_orthogonal(sqrt_p)
        assert np.array_equal(u[0], sqrt_p)
        assert np.max(np.abs(u @ u.T - np.eye(len(p)))) < 1e-12
        assert validate(construct_obtuse([p])).passed

    def test_construction_always_validates(self, rng):
        for d in (1, 2, 3):
            for _ in range(10):
                walk = random_walk(rng, d, 2)
                report = validate(walk)
                assert report.passed
                assert report.max_mean_residual < 1e-10
                assert report.max_moment_residual < 1e-10

    def test_deterministic(self):
        a = construct_obtuse([[0.3, 0.2, 0.5]])
        b = construct_obtuse([[0.3, 0.2, 0.5]])
        assert np.array_equal(a.steps[0].v, b.steps[0].v)

    def test_identical_steps_share_one_law(self):
        walk = construct_obtuse([[0.5, 0.5]] * 10)
        assert len({id(step) for step in walk.steps}) == 1
        separate = WalkSpec(
            d=1, N=9, steps=tuple(canonical_step([0.5, 0.5], n) for n in range(10))
        )
        assert walk.measure.tobytes() == separate.measure.tobytes()
        mixed = construct_obtuse([[0.3, 0.7], [0.5, 0.5], [0.3, 0.7]])
        assert mixed.steps[0] is mixed.steps[2] and mixed.steps[1] is not mixed.steps[0]

    def test_repeated_bad_row_names_its_first_step(self):
        with pytest.raises(ValueError, match="^step 1: probabilities must be strictly positive"):
            construct_obtuse([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])

    def test_one_outcome_is_refused(self):
        with pytest.raises(ValueError, match="^step 0: need at least two outcome probabilities$"):
            canonical_step([1.0])

    def test_no_step_is_refused(self):
        with pytest.raises(ValueError, match="^need at least one step$"):
            construct_obtuse([])

    def test_outcome_count_must_not_change(self):
        with pytest.raises(ValueError, match=r"^step 1 has dimension 2, expected 1$"):
            construct_obtuse([[0.5, 0.5], [0.2, 0.3, 0.5]])

    def test_completion_is_checked_against_the_cap(self):
        """The (d+1)^2 orthogonal matrix is refused before it is built, though 3 paths fit."""
        with pytest.raises(SizeCapError, match="^step 0: completing 3 outcomes would need 9 entries"):
            construct_obtuse([[0.2, 0.3, 0.5]], cap=8)
        fits = construct_obtuse([[0.2, 0.3, 0.5]], cap=9)
        assert np.array_equal(fits.steps[0].v, construct_obtuse([[0.2, 0.3, 0.5]]).steps[0].v)

    @given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_identities_from_arbitrary_probabilities(self, raw):
        p = np.asarray(raw) / np.sum(raw)
        walk = construct_obtuse([p])
        report = validate(walk)
        assert report.passed


class TestStructureTensor:
    def test_symmetric_bernoulli_square_is_one(self):
        phi = structure_tensor(bernoulli(0), 0)
        assert phi[0, 0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_biased_closed_form(self):
        p, q = 0.25, 0.75
        phi = structure_tensor(biased(0, p=p), 0)
        assert phi[0, 0, 0] == pytest.approx((q - p) / np.sqrt(p * q), abs=1e-12)

    def test_d2_fixture_components(self):
        phi = structure_tensor(d2_fixture(0), 0)
        assert phi.shape == (2, 2, 2)
        assert phi[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert phi[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        # (Y^1)^2 = 1 + Y^2 pointwise: outcome 0 gives 2 = 1 + 1, outcome 2 gives 0 = 1 - 1
        v = d2_fixture(0).steps[0].v
        assert v[0, 0] ** 2 == pytest.approx(1.0 + v[0, 1], abs=1e-12)
        assert v[2, 0] ** 2 == pytest.approx(1.0 + v[2, 1], abs=1e-12)

    def test_symmetry_in_ij(self, rng):
        walk = random_walk(rng, 3, 0)
        phi = structure_tensor(walk, 0)
        assert np.max(np.abs(phi - phi.transpose(1, 0, 2))) < 1e-12

    def test_pointwise_identity_on_random_walks(self, rng):
        for d in (1, 2, 3):
            for _ in range(10):
                walk = random_walk(rng, d, 1)
                for n in range(walk.N + 1):
                    assert structure_residual(walk, n) < 1e-9

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            structure_tensor(bernoulli(0), 1)


class TestIncrementRV:
    def test_symmetric_bernoulli_table(self):
        table = increment_rv(bernoulli(1), 0, 1)
        assert np.array_equal(table.values, [1.0, 1.0, -1.0, -1.0])

    def test_centered(self, rng):
        walk = random_walk(rng, 2, 2)
        for n in range(3):
            for j in (1, 2):
                assert abs(expectation(walk, increment_rv(walk, n, j))) < 1e-12

    def test_moments(self, rng):
        walk = random_walk(rng, 2, 1)
        for n, m in product(range(2), range(2)):
            for i, j in product((1, 2), (1, 2)):
                value = expectation(
                    walk, increment_rv(walk, n, i) * increment_rv(walk, m, j)
                )
                expected = 1.0 if (n == m and i == j) else 0.0
                assert value == pytest.approx(expected, abs=1e-12)

    def test_index_errors(self):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            increment_rv(walk, 2, 1)
        with pytest.raises(ValueError):
            increment_rv(walk, 0, 2)

    def test_builds_no_path_tables(self, rng):
        walk = random_walk(rng, 2, 3)
        tables = [increment_rv(walk, n, j) for n in range(4) for j in (1, 2)]
        tables.append(monomial_table(walk, (0, 2, 3), (2, 1, 2)))
        assert "increments" not in walk.__dict__
        assert "outcomes" not in walk.space.__dict__
        # the same floats as gathering each step's vectors by outcome
        for (n, j), table in zip(product(range(4), (1, 2)), tables):
            assert np.array_equal(table.values, walk.increments[n][:, j - 1])


def _all_monomials(d, N):
    out = [((), ())]
    for r in range(1, N + 2):
        for times in combinations(range(N + 1), r):
            for coords in product(range(1, d + 1), repeat=r):
                out.append((times, coords))
    return out


class TestMonomialOrthonormality:
    @pytest.mark.parametrize("maker", [bernoulli, d2_fixture, biased])
    def test_gram_matrix_is_identity(self, maker):
        walk = maker(2) if maker is not biased else maker(2, 0.35)
        basis = _all_monomials(walk.d, walk.N)
        assert len(basis) == walk.space.num_paths
        tables = [monomial_table(walk, t, c) for t, c in basis]
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                value = expectation(walk, tables[a] * tables[b])
                expected = 1.0 if a == b else 0.0
                assert abs(value - expected) < 1e-10
