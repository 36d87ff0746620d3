"""Per-axis Malliavin operators against the path-surgery oracles."""
import numpy as np
import pytest

from obtusewalk import (
    PathTable,
    PredictableProcess,
    clark_ocone,
    clark_ocone_from,
    conditional_expectation,
    construct_obtuse,
    cov_gradient,
    cov_semigroup,
    deviation_bound,
    divergence,
    expectation,
    gradient,
    integrate_predictable,
    poincare_check,
    predictable_representation,
)
from malliavin_oracle import (
    oracle_divergence,
    oracle_gradient,
    oracle_integrand,
    oracle_predictable_integrand,
    oracle_spread,
)
from exact_oracle import atom_entries, exact_integrand, scaled_errors
from helpers import random_predictable, random_process, random_table, random_walk

#: (d, N) of the random walks: every d from 1 to 4, and two sizes where the
#: gradient's matrix product has thousands of rows
SIZES = [(1, 0), (1, 4), (2, 3), (3, 2), (4, 1), (1, 12), (3, 6)]


def _scaled_gap(a, b) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _no_farther_from_exact(walk, got, old, tables, start=-1) -> bool:
    """Whether the integrand got is at worst as far from the exact one as old.

    got is a PredictableProcess and old its path-surgery form on paths. The
    exact integrand reads the k-th table at step k and is zero up to time
    start. Where exact arithmetic is too slow (N > 5), got need only be
    within rounding of old.
    """
    if walk.N > 5:
        return _scaled_gap(got.on_paths(), old) <= 1e-15
    exact = exact_integrand(walk, tables)
    exact = [[0] * len(row) if k <= start else row for k, row in enumerate(exact)]
    err_got = scaled_errors(atom_entries(got), exact).max()
    old = PredictableProcess.from_paths(walk.space, old)
    return err_got <= scaled_errors(atom_entries(old), exact).max()


@pytest.mark.parametrize("d,N", SIZES)
def test_gradient_and_representations_equal_the_path_surgery_forms(rng, d, N):
    walk = random_walk(rng, d, N)
    table = random_table(rng, walk.space)
    assert np.array_equal(gradient(walk, table).values, oracle_gradient(walk, table))
    tables = [table.values] * (N + 1)
    xi = clark_ocone(walk, table)[1]
    assert _no_farther_from_exact(walk, xi, oracle_integrand(walk, table), tables)
    for n in range(-1, N + 1):
        _, xi = clark_ocone_from(walk, table, n)
        assert _no_farther_from_exact(walk, xi, oracle_integrand(walk, table, n), tables, n)
    martingale = [conditional_expectation(walk, table, n) for n in range(N + 1)]
    _, gamma = predictable_representation(walk, martingale)
    old = oracle_predictable_integrand(walk, martingale)
    assert _no_farther_from_exact(walk, gamma, old, [m.values for m in martingale])


@pytest.mark.parametrize("d,N", SIZES)
def test_spread_equals_the_path_surgery_spread(rng, d, N):
    walk = random_walk(rng, d, N)
    table = random_table(rng, walk.space)
    assert deviation_bound(walk, table, 0.1).spread == oracle_spread(walk, table)


@pytest.mark.parametrize("d,N", SIZES)
def test_divergence_matches_the_correction_formula(rng, d, N):
    walk = random_walk(rng, d, N)
    process = random_process(rng, walk)
    got = divergence(walk, process).values
    assert _scaled_gap(got, oracle_divergence(walk, process.values)) <= 1e-13
    predictable = random_predictable(rng, walk)
    integral = integrate_predictable(walk, predictable).values
    assert np.array_equal(divergence(walk, predictable).values, integral)
    assert _scaled_gap(integral, oracle_divergence(walk, predictable.values)) <= 1e-13


def test_duality_at_two_dimensions_nine_steps(rng):
    walk = random_walk(rng, 2, 9)
    g = random_table(rng, walk.space)
    process = random_process(rng, walk)
    lhs = expectation(walk, g * divergence(walk, process))
    pairing = np.einsum("kpj,kpj->p", gradient(walk, g).values, process.values)
    rhs = expectation(walk, PathTable(walk.space, pairing))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_operators_build_no_path_tables(rng):
    """No Malliavin operator builds the increment or outcome table."""
    probs = [rng.uniform(0.2, 1.0, size=3) for _ in range(4)]
    probs = [p / p.sum() for p in probs]
    space = construct_obtuse(probs).space
    f, g = random_table(rng, space), random_table(rng, space)
    calls = {
        "gradient": lambda w: gradient(w, f),
        "divergence": lambda w: divergence(w, random_process(rng, w)),
        "clark_ocone": lambda w: clark_ocone(w, f),
        "clark_ocone_from": lambda w: clark_ocone_from(w, f, 1),
        "predictable_representation": lambda w: predictable_representation(
            w, [conditional_expectation(w, f, n) for n in range(w.N + 1)]
        ),
        "integrate_predictable": lambda w: integrate_predictable(w, random_predictable(rng, w)),
        "cov_gradient": lambda w: cov_gradient(w, f, g),
        "cov_semigroup": lambda w: cov_semigroup(w, f, g),
        "deviation_bound": lambda w: deviation_bound(w, f, 0.1),
        "poincare_check": lambda w: poincare_check(w, f),
    }
    for name, call in calls.items():
        walk = construct_obtuse(probs)
        call(walk)
        assert "increments" not in walk.__dict__, name
        assert "outcomes" not in walk.space.__dict__, name
