"""The Clark-Ocone integrand forms against exact rational arithmetic."""
import numpy as np

from obtusewalk import (
    PathTable,
    PredictableProcess,
    clark_ocone,
    conditional_expectation,
    predictable_representation,
)
from obtusewalk.omega import atom_means
from exact_oracle import Comparison, atom_entries, exact_integrand, exact_means
from malliavin_oracle import oracle_integrand, oracle_predictable_integrand
from helpers import bernoulli, random_table, random_walk

#: (d, N) of the corpus walks, ten walks each
CORPUS = [(1, 5), (2, 3), (3, 2), (2, 4)]


def test_exact_on_a_walk_whose_arithmetic_is_exact():
    """With +-1 increments, p = 1/2 and integer values no float step rounds."""
    walk = bernoulli(3)
    table = PathTable(walk.space, np.arange(walk.space.num_paths) ** 2 - 7.0)
    for n in range(-1, walk.N + 1):
        assert exact_means(walk, table.values, n) == list(atom_means(walk, table.values, n))
    exact = exact_integrand(walk, [table.values] * (walk.N + 1))
    got = atom_entries(clark_ocone(walk, table)[1])
    assert [list(row) for row in got] == exact
    assert exact[0] == [-60]  # c = (1/2, -1/2) on the means 10.5 and 130.5 of the two halves


def test_atom_means_form_passes_the_exact_rule(rng):
    """Both representations read the integrand off atom means; the path-surgery
    forms average the path-wise gradient. The atom-means forms must be no farther
    from exact at worst and the farther from exact on fewer entries."""
    integrand, representation = Comparison(), Comparison()
    for d, N in CORPUS:
        for _ in range(10):
            walk = random_walk(rng, d, N)
            table = random_table(rng, walk.space)
            integrand.add(
                atom_entries(clark_ocone(walk, table)[1]),
                atom_entries(
                    PredictableProcess.from_paths(walk.space, oracle_integrand(walk, table))
                ),
                exact_integrand(walk, [table.values] * (N + 1)),
            )
            martingale = [conditional_expectation(walk, table, n) for n in range(N + 1)]
            representation.add(
                atom_entries(predictable_representation(walk, martingale)[1]),
                atom_entries(
                    PredictableProcess.from_paths(
                        walk.space, oracle_predictable_integrand(walk, martingale)
                    )
                ),
                exact_integrand(walk, [m.values for m in martingale]),
            )
    for comparison in (integrand, representation):
        assert comparison.entries == 4480
        assert comparison.passes, comparison
