"""The Clark-Ocone integrand and risk-neutral weight forms against exact rational arithmetic."""
import numpy as np

from obtusewalk import (
    MarketSpec,
    PathTable,
    PredictableProcess,
    clark_ocone,
    conditional_expectation,
    construct_obtuse,
    find_emm,
    predictable_representation,
)
from obtusewalk.omega import _tree_offset, atom_means
from exact_oracle import (
    Comparison,
    atom_entries,
    exact_emm_weights,
    exact_integrand,
    exact_means,
)
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


def _diagonal_market(rng, d, N, homogeneous, s_init):
    """Diagonal returns rate + sigma_j v_i^j on an obtuse step: complete and arbitrage-free."""
    rate = float(rng.uniform(-0.02, 0.05))

    def returns():
        q = rng.uniform(0.2, 1.0, size=d + 1)
        v = construct_obtuse([q / q.sum()]).steps[0].v
        return rate + rng.uniform(0.01, 0.2, size=d) * v

    lams = [returns()] * (N + 1) if homogeneous else [returns() for _ in range(N + 1)]
    scenarios = np.zeros((N + 1, d + 1, d, d))
    scenarios[..., np.arange(d), np.arange(d)] = lams
    return MarketSpec(d=d, N=N, s_init=s_init, rates=np.full(N + 1, rate), scenarios=scenarios)


def _atom0_rows(market):
    """Each step's weights solved at the prices of atom 0 before it, then renormalized."""
    d, rows = market.d, []
    for k in range(market.N + 1):
        s = market.prices[_tree_offset(d, k - 1)]
        mat = np.ones((d + 1, d + 1))
        mat[:d] = (market.scenarios[k] @ s).T  # column i: M_k^i S_{k-1}
        rows.append(np.linalg.solve(mat, np.append(market.rates[k] * s, 1.0)))
    return [step.p for step in construct_obtuse(rows).steps]


def test_one_solve_per_diagonal_step_passes_the_exact_rule():
    """`find_emm` solves a diagonal step once, its rows balanced by powers of two;
    solving it at the prices of atom 0 is the form it replaced. On 512
    diagonal markets, half time-homogeneous, half with initial prices log-uniform
    on [1e-3, 1e6], the one solve must pass the rule against it."""
    rng = np.random.default_rng(23)
    comparison = Comparison()
    for m in range(512):
        d, N = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        if m % 4 < 2:
            s_init = rng.uniform(50.0, 150.0, size=d)
        else:
            s_init = 10.0 ** rng.uniform(-3, 6, size=d)
        market = _diagonal_market(rng, d, N, m % 2 == 0, s_init)
        comparison.add(
            [step.p for step in find_emm(market).steps],
            _atom0_rows(market),
            [exact_emm_weights(market.lambdas[k], market.rates[k]) for k in range(N + 1)],
        )
    assert comparison.entries > 4000
    assert comparison.passes, comparison
