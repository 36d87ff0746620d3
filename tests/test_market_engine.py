"""Market engine on the price array: agreement with the per-atom and per-path
oracles, error order, caching."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obtusewalk import (
    DEFAULT_CAP,
    ArbitrageError,
    IncompleteMarketError,
    MarketSpec,
    PathSpace,
    PathTable,
    PredictableProcess,
    SizeCapError,
    Strategy,
    VectorProcess,
    construct_obtuse,
    crr_market,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    price_claim,
    verify_strategy,
)
from obtusewalk import malliavin, serialize
from obtusewalk import market as market_mod
from obtusewalk.market import MarketModelError, StateDependentMeasureError, _hedge_ratios
from obtusewalk.omega import _tree_offset
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2, random_walk
from market_oracle import (
    _distinct,
    check_prices,
    oracle_find_emm,
    oracle_hedge_clark_ocone,
    oracle_hedge_replicate,
    oracle_measure,
    oracle_prices,
    oracle_verify_strategy,
    path_strategy,
    strategy_paths,
)
from serialize_oracle import oracle_strategy_to_csv

V = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
#: The d = 3 walk that construct_obtuse completes for p = (1/8, 1/8, 1/4, 1/2)
V3 = np.array([[2.0, SQ2, 1.0], [-2.0, SQ2, 1.0], [0.0, -SQ2, 1.0], [0.0, 0.0, -1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _basket_step(rng, rate, v):
    """Diagonal scenarios whose excess returns load on one coordinate of the walk v each."""
    sig = rng.uniform(0.01, 0.2, size=v.shape[1])
    return np.array([np.diag(rate + sig * row) for row in v])


def _nondiag_step(rng, rate, s_init):
    """Non-diagonal scenarios with a positive risk-neutral solution at s_init."""
    q = rng.dirichlet(np.ones(3)) * 0.4 + 0.2
    m0, m1 = (
        np.diag(rng.uniform(-0.03, 0.03, size=2)) + rng.uniform(0.0, 0.03) * SWAP
        for _ in range(2)
    )
    w = (rate * s_init - q[0] * m0 @ s_init - q[1] * m1 @ s_init) / q[2]
    return np.array([m0, m1, np.diag(w / s_init)])


def _stepwise_crr(rng, rate, periods):
    """One asset whose up and down returns change at every step: no node recombines."""
    returns = np.stack(
        [rng.uniform(0.06, 0.3, size=periods), rng.uniform(-0.3, -0.03, size=periods)], axis=1
    )
    return MarketSpec(
        d=1,
        N=periods - 1,
        s_init=np.array([rng.uniform(50, 150)]),
        rates=np.full(periods, rate),
        scenarios=returns[:, :, None, None],
    )


@st.composite
def markets(draw):
    kind = draw(st.sampled_from(["crr", "stepwise", "diag2", "nondiag2", "diag3"]))
    # recombining CRR trees group thousands of prior atoms into few nodes;
    # diag3 has 4^periods paths, and its inner products sum three coordinates
    periods = draw(st.integers(1, {"crr": 12, "diag3": 4}.get(kind, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = float(rng.uniform(-0.02, 0.05))
    if kind == "crr":
        up, down = float(rng.uniform(0.06, 0.3)), float(rng.uniform(-0.3, -0.03))
        return crr_market(float(rng.uniform(50, 150)), up, down, rate, periods), rng
    if kind == "stepwise":
        return _stepwise_crr(rng, rate, periods), rng
    d, v = (3, V3) if kind == "diag3" else (2, V)
    s_init = rng.uniform(80.0, 120.0, size=d)
    steps = [_basket_step(rng, rate, v) for _ in range(periods)]
    if kind == "nondiag2":
        steps[0] = _nondiag_step(rng, rate, s_init)
    market = MarketSpec(
        d=d,
        N=periods - 1,
        s_init=s_init,
        rates=np.full(periods, rate),
        scenarios=np.array(steps),
    )
    return market, rng


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MarketModelError as exc:
        return type(exc), str(exc)


def _in_units(market: MarketSpec, units) -> MarketSpec:
    """The market with asset j's prices in units[j]: S0 -> D S0 and M -> D M D^-1."""
    unit = np.asarray(units, dtype=float)
    return MarketSpec(
        d=market.d,
        N=market.N,
        s_init=unit * market.s_init,
        rates=market.rates,
        scenarios=unit[:, None] * market.scenarios / unit,
    )


class TestUnitFreeCompleteness:
    """Conditioning copies balanced by powers of two keeps completeness
    independent of the unit of the prices; the systems are solved unscaled."""

    @pytest.mark.parametrize("s_init", [1e11, 1e-13])
    def test_crr_replicates_in_any_unit(self, s_init):
        market, reference = (crr_market(s, 0.1, -0.1, 0.0, 2) for s in (s_init, 100.0))
        wq = find_emm(market)
        claims = [
            eval_payoff(parse_payoff(f"max(S(1)-{s!r},0)", 1, 1), m)
            for m, s in ((market, s_init), (reference, 100.0))
        ]
        got = hedge_replicate(market, wq, claims[0])
        want = oracle_hedge_replicate(market, wq, claims[0])
        assert got.positions.rows.tobytes() == want.positions.rows.tobytes()
        assert verify_strategy(market, got, claims[0]).passed
        # share counts do not depend on the unit
        same = hedge_replicate(reference, find_emm(reference), claims[1])
        assert np.allclose(got.gamma, same.gamma, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("units", [(1e10, 1e-10), (1e-12, 1e-12), (1e12, 1e12)])
    def test_non_diagonal_step_in_any_unit(self, units):
        m0 = np.array([[0.10, 0.02], [0.01, 0.06]])
        m1 = np.array([[-0.04, 0.00], [0.02, -0.08]])
        s0, q = np.array([100.0, 50.0]), np.array([0.3, 0.3, 0.4])
        m2 = np.diag(-(q[0] * m0 @ s0 + q[1] * m1 @ s0) / q[2] / s0)
        base = MarketSpec(d=2, N=0, s_init=s0, rates=np.zeros(1), scenarios=np.array([[m0, m1, m2]]))
        market = _in_units(base, units)
        wq = find_emm(market)
        assert wq.steps[0].p.tobytes() == oracle_find_emm(market).steps[0].p.tobytes()
        assert np.max(np.abs(wq.steps[0].p - q)) < 1e-12
        claim = eval_payoff(parse_payoff("max(S(1)-S(2),0)", 2, 0), market)
        got = hedge_replicate(market, wq, claim)
        want = oracle_hedge_replicate(market, wq, claim)
        assert got.positions.rows.tobytes() == want.positions.rows.tobytes()
        assert verify_strategy(market, got, claim).passed


class TestAgainstOracle:
    @given(markets())
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, drawn):
        market, rng = drawn
        expected = _outcome(oracle_find_emm, market)
        wq = _outcome(find_emm, market)
        if isinstance(expected, tuple):
            assert wq == expected
            return
        for mine, theirs in zip(wq.steps, expected.steps, strict=True):
            assert mine.p.tobytes() == theirs.p.tobytes()
            assert mine.v.tobytes() == theirs.v.tobytes()
        claim = PathTable(market.space, rng.standard_normal(market.space.num_paths))
        got = hedge_replicate(market, wq, claim)
        want = oracle_hedge_replicate(market, wq, claim)
        assert got.beta.tobytes() == want.beta.tobytes()
        assert got.gamma.tobytes() == want.gamma.tobytes()
        assert got.beta_init == want.beta_init

    @given(markets())
    @settings(max_examples=60, deadline=None)
    def test_hedges_and_reports(self, drawn):
        """Per-atom hedges and verifier against the path-wise oracles."""
        market, rng = drawn
        wq = _outcome(find_emm, market)
        if isinstance(wq, tuple):
            return
        claim = PathTable(market.space, rng.standard_normal(market.space.num_paths))
        price = price_claim(market, wq, claim)
        replicated = hedge_replicate(market, wq, claim)
        assert replicated.beta_init == price
        want = _outcome(oracle_hedge_clark_ocone, market, wq, claim)
        got = _outcome(hedge_clark_ocone, market, wq, claim)
        strategies = [replicated]
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.beta_init == want.beta_init == price
            for mine, theirs in ((got.beta, want.beta), (got.gamma, want.gamma)):
                scale = max(1.0, float(np.max(np.abs(theirs))))
                assert float(np.max(np.abs(mine - theirs))) <= 1e-12 * scale
            strategies += [got, want]
        for strategy in strategies:
            report = verify_strategy(market, strategy, claim)
            assert report == oracle_verify_strategy(market, strategy, claim)


def _benchmark_basket(periods: int, rate: float = 0.01) -> MarketSpec:
    """The two-asset basket of the benchmark: returns that load on the walk V."""
    sig = np.array([0.05, 0.07])
    step = np.array([np.diag(rate + sig * row) for row in V])
    return MarketSpec(
        d=2,
        N=periods - 1,
        s_init=np.array([101.0, 96.0]),
        rates=np.full(periods, rate),
        scenarios=np.array([step] * periods),
    )


#: The depths of the benchmark's market models, with path-dependent claims
#: whose conditional means differ at every level.
BENCHMARK_DEPTHS = {
    "crr12": (
        lambda: crr_market(100.0, 0.09, -0.07, 0.01, 12),
        "max((S(1,3)+S(1,7)+S(1))/3-99.5,0)",
    ),
    "basket8": (
        lambda: _benchmark_basket(8),
        "max(S(1,3)-S(2,3),0)+max(0.5*(S(1)+S(2))-98,0)",
    ),
}


class TestBenchmarkDepths:
    """Both hedges, the verifier and the strategy CSV at the depths the
    benchmark runs, where each block of steps spans many levels."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_DEPTHS))
    def test_hedges_reports_and_csv_match_the_oracles(self, name):
        make, source = BENCHMARK_DEPTHS[name]
        market = make()
        claim = eval_payoff(parse_payoff(source, market.d, market.N), market)
        wq = find_emm(market)
        replicated = hedge_replicate(market, wq, claim)
        want = oracle_hedge_replicate(market, wq, claim)
        assert replicated.positions.rows.tobytes() == want.positions.rows.tobytes()
        for strategy in (replicated, hedge_clark_ocone(market, wq, claim)):
            report = verify_strategy(market, strategy, claim)
            assert report.passed
            assert report == oracle_verify_strategy(market, strategy, claim)
            assert serialize.strategy_to_csv(market, strategy) == oracle_strategy_to_csv(
                market, strategy
            )


class TestPredictabilityOnPaths:
    """Path-indexed input keeps its path-wise predictability defect through
    PredictableProcess.from_paths."""

    @pytest.mark.parametrize("where", ["one path", "one sub-atom"])
    @pytest.mark.parametrize("hedge", [hedge_replicate, hedge_clark_ocone])
    def test_gamma_perturbed_inside_one_atom(self, where, hedge):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 6)
        space = market.space
        claim = PathTable(market.space, np.linspace(0.0, 1.0, space.num_paths) ** 2)
        wq = find_emm(market)
        strategy = hedge(market, wq, claim)
        assert verify_strategy(market, strategy, claim).predictability == 0.0
        n = 3
        start = 5 * space.atom_size(n - 1)  # atom 5 of F_{n-1}
        # a path that is not the first of an F_n atom, or the whole last sub-atom
        rows = (
            slice(start + 1, start + 2)
            if where == "one path"
            else slice(start + space.atom_size(n), start + space.atom_size(n - 1))
        )
        beta, gamma = strategy_paths(strategy)
        gamma[n, rows] += 1e-3
        bent = path_strategy(space, beta, gamma, strategy.beta_init)
        report = verify_strategy(market, bent, claim)
        assert report.predictability == pytest.approx(1e-3)
        assert report.predictability > 1e-8  # the bound, as max|F| = 1
        assert not report.passed
        assert report.predictability == oracle_verify_strategy(market, bent, claim).predictability

    def test_nan_is_not_predictable(self):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 3)
        claim = PathTable(market.space, np.linspace(0.0, 1.0, market.space.num_paths))
        strategy = hedge_replicate(market, find_emm(market), claim)
        beta, gamma = strategy_paths(strategy)
        gamma[1, 1] = np.nan  # path 1 is not the first of its F_0 atom, so no row keeps it
        bent = path_strategy(market.space, beta, gamma, strategy.beta_init)
        assert np.isnan(bent.predictability_defect)
        report = verify_strategy(market, bent, claim)
        assert np.isnan(report.predictability) and not report.passed

    def test_atom_rows_round_trip_through_paths(self):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 5)
        claim = PathTable(market.space, np.linspace(0.0, 1.0, market.space.num_paths))
        strategy = hedge_replicate(market, find_emm(market), claim)
        again = path_strategy(market.space, *strategy_paths(strategy), strategy.beta_init)
        assert again.beta.tobytes() == strategy.beta.tobytes()
        assert again.gamma.tobytes() == strategy.gamma.tobytes()
        assert again.predictability_defect == 0.0
        with pytest.raises(ValueError, match="process rows have shape"):
            PredictableProcess(market.space, strategy.positions.rows[1:])


class TestNoPathSurgery:
    def test_hedges_and_verify_stay_on_atoms(self, monkeypatch):
        """Neither hedge nor the verifier takes the path-wise gradient or path tables."""

        def forbidden(*args, **kwargs):
            raise AssertionError("path surgery reached")

        assert not hasattr(PathSpace, "mutated_indices")
        monkeypatch.setattr(malliavin, "gradient", forbidden)
        for market in (
            crr_market(100.0, 0.1, -0.08, 0.01, 8),
            _stepwise_crr(np.random.default_rng(5), 0.01, 5),
        ):
            claim = PathTable(market.space, np.cos(np.arange(market.space.num_paths)))
            wq = find_emm(market)
            price_claim(market, wq, claim)
            for hedge in (hedge_replicate, hedge_clark_ocone):
                assert verify_strategy(market, hedge(market, wq, claim), claim).passed
            assert "increments" not in wq.__dict__
            for space in (market.space, wq.space):
                assert "outcomes" not in space.__dict__


def _two_step(lams0, step1, s_init):
    """Two periods, d=2, zero rate: diagonal step 0 returns, then step 1 matrices."""
    scenarios = np.array([[np.diag(lam) for lam in lams0], step1])
    return MarketSpec(
        d=2, N=1, s_init=np.array(s_init, dtype=float), rates=np.zeros(2), scenarios=scenarios
    )


def _calibrated_step(s, eps=0.1):
    """Non-diagonal step with weights (0.3, 0.3, 0.4) at s, singular where s1 = s2."""
    d1 = -eps * 0.3 * (s[0] + s[1]) / s[0]
    d2 = -eps * 0.3 * (s[1] + s[0]) / s[1]
    base = np.diag([d1, d2])
    return [base + eps * np.eye(2), base + eps * SWAP, base]


#: step-0 returns with weights (0.4, 0.2, 0.4); from (100, 100) the three
#: atoms of F_0 sit at (120, 110), (90, 110) and (85, 85)
MIXED_LAMS = [(0.2, 0.1), (-0.1, 0.1), (-0.15, -0.15)]


#: weights (0.25, 0.25, 0.5); growth factors are exact in binary, so prices
#: recombine bit for bit and S_0 * 1.5625 is the price at atom 0 of F_1
RECOMBINING_LAMS = [(0.25, 0.25), (-0.25, 0.25), (0.0, -0.25)]


def _crr_two_step(second, first=(0.1, -0.1), s_init=100.0):
    scenarios = np.array([[[[first[0]]], [[first[1]]]], [[[second[0]]], [[second[1]]]]])
    return MarketSpec(d=1, N=1, s_init=np.array([s_init]), rates=np.zeros(2), scenarios=scenarios)


class TestMultiAtomErrors:
    """Failures at step 1, which has two or three prior atoms."""

    @pytest.mark.parametrize(
        "market, error, message",
        [
            (_crr_two_step((0.1, 0.05)), ArbitrageError, "at step 1 are not strictly positive"),
            (_crr_two_step((0.1, 0.1)), IncompleteMarketError, "at step 1 is singular"),
            (
                _two_step(
                    [(0.02, 0.01), (-0.01, 0.01), (-0.015, -0.015)],
                    _calibrated_step((102.0, 90.9)),
                    (100.0, 90.0),
                ),
                StateDependentMeasureError,
                "step 1 weights differ across atoms",
            ),
        ],
    )
    def test_error_at_step_one(self, market, error, message):
        assert market.space.atom_count(0) >= 2
        with pytest.raises(error, match=message):
            find_emm(market)
        with pytest.raises(error, match=message):
            oracle_find_emm(market)

    @pytest.mark.parametrize(
        "order, error",
        [
            ([0, 1, 2], ArbitrageError),  # atom 1 has negative weights, atom 2 is singular
            ([0, 2, 1], IncompleteMarketError),  # the same two atoms, swapped
        ],
    )
    def test_first_failing_atom_decides(self, order, error):
        market = _two_step(
            [MIXED_LAMS[i] for i in order], _calibrated_step((120.0, 110.0)), (100.0, 100.0)
        )
        want = _outcome(oracle_find_emm, market)
        assert want[0] is error
        assert _outcome(find_emm, market) == want

    @pytest.mark.parametrize(
        "s_init, error",
        [
            # atom 1 has negative weights; the singular node (60, 60) sits
            # at atoms 5 and 7
            ((80.0, 64.0), ArbitrageError),
            # the singular node (75, 75) sits at atoms 1 and 3
            ((80.0, 48.0), IncompleteMarketError),
        ],
    )
    def test_singular_node_at_several_atoms(self, s_init, error):
        diag = [np.diag(lam) for lam in RECOMBINING_LAMS]
        at_atom0 = np.array(s_init) * 1.5625
        market = MarketSpec(
            d=2,
            N=2,
            s_init=np.array(s_init),
            rates=np.zeros(3),
            scenarios=np.array([diag, diag, _calibrated_step(at_atom0)]),
        )
        assert len(market.first_atoms[2]) < market.space.atom_count(1)  # F_1 recombines
        want = _outcome(oracle_find_emm, market)
        assert want[0] is error
        assert _outcome(find_emm, market) == want

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "order, error",
        [
            # atom 1 of F_{k-1} has other positive weights, atom 2 negative ones
            ([0, 1, 2], StateDependentMeasureError),
            # the same prices with those two atoms swapped
            ([0, 2, 1], ArbitrageError),
        ],
    )
    def test_non_diagonal_step_after_recombining_steps(self, k, order, error):
        """The non-diagonal step k has weights (0.3, 0.3, 0.4) at atom 0 of F_{k-1}
        and solves one system per distinct price row, at its first atom; the first
        failing atom decides as in the atom-by-atom loop."""
        diag = [np.diag(lam) for lam in RECOMBINING_LAMS]
        s_init = np.array([64.0, 80.0])
        at_atom0 = s_init * 1.25**k  # exact, as every return of scenario 0 is 0.25
        steps = [diag] * (k - 1) + [[diag[i] for i in order], _calibrated_step(at_atom0)]
        market = MarketSpec(
            d=2, N=k, s_init=s_init, rates=np.zeros(k + 1), scenarios=np.array(steps)
        )
        assert len(market.first_atoms[k]) < market.space.atom_count(k - 1)
        want = _outcome(oracle_find_emm, market)
        assert want[0] is error
        assert _outcome(find_emm, market) == want

    @pytest.mark.parametrize(
        "market, error",
        [
            # atom 1 of F_0 has price 0, atom 0 a regular system
            (_crr_two_step((0.1, -0.1), (0.5, -1.0)), IncompleteMarketError),
            # atom 0 is dead, ahead of the arbitrage of the step's system
            (_crr_two_step((0.1, 0.05), (-1.0, 0.5)), IncompleteMarketError),
            # the arbitrage at atom 0 comes ahead of the dead atom 1
            (_crr_two_step((0.1, 0.05), (0.5, -1.0)), ArbitrageError),
            # atom 0's price overflows
            (_crr_two_step((0.1, -0.1), (1.0, -0.5), 1e308), IncompleteMarketError),
        ],
    )
    def test_dead_node_of_a_diagonal_step(self, market, error):
        """A diagonal step solves one system; a zero or non-finite price makes it singular."""
        want = _outcome(oracle_find_emm, market)
        assert want[0] is error
        assert _outcome(find_emm, market) == want

    def test_singular_replication_at_step_one(self):
        market = _crr_two_step((0.1, 0.1))
        wq = construct_obtuse([[0.5, 0.5]] * 2)
        claim = PathTable.constant(market.space, 1.0)
        with pytest.raises(IncompleteMarketError, match="replication system at step 1"):
            hedge_replicate(market, wq, claim)


class TestNodes:
    """A node is a distinct price row of a level; the first-atom sweep finds one atom per node."""

    def test_recombining_tree_shares_nodes(self):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 12)
        assert len(market.first_atoms[11]) * 8 < market.space.atom_count(10)

    def test_stepwise_returns_never_recombine(self):
        market = _stepwise_crr(np.random.default_rng(3), 0.01, 8)
        assert len(market.first_atoms[7]) == market.space.atom_count(6)


def _recombining_d2():
    diag = [np.diag(lam) for lam in RECOMBINING_LAMS]
    return MarketSpec(
        d=2, N=4, s_init=np.array([80.0, 64.0]), rates=np.zeros(5), scenarios=np.array([diag] * 5)
    )


def _random_d3():
    rng = np.random.default_rng(7)
    return MarketSpec(
        d=3,
        N=4,
        s_init=rng.uniform(50.0, 150.0, size=3),
        rates=np.zeros(5),
        scenarios=_random_scenarios(rng, 3, 4),
    )


LATTICE_MARKETS = {
    "crr12": lambda: crr_market(100.0, 0.1, -0.08, 0.01, 12),
    "stepwise": lambda: _stepwise_crr(np.random.default_rng(3), 0.01, 8),
    "recombining_d2": _recombining_d2,
    "random_d3": _random_d3,
}


class TestLattice:
    """The price array and the first-atom sweep against the path-by-path prices
    and the byte grouping of atoms; a node is a distinct price row of a level,
    found at its first atom."""

    @given(markets())
    @settings(max_examples=80, deadline=None)
    def test_prices_and_first_atoms_match_the_oracles(self, drawn):
        check_prices(drawn[0])

    @pytest.mark.parametrize("name", sorted(LATTICE_MARKETS))
    def test_nodes_are_the_prices_at_their_first_atoms(self, name):
        market = LATTICE_MARKETS[name]()
        want = oracle_prices(market)
        for n in range(market.N):
            rows = want[n][:: market.space.atom_size(n)]  # one row per atom of F_n
            first = market.first_atoms[n + 1]
            nodes = market.prices[first]
            assert nodes.tobytes() == rows[first - _tree_offset(market.d, n)].tobytes()
            assert len(np.unique(nodes, axis=0)) == len(nodes)

    @pytest.mark.parametrize("name", sorted(LATTICE_MARKETS))
    def test_owner_groups_atoms_as_distinct_does(self, name):
        market = LATTICE_MARKETS[name]()
        want = oracle_prices(market)
        for n in range(market.N):
            rows = want[n][:: market.space.atom_size(n)]
            first = market.first_atoms[n + 1] - _tree_offset(market.d, n)
            assert np.array_equal(first, np.sort(_distinct(rows)))

    @pytest.mark.parametrize("name", sorted(LATTICE_MARKETS))
    def test_node_ids_increase_with_first_atom(self, name):
        market = LATTICE_MARKETS[name]()
        for n in range(market.N):
            first = market.first_atoms[n + 1]
            assert np.all(np.diff(first) > 0)
            assert first[0] == _tree_offset(market.d, n)  # the level's atom 0 is a first atom
            # the first atom of every node is a child of a first atom of the level above
            assert np.isin((first - 1) // (market.d + 1), market.first_atoms[n]).all()


class TestNoPricePaths:
    def test_market_job_reads_no_price_paths(self):
        """Load, payoff, risk-neutral walk, price, both hedges, CSV and verify
        build no path table."""
        specs = [
            ({"d": 1, "N": 9, "S0": [100.0], "r": 0.01,
              "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.08]}]] * 10},
             "max((S(1,3)+S(1,6)+S(1))/3-100,0)"),
            ({"d": 2, "N": 4, "S0": [100.0, 90.0], "r": 0.0,
              "scenarios": [[{"lambda": list(lam)} for lam in RECOMBINING_LAMS]] * 5},
             "max(0.5*(S(1)+S(2))-95,0)+S(2,1)/B(2)"),
        ]
        for spec, source in specs:
            market = serialize.market_from_json(spec)
            claim = eval_payoff(parse_payoff(source, market.d, market.N), market)
            wq = find_emm(market)
            price = price_claim(market, wq, claim)
            for hedge in (hedge_replicate, hedge_clark_ocone):
                strategy = hedge(market, wq, claim)
                assert serialize.strategy_to_csv(market, strategy).startswith("time,atom,beta")
                report = verify_strategy(market, strategy, claim)
                assert report.passed and report.value_initial == pytest.approx(price)
            assert "increments" not in wq.__dict__
            for space in (market.space, wq.space):
                assert "outcomes" not in space.__dict__


class TestNoCycles:
    def test_market_job_frees_its_market(self):
        """Load, payoff, risk-neutral walk, both hedges and verify leave no
        reference cycle holding the market: it is freed on return, with the
        garbage collector off."""
        spec = {"d": 1, "N": 5, "S0": [100.0], "r": 0.01,
                "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.08]}]] * 6}
        source = "max(S(1,2)/B(2)-S(1)/B(5),0)+abs(-S(1,1))"
        gc.collect()
        gc.disable()
        try:
            market = serialize.market_from_json(spec)
            freed = weakref.ref(market)
            claim = eval_payoff(parse_payoff(source, market.d, market.N), market)
            wq = find_emm(market)
            for hedge in (hedge_replicate, hedge_clark_ocone):
                assert verify_strategy(market, hedge(market, wq, claim), claim).passed
            assert "prices" in market.__dict__ and "first_atoms" in market.__dict__
            del market, claim, wq
            assert freed() is None
        finally:
            gc.enable()


def _random_scenarios(rng, d, N):
    """Full scenario matrices with I + M entrywise nonnegative."""
    diag = rng.uniform(-0.3, 0.3, size=(N + 1, d + 1, d, d))
    off = rng.uniform(0.0, 0.1, size=(N + 1, d + 1, d, d))
    return np.where(np.eye(d, dtype=bool), diag, off)


class TestPrefixTables:
    """Tables built prefix by prefix equal the path-by-path oracles byte for byte."""

    SHAPES = [(1, 0), (1, 5), (1, 8), (2, 3), (2, 8), (3, 1), (3, 5), (3, 8)]

    @pytest.mark.parametrize("d, N", SHAPES)
    def test_prices(self, d, N):
        rng = np.random.default_rng(10 * d + N)
        market = MarketSpec(
            d=d,
            N=N,
            s_init=rng.uniform(50.0, 150.0, size=d),
            rates=np.zeros(N + 1),
            scenarios=_random_scenarios(rng, d, N),
        )
        check_prices(market)

    @pytest.mark.parametrize("d, N", SHAPES)
    def test_measure(self, d, N):
        walk = random_walk(np.random.default_rng(10 * d + N), d, N)
        assert walk.measure.tobytes() == oracle_measure(walk).tobytes()


class TestRiskNeutralWalkOncePerEMM:
    def test_one_walk_per_emm(self, monkeypatch):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 4)
        claim = PathTable(market.space, np.linspace(0.0, 1.0, market.space.num_paths))
        built = []
        construct = market_mod.construct_obtuse
        monkeypatch.setattr(
            market_mod, "construct_obtuse", lambda *a, **k: built.append(1) or construct(*a, **k)
        )
        wq = find_emm(market)
        price_claim(market, wq, claim)
        hedge_replicate(market, wq, claim)
        hedge_clark_ocone(market, wq, claim)
        assert len(built) == 1
        # the gradient leaves no outcome table on the walk
        assert "outcomes" not in wq.space.__dict__

    @pytest.mark.parametrize("cap", [32, 2 * DEFAULT_CAP])
    def test_walk_takes_the_cap_of_the_market(self, cap):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 4, cap=cap)
        walk = find_emm(market)
        assert walk.cap == cap and walk.space.cap == market.space.cap

    def test_emm_of_another_horizon_is_rejected(self):
        market = crr_market(100.0, 0.1, -0.08, 0.01, 4)
        claim = PathTable(market.space, np.linspace(0.0, 1.0, market.space.num_paths))
        for wq in (
            find_emm(crr_market(100.0, 0.1, -0.08, 0.01, 3)),  # another horizon
            construct_obtuse([[0.25, 0.25, 0.5]] * 4),  # another dimension
        ):
            for fn in (price_claim, hedge_replicate, hedge_clark_ocone):
                with pytest.raises(ValueError, match="^risk-neutral walk is not defined on"):
                    fn(market, wq, claim)
            with pytest.raises(ValueError, match="^risk-neutral walk is not defined on"):
                _hedge_ratios(market, wq, 0.01)


class TestMarketSize:
    def test_scenario_array_checked_against_cap(self):
        # 2 * 3 * 2 * 2 = 24 scenario entries over 9 paths
        scenarios = np.zeros((2, 3, 2, 2))
        args = dict(d=2, N=1, s_init=np.ones(2), rates=np.zeros(2), scenarios=scenarios)
        assert MarketSpec(**args, cap=24).space.num_paths == 9
        with pytest.raises(SizeCapError, match="would need 24 entries, above the cap of 23"):
            MarketSpec(**args, cap=23)

    def test_paths_checked_against_cap_before_the_lattice(self, monkeypatch):
        monkeypatch.setattr(
            market_mod.MarketSpec, "prices", property(lambda self: pytest.fail("built the prices"))
        )
        with pytest.raises(SizeCapError, match="above the cap of 100$"):
            crr_market(100.0, 0.09, -0.07, 0.01, 30, cap=100)


class TestArrayOwnership:
    def test_caller_array_stays_writable(self):
        space = PathSpace(1, 1)
        # [beta | gamma]: one row at step 0, two at step 1
        rows = np.column_stack([np.ones(3), np.zeros(3)])
        values = np.zeros((2, space.num_paths, 1))
        strategy = Strategy(PredictableProcess(space, rows))
        process = VectorProcess(space, values)
        for arr in (rows, values):
            assert arr.flags.writeable
        rows[:] = 7.0
        values[:] = 7.0
        assert np.all(strategy.beta == 1.0)
        assert np.all(process.values == 0.0)

    def test_read_only_view_of_writable_array_is_copied(self):
        space = PathSpace(1, 1)
        base = np.zeros((2, space.num_paths, 1))
        view = base.view()
        view.setflags(write=False)
        process = VectorProcess(space, view)
        base[:] = 5.0
        assert np.all(process.values == 0.0)

    def test_frozen_array_is_shared(self):
        space = PathSpace(2, 1)
        values = np.zeros((2, space.num_paths, 2))
        values.setflags(write=False)
        assert VectorProcess(space, values).values is values
