"""Market model: prices, risk-neutral measure, pricing, hedging, verification."""
import numpy as np
import pytest

from obtusewalk import (
    EMM,
    ArbitrageError,
    IncompleteMarketError,
    MarketSpec,
    PathTable,
    Strategy,
    build_prices,
    conditional_expectation,
    crr_market,
    emm_walk,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    price_claim,
    verify_strategy,
)
from obtusewalk.market import HedgeFormulaError, MarketModelError, strategy_values
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2


def crr1():
    return crr_market(100.0, 0.1, -0.1, 0.0, 1)


def crr2():
    return crr_market(100.0, 0.1, -0.1, 0.0, 2)


def call(market, strike=100.0):
    expr = parse_payoff(f"max(S(1)-{strike},0)", market.d, market.N)
    return eval_payoff(expr, market)


def d2_market(periods=2, rate=0.0):
    """Diagonal three-scenario model whose returns load on the fixture walk."""
    v = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
    sig = np.array([0.05, 0.08])
    scenarios = np.zeros((periods, 3, 2, 2))
    for i in range(3):
        scenarios[:, i] = np.diag(rate + sig * v[i])
    return MarketSpec(
        d=2,
        N=periods - 1,
        s_init=np.array([100.0, 100.0]),
        rates=np.full(periods, rate),
        scenarios=scenarios,
    )


def general_market():
    """One-period two-asset model with non-diagonal scenario matrices."""
    m0 = np.array([[0.10, 0.02], [0.01, 0.06]])
    m1 = np.array([[-0.04, 0.00], [0.02, -0.08]])
    s0 = np.array([100.0, 50.0])
    q = np.array([0.3, 0.3, 0.4])
    w = -(q[0] * m0 @ s0 + q[1] * m1 @ s0) / q[2]
    m2 = np.diag(w / s0)
    return MarketSpec(
        d=2,
        N=0,
        s_init=s0,
        rates=np.zeros(1),
        scenarios=np.array([[m0, m1, m2]]),
    ), q


class TestBuildPrices:
    def test_one_period(self):
        prices, bond = build_prices(crr1())
        assert np.allclose(prices.values[0][:, 0], [110.0, 90.0])
        assert np.all(bond == 1.0)

    def test_two_period(self):
        prices, _ = build_prices(crr2())
        assert np.allclose(prices.values[1][:, 0], [121.0, 99.0, 99.0, 81.0])

    def test_bond_accumulates(self):
        market = crr_market(100.0, 0.1, -0.1, 0.05, 2)
        _, bond = build_prices(market)
        assert np.allclose(bond, [1.05, 1.05**2])

    def test_negative_growth_rejected(self):
        with pytest.raises(Exception):
            crr_market(100.0, 0.1, -1.5, 0.0, 1)

    @pytest.mark.parametrize("field", ["s_init", "rates", "scenarios"])
    def test_non_finite_model_rejected(self, field):
        market = crr1()
        parts = {"s_init": market.s_init, "rates": market.rates, "scenarios": market.scenarios}
        parts[field] = np.where(parts[field] == parts[field].flat[0], np.nan, parts[field])
        with pytest.raises(MarketModelError, match="finite"):
            MarketSpec(d=market.d, N=market.N, **parts)


class TestFindEMM:
    def test_symmetric(self):
        emm = find_emm(crr1())
        assert np.allclose(emm.q[0], [0.5, 0.5])

    def test_asymmetric(self):
        market = crr_market(100.0, 0.2, -0.1, 0.0, 1)
        emm = find_emm(market)
        assert np.allclose(emm.q[0], [1.0 / 3.0, 2.0 / 3.0])

    def test_arbitrage_detected(self):
        market = crr_market(100.0, 0.1, 0.05, 0.0, 1)
        with pytest.raises(ArbitrageError):
            find_emm(market)

    def test_incomplete_detected(self):
        market = crr_market(100.0, 0.1, 0.1, 0.1, 1)
        with pytest.raises(IncompleteMarketError):
            find_emm(market)

    def test_general_matrices(self):
        market, q = general_market()
        emm = find_emm(market)
        assert np.max(np.abs(emm.q[0] - q)) < 1e-12

    def test_d2_fixture_probabilities(self):
        emm = find_emm(d2_market())
        assert np.max(np.abs(emm.q - [0.25, 0.25, 0.5])) < 1e-12


class TestEmmWalk:
    def test_symmetric_gives_bernoulli(self):
        walk = emm_walk(crr1(), find_emm(crr1()))
        assert np.allclose(walk.steps[0].v.ravel(), [1.0, -1.0])

    def test_asymmetric_closed_form(self):
        market = crr_market(100.0, 0.2, -0.1, 0.0, 1)
        walk = emm_walk(market, find_emm(market))
        assert walk.steps[0].v[0, 0] == pytest.approx(SQ2, abs=1e-12)
        assert walk.steps[0].v[1, 0] == pytest.approx(-1.0 / SQ2, abs=1e-12)

    def test_d2_gives_fixture_walk(self):
        market = d2_market()
        walk = emm_walk(market, find_emm(market))
        expected = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
        assert np.max(np.abs(walk.steps[0].v - expected)) < 1e-10


class TestPriceClaim:
    def test_one_period_call(self):
        market = crr1()
        assert price_claim(market, find_emm(market), call(market)) == pytest.approx(
            5.0, abs=1e-10
        )

    def test_two_period_call(self):
        market = crr2()
        assert price_claim(market, find_emm(market), call(market)) == pytest.approx(
            5.25, abs=1e-10
        )

    def test_cash_at_zero_rate(self):
        market = crr2()
        claim = PathTable.constant(market.space, 7.0)
        assert price_claim(market, find_emm(market), claim) == pytest.approx(7.0)


class TestHedgeReplicate:
    def test_one_period_call(self):
        market = crr1()
        strategy = hedge_replicate(market, find_emm(market), call(market))
        assert np.allclose(strategy.gamma[0][:, 0], 0.5, atol=1e-10)
        assert np.allclose(strategy.beta[0], -45.0, atol=1e-8)
        assert strategy.beta_init == pytest.approx(5.0, abs=1e-10)

    def test_cash_claim(self):
        market = crr2()
        claim = PathTable.constant(market.space, 3.0)
        strategy = hedge_replicate(market, find_emm(market), claim)
        assert np.max(np.abs(strategy.gamma)) < 1e-12
        assert np.allclose(strategy.beta, 3.0, atol=1e-12)

    def test_two_period_values_and_gamma(self):
        market = crr2()
        strategy = hedge_replicate(market, find_emm(market), call(market))
        values, v_init = strategy_values(market, strategy)
        assert v_init == pytest.approx(5.25, abs=1e-10)
        assert values[0][0] == pytest.approx(10.5, abs=1e-10)  # up atom
        assert values[0][-1] == pytest.approx(0.0, abs=1e-10)  # down atom
        assert strategy.gamma[1][0, 0] == pytest.approx(21.0 / 22.0, abs=1e-10)

    def test_replicates_terminal_claim(self):
        market = d2_market()
        claim = eval_payoff(
            parse_payoff("max(0.5*(S(1)+S(2))-100,0)", market.d, market.N), market
        )
        strategy = hedge_replicate(market, find_emm(market), claim)
        values, _ = strategy_values(market, strategy)
        assert np.max(np.abs(values[market.N] - claim.values)) < 1e-8

    def test_general_matrices_replicate(self):
        market, _ = general_market()
        claim = eval_payoff(
            parse_payoff("max(S(1)-S(2)-45,0)", market.d, market.N), market
        )
        strategy = hedge_replicate(market, find_emm(market), claim)
        report = verify_strategy(market, strategy, claim)
        assert report.passed


class TestHedgeClarkOcone:
    def test_one_period_call(self):
        market = crr1()
        strategy = hedge_clark_ocone(market, find_emm(market), call(market))
        assert np.allclose(strategy.gamma[0][:, 0], 0.5, atol=1e-10)
        assert np.allclose(strategy.beta[0], -45.0, atol=1e-8)

    def test_cash_claim_has_no_shares(self):
        market = crr2()
        claim = PathTable.constant(market.space, 3.0)
        strategy = hedge_clark_ocone(market, find_emm(market), claim)
        assert np.max(np.abs(strategy.gamma)) < 1e-12

    def test_matches_replication_two_period(self):
        market = crr2()
        emm = find_emm(market)
        claim = call(market)
        a = hedge_replicate(market, emm, claim)
        b = hedge_clark_ocone(market, emm, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_matches_replication_d2_basket(self):
        market = d2_market()
        emm = find_emm(market)
        claim = eval_payoff(
            parse_payoff("max(0.5*(S(1)+S(2))-100,0)", market.d, market.N), market
        )
        a = hedge_replicate(market, emm, claim)
        b = hedge_clark_ocone(market, emm, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_matches_replication_nonzero_rate(self):
        market = crr_market(100.0, 0.1, -0.1, 0.02, 2)
        emm = find_emm(market)
        claim = call(market)
        a = hedge_replicate(market, emm, claim)
        b = hedge_clark_ocone(market, emm, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_non_diagonal_rejected(self):
        market, _ = general_market()
        claim = PathTable.constant(market.space, 1.0)
        with pytest.raises(HedgeFormulaError, match="hedge_replicate"):
            hedge_clark_ocone(market, find_emm(market), claim)


class TestVerifyStrategy:
    def test_hedge_passes_all_checks(self):
        market = crr2()
        emm = find_emm(market)
        claim = call(market)
        report = verify_strategy(market, hedge_replicate(market, emm, claim), claim)
        assert report.passed
        assert report.replication < 1e-8
        assert report.self_financing < 1e-8
        assert report.decomposition is not None and report.decomposition < 1e-8

    def test_perturbed_gamma_fails(self):
        market = crr2()
        emm = find_emm(market)
        claim = call(market)
        strategy = hedge_replicate(market, emm, claim)
        bad_gamma = np.array(strategy.gamma)
        bad_gamma[0] += 0.1
        bad = Strategy(
            strategy.space,
            strategy.beta,
            bad_gamma,
            beta_init=strategy.beta_init,
            gamma_init=strategy.gamma_init,
        )
        report = verify_strategy(market, bad, claim)
        assert not report.passed
        assert max(report.self_financing, report.replication) > 0.01

    def test_all_cash_strategy_for_cash_claim(self):
        market = crr2()
        claim = PathTable.constant(market.space, 4.0)
        space = market.space
        strategy = Strategy(
            space,
            np.full((2, space.num_paths), 4.0),
            np.zeros((2, space.num_paths, 1)),
            beta_init=4.0,
        )
        report = verify_strategy(market, strategy, claim)
        assert report.passed


class TestInvariants:
    @pytest.mark.parametrize("maker", [crr2, d2_market, lambda: crr_market(100, 0.15, -0.05, 0.03, 3)])
    def test_discounted_prices_are_martingales(self, maker):
        market = maker()
        emm = find_emm(market)
        wq = emm_walk(market, emm)
        prices, bond = build_prices(market)
        for n in range(market.N):
            for j in range(market.d):
                nxt = PathTable(market.space, prices.values[n + 1][:, j] / bond[n + 1])
                now = prices.values[n][:, j] / bond[n]
                projected = conditional_expectation(wq, nxt, n)
                assert np.max(np.abs(projected.values - now)) < 1e-9

    def test_replication_values_match_conditional_prices(self):
        market = crr2()
        emm = find_emm(market)
        claim = call(market)
        wq = emm_walk(market, emm)
        strategy = hedge_replicate(market, emm, claim)
        values, _ = strategy_values(market, strategy)
        _, bond = build_prices(market)
        for n in range(market.N + 1):
            target = (
                bond[n] / bond[market.N]
            ) * conditional_expectation(wq, claim, n).values
            assert np.max(np.abs(values[n] - target)) < 1e-9

    def test_one_period_completeness_criterion(self):
        # the EMM system matrix and the augmented price vectors agree on singularity
        for market, singular in [
            (crr1(), False),
            (general_market()[0], False),
            (crr_market(100.0, 0.1, 0.1, 0.1, 1), True),
        ]:
            prices, _ = build_prices(market)
            emm_mat = np.empty((market.d + 1, market.d + 1))
            for i in range(market.d + 1):
                emm_mat[: market.d, i] = market.scenarios[0, i] @ market.s_init
            emm_mat[market.d] = 1.0
            stride = market.space.atom_size(0)
            augmented = np.empty((market.d + 1, market.d + 1))
            for i in range(market.d + 1):
                augmented[: market.d, i] = prices.values[0][i * stride]
            augmented[market.d] = 1.0
            emm_singular = abs(np.linalg.det(emm_mat)) < 1e-9
            aug_singular = abs(np.linalg.det(augmented)) < 1e-9
            assert emm_singular == aug_singular == singular

    def test_put_call_parity_at_zero_rate(self):
        market = crr2()
        emm = find_emm(market)
        strike = 95.0
        call_claim = eval_payoff(
            parse_payoff(f"max(S(1)-{strike},0)", 1, market.N), market
        )
        put_claim = eval_payoff(
            parse_payoff(f"max({strike}-S(1),0)", 1, market.N), market
        )
        lhs = price_claim(market, emm, call_claim) - price_claim(market, emm, put_claim)
        assert lhs == pytest.approx(100.0 - strike, abs=1e-9)
