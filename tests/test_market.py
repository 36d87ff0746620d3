"""Market model: prices, risk-neutral measure, pricing, hedging, verification."""
import re
import warnings

import numpy as np
import pytest

from obtusewalk import (
    ArbitrageError,
    IncompleteMarketError,
    MarketSpec,
    PathTable,
    PredictableProcess,
    StepLaw,
    Strategy,
    WalkSpec,
    conditional_expectation,
    crr_market,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    price_claim,
    validate,
    verify_strategy,
)
from obtusewalk import market as market_mod
from obtusewalk.market import HedgeFormulaError, MarketModelError
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2
from market_oracle import (
    oracle_hedge_clark_ocone,
    oracle_prices,
    oracle_strategy_values,
    oracle_verify_strategy,
    path_strategy,
    strategy_paths,
)


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
        market = crr1()
        assert np.allclose(market.prices[1:3, 0], [110.0, 90.0])
        assert np.all(market.bond == 1.0)

    def test_two_period(self):
        market = crr2()
        assert np.allclose(market.prices[3:7, 0], [121.0, 99.0, 99.0, 81.0])

    def test_bond_accumulates(self):
        market = crr_market(100.0, 0.1, -0.1, 0.05, 2)
        assert np.allclose(market.bond, [1.05, 1.05**2])
        assert not market.bond.flags.writeable

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


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("s_init", [100.0, 100.0], "initial prices have shape (2,), expected (1,)"),
            ("s_init", [0.0], "initial prices must be strictly positive"),
            ("rates", [0.0], "rates have shape (1,), expected (2,)"),
            ("rates", [0.0, -1.0], "every rate must exceed -1"),
            ("scenarios", np.zeros((2, 3, 1, 1)),
             "scenarios have shape (2, 3, 1, 1), expected (2, 2, 1, 1)"),
        ],
    )
    def test_malformed_model_is_one_line(self, field, value, message):
        market = crr2()
        parts = {"s_init": market.s_init, "rates": market.rates, "scenarios": market.scenarios}
        parts[field] = value
        with pytest.raises(MarketModelError, match=f"^{re.escape(message)}$"):
            MarketSpec(d=market.d, N=market.N, **parts)

    def test_lambdas_need_a_diagonal_model(self):
        with pytest.raises(MarketModelError, match="^model is not diagonal$"):
            general_market()[0].lambdas

    def test_uniform_rate_needs_one_rate(self):
        market = crr2()
        varying = MarketSpec(d=1, N=1, s_init=market.s_init, rates=[0.0, 0.01],
                             scenarios=market.scenarios)
        assert market.uniform_rate() == 0.0
        with pytest.raises(MarketModelError, match="^rates are not uniform$"):
            varying.uniform_rate()


class TestFindEMM:
    def test_symmetric(self):
        wq = find_emm(crr1())
        assert np.allclose(wq.steps[0].p, [0.5, 0.5])

    def test_asymmetric(self):
        market = crr_market(100.0, 0.2, -0.1, 0.0, 1)
        wq = find_emm(market)
        assert np.allclose(wq.steps[0].p, [1.0 / 3.0, 2.0 / 3.0])

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
        wq = find_emm(market)
        assert np.max(np.abs(wq.steps[0].p - q)) < 1e-12

    def test_extreme_return_gets_its_walk(self):
        """A return near 1e30 gives a weight near 1e-30, which the completion survives."""
        wq = find_emm(crr_market(100.0, 1e30, -0.5, 0.0, 2))
        assert wq.steps[0].p[0] == pytest.approx(5e-31, rel=1e-12)
        assert validate(wq).passed

    def test_d2_fixture_probabilities(self):
        wq = find_emm(d2_market())
        q = np.stack([step.p for step in wq.steps])
        assert np.max(np.abs(q - [0.25, 0.25, 0.5])) < 1e-12


class TestEmmWalk:
    def test_symmetric_gives_bernoulli(self):
        walk = find_emm(crr1())
        assert np.allclose(walk.steps[0].v.ravel(), [1.0, -1.0])

    def test_asymmetric_closed_form(self):
        market = crr_market(100.0, 0.2, -0.1, 0.0, 1)
        walk = find_emm(market)
        assert walk.steps[0].v[0, 0] == pytest.approx(SQ2, abs=1e-12)
        assert walk.steps[0].v[1, 0] == pytest.approx(-1.0 / SQ2, abs=1e-12)

    def test_d2_gives_fixture_walk(self):
        market = d2_market()
        walk = find_emm(market)
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
        beta, gamma = strategy.positions.at(0)[:, 0], strategy.positions.at(0)[:, 1:]
        assert np.allclose(gamma[:, 0], 0.5, atol=1e-10)
        assert np.allclose(beta, -45.0, atol=1e-8)
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
        values, v_init = oracle_strategy_values(market, strategy)
        assert v_init == pytest.approx(5.25, abs=1e-10)
        assert values[0][0] == pytest.approx(10.5, abs=1e-10)  # up atom
        assert values[0][-1] == pytest.approx(0.0, abs=1e-10)  # down atom
        assert strategy.positions.at(1)[0, 1] == pytest.approx(21.0 / 22.0, abs=1e-10)

    def test_replicates_terminal_claim(self):
        market = d2_market()
        claim = eval_payoff(
            parse_payoff("max(0.5*(S(1)+S(2))-100,0)", market.d, market.N), market
        )
        strategy = hedge_replicate(market, find_emm(market), claim)
        values, _ = oracle_strategy_values(market, strategy)
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
        beta, gamma = strategy.positions.at(0)[:, 0], strategy.positions.at(0)[:, 1:]
        assert np.allclose(gamma[:, 0], 0.5, atol=1e-10)
        assert np.allclose(beta, -45.0, atol=1e-8)

    def test_cash_claim_has_no_shares(self):
        market = crr2()
        claim = PathTable.constant(market.space, 3.0)
        strategy = hedge_clark_ocone(market, find_emm(market), claim)
        assert np.max(np.abs(strategy.gamma)) < 1e-12

    def test_matches_replication_two_period(self):
        market = crr2()
        wq = find_emm(market)
        claim = call(market)
        a = hedge_replicate(market, wq, claim)
        b = hedge_clark_ocone(market, wq, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_matches_replication_d2_basket(self):
        market = d2_market()
        wq = find_emm(market)
        claim = eval_payoff(
            parse_payoff("max(0.5*(S(1)+S(2))-100,0)", market.d, market.N), market
        )
        a = hedge_replicate(market, wq, claim)
        b = hedge_clark_ocone(market, wq, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_matches_replication_nonzero_rate(self):
        market = crr_market(100.0, 0.1, -0.1, 0.02, 2)
        wq = find_emm(market)
        claim = call(market)
        a = hedge_replicate(market, wq, claim)
        b = hedge_clark_ocone(market, wq, claim)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_bond_position_must_be_predictable(self):
        """Outcome vectors twice the obtuse ones keep the hedge ratios scenario-free,
        but the bond position they imply differs across the scenarios of an atom."""
        market = crr2()
        wq = find_emm(market)
        doubled = WalkSpec(wq.d, wq.N, tuple(StepLaw(s.p, 2.0 * s.v) for s in wq.steps))
        with pytest.raises(
            HedgeFormulaError,
            match=r"^bond position at step 0 is not predictable \(defect \d\.\d{3}e[+-]\d+\); "
            r"use hedge_replicate$",
        ):
            hedge_clark_ocone(market, doubled, call(market))

    @pytest.mark.parametrize("periods", [3, 4])
    def test_first_failing_step_names_itself(self, periods):
        """With outcome vectors doubled from step 1 on, step 0 passes and the
        later steps fail. The error names step 1 with its own defect, as the
        step-by-step oracle does; step 2's defect, read from a walk doubled
        from step 2 on, is larger, so a verdict over several steps would show.
        At 4 periods steps 1 and 2 are checked in one block."""
        market = crr_market(100.0, 0.1, -0.1, 0.0, periods)
        wq, claim = find_emm(market), call(market)

        def doubled(first):
            steps = [StepLaw(s.p, 2.0 * s.v if k >= first else s.v) for k, s in enumerate(wq.steps)]
            return WalkSpec(wq.d, wq.N, tuple(steps))

        messages = {}
        for first in (1, 2):
            for hedge in (hedge_clark_ocone, oracle_hedge_clark_ocone):
                with pytest.raises(HedgeFormulaError) as exc:
                    hedge(market, doubled(first), claim)
                messages[hedge, first] = str(exc.value)
            assert messages[hedge_clark_ocone, first] == messages[oracle_hedge_clark_ocone, first]
        pattern = r"bond position at step {} is not predictable \(defect (\S+)\); use hedge_replicate"
        step_one = re.fullmatch(pattern.format(1), messages[hedge_clark_ocone, 1])
        step_two = re.fullmatch(pattern.format(2), messages[hedge_clark_ocone, 2])
        assert step_one and step_two
        assert float(step_two[1]) > float(step_one[1])

    @pytest.mark.parametrize("size", [1e9, 1e12])
    def test_large_claim_hedges(self, size):
        """All shares and no bond: the bond check's tolerance grows with the two
        terms of the bond position, and the verify bound with the claim, so the
        size of the claim refuses neither."""
        market = crr_market(100.0, 0.1, -0.1, 0.0, 3)
        wq = find_emm(market)
        claim = eval_payoff(parse_payoff(f"{size!r}*S(1)", market.d, market.N), market)
        strategy = hedge_clark_ocone(market, wq, claim)
        assert verify_strategy(market, strategy, claim).passed
        replicated = hedge_replicate(market, wq, claim)
        assert np.max(np.abs(strategy.gamma - replicated.gamma)) <= 1e-12 * size

    @pytest.mark.parametrize("size", [1.0, 1e12])
    def test_scenario_dependent_ratio_is_refused_at_any_size(self, size):
        scenarios = d2_market().scenarios.copy()
        scenarios[1, 0, 1, 1] += 0.01  # asset 2's step-1 returns no longer load on the walk
        market = MarketSpec(
            d=2, N=1, s_init=np.array([100.0, 100.0]), rates=np.zeros(2), scenarios=scenarios
        )
        claim = eval_payoff(parse_payoff(f"{size!r}*max(S(1)-S(2),0)", 2, 1), market)
        with pytest.raises(HedgeFormulaError, match="asset 2 at step 1 is scenario-dependent"):
            hedge_clark_ocone(market, find_emm(market), claim)

    @pytest.mark.parametrize("size", [1.0, 1e12])
    def test_unpredictable_bond_is_refused_at_any_size(self, size):
        market = crr2()
        wq = find_emm(market)
        doubled = WalkSpec(wq.d, wq.N, tuple(StepLaw(s.p, 2.0 * s.v) for s in wq.steps))
        claim = PathTable(market.space, size * call(market).values)
        with pytest.raises(HedgeFormulaError, match="bond position at step 0 is not predictable"):
            hedge_clark_ocone(market, doubled, claim)

    def test_non_diagonal_rejected(self):
        market, _ = general_market()
        claim = PathTable.constant(market.space, 1.0)
        with pytest.raises(HedgeFormulaError, match="hedge_replicate"):
            hedge_clark_ocone(market, find_emm(market), claim)


@pytest.mark.parametrize("hedge", [hedge_replicate, hedge_clark_ocone])
def test_hedges_reject_a_non_finite_claim(hedge):
    market = crr_market(100.0, 0.1, -0.1, 0.0, 3)
    values = np.ones(market.space.num_paths)
    values[3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^claim is inf at path 3 = \(0, 1, 1\)$"):
            hedge(market, find_emm(market), PathTable(market.space, values))


def test_price_rejects_a_non_finite_claim():
    market = crr_market(100.0, 0.1, -0.1, 0.0, 3)
    values = np.ones(market.space.num_paths)
    values[3] = np.inf
    with pytest.raises(ValueError, match=r"^claim is inf at path 3 = \(0, 1, 1\)$"):
        price_claim(market, find_emm(market), PathTable(market.space, values))


@pytest.mark.parametrize("hedge", [hedge_replicate, hedge_clark_ocone])
def test_hedges_check_the_claim_once(hedge, monkeypatch):
    checked = []
    check = market_mod._check_claim
    monkeypatch.setattr(market_mod, "_check_claim", lambda m, c: checked.append(c) or check(m, c))
    market = crr2()
    hedge(market, find_emm(market), call(market))
    assert len(checked) == 1


class TestVerifyStrategy:
    def test_hedge_passes_all_checks(self):
        market = crr2()
        wq = find_emm(market)
        claim = call(market)
        report = verify_strategy(market, hedge_replicate(market, wq, claim), claim)
        assert report.passed
        assert report.replication < 1e-8
        assert report.self_financing < 1e-8
        assert report.decomposition is not None and report.decomposition < 1e-8

    def test_perturbed_gamma_fails(self):
        market = crr2()
        wq = find_emm(market)
        claim = call(market)
        strategy = hedge_replicate(market, wq, claim)
        beta, gamma = strategy_paths(strategy)
        bad_gamma = gamma.copy()
        bad_gamma[0] += 0.1
        bad = path_strategy(
            strategy.space,
            beta,
            bad_gamma,
            beta_init=strategy.beta_init,
        )
        report = verify_strategy(market, bad, claim)
        assert not report.passed
        assert max(report.self_financing, report.replication) > 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_at_a_middle_step_fail(self, bad):
        market = crr_market(100.0, 0.09, -0.07, 0.01, 4)
        wq = find_emm(market)
        claim = call(market)
        strategy = hedge_replicate(market, wq, claim)
        rows = strategy.positions.rows.copy()
        rows[strategy.positions._start(2)] = bad  # one atom's position at step 2
        broken = Strategy(PredictableProcess(market.space, rows), strategy.beta_init)
        report = verify_strategy(market, broken, claim)
        assert report.passed is False
        # a NaN at one step stays NaN in the running maximum over the steps
        residuals = [report.telescoping, report.discounted_increment, report.decomposition]
        assert np.isnan(residuals).all()
        assert not np.isfinite(report.self_financing)
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = oracle_verify_strategy(market, broken, claim)
        assert np.isnan([oracle.telescoping, oracle.discounted_increment, oracle.decomposition]).all()
        assert not oracle.passed

    def test_all_cash_strategy_for_cash_claim(self):
        market = crr2()
        claim = PathTable.constant(market.space, 4.0)
        space = market.space
        strategy = path_strategy(
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
        wq = find_emm(market)
        prices, bond = oracle_prices(market), market.bond
        for n in range(market.N):
            for j in range(market.d):
                nxt = PathTable(market.space, prices[n + 1][:, j] / bond[n + 1])
                now = prices[n][:, j] / bond[n]
                projected = conditional_expectation(wq, nxt, n)
                assert np.max(np.abs(projected.values - now)) < 1e-9

    def test_replication_values_match_conditional_prices(self):
        market = crr2()
        wq = find_emm(market)
        claim = call(market)
        strategy = hedge_replicate(market, wq, claim)
        values, _ = oracle_strategy_values(market, strategy)
        bond = market.bond
        for n in range(market.N + 1):
            target = (
                bond[n] / bond[market.N]
            ) * conditional_expectation(wq, claim, n).values
            assert np.max(np.abs(values[n] - target)) < 1e-9

    def test_one_period_completeness_criterion(self):
        # the risk-neutral system matrix and the augmented price vectors agree on singularity
        for market, singular in [
            (crr1(), False),
            (general_market()[0], False),
            (crr_market(100.0, 0.1, 0.1, 0.1, 1), True),
        ]:
            prices = oracle_prices(market)
            emm_mat = np.empty((market.d + 1, market.d + 1))
            for i in range(market.d + 1):
                emm_mat[: market.d, i] = market.scenarios[0, i] @ market.s_init
            emm_mat[market.d] = 1.0
            stride = market.space.atom_size(0)
            augmented = np.empty((market.d + 1, market.d + 1))
            for i in range(market.d + 1):
                augmented[: market.d, i] = prices[0][i * stride]
            augmented[market.d] = 1.0
            emm_singular = abs(np.linalg.det(emm_mat)) < 1e-9
            aug_singular = abs(np.linalg.det(augmented)) < 1e-9
            assert emm_singular == aug_singular == singular

    def test_put_call_parity_at_zero_rate(self):
        market = crr2()
        wq = find_emm(market)
        strike = 95.0
        call_claim = eval_payoff(
            parse_payoff(f"max(S(1)-{strike},0)", 1, market.N), market
        )
        put_claim = eval_payoff(
            parse_payoff(f"max({strike}-S(1),0)", 1, market.N), market
        )
        lhs = price_claim(market, wq, call_claim) - price_claim(market, wq, put_claim)
        assert lhs == pytest.approx(100.0 - strike, abs=1e-9)
