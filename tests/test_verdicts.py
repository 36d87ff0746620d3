"""Every verdict is scale-free: one relative rule (omega._negligible) judges each defect.

A defect passes iff it is at most eps times the largest |entry| of what it
judges, with no absolute floor. Scaling an input by a power of two is exact,
so each verdict below must read the same at 2^-40, 2^0 and 2^30.
"""
import numpy as np
import pytest

from obtusewalk import (
    MarketSpec,
    PathTable,
    PredictabilityError,
    PredictableProcess,
    Strategy,
    VectorProcess,
    conditional_expectation,
    crr_market,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    integrate_predictable,
    is_measurable,
    predictable_representation,
    verify_strategy,
)
from obtusewalk.market import HedgeFormulaError
from obtusewalk.omega import _negligible
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2, random_predictable, random_process, random_table, random_walk

#: the scales every verdict is read at, and their test ids
SCALES = pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**30], ids=["2^-40", "2^0", "2^30"])


class TestRule:
    def test_relative_to_the_largest_entry(self):
        assert _negligible(1.0, 0.5, np.array([-2.0, 1.0]))
        assert not _negligible(1.0, 0.5, np.array([1.5]), np.array([-1.0]))
        assert _negligible(1.0, 0.5, np.array([1.5]), np.array([-2.0]))

    def test_no_absolute_floor(self):
        assert _negligible(0.0, 1e-10, np.zeros(3))
        assert not _negligible(1e-300, 1e-10, np.zeros(3))
        assert not _negligible(2.0**-80, 1e-10, np.full(3, 2.0**-60))

    @pytest.mark.parametrize("defect", [np.nan, np.inf])
    def test_non_finite_defect_fails(self, defect):
        assert not _negligible(defect, 1e-10, np.array([np.inf]))

    def test_nan_entries_aside(self):
        assert _negligible(1.0, 0.5, np.array([2.0, np.nan]))
        assert not _negligible(1.0, 0.5, np.array([1.0, np.nan]))
        assert _negligible(0.0, 0.5, np.array([np.nan]))


@SCALES
class TestScaleFree:
    def test_random_table_is_not_measurable(self, rng, scale):
        walk = random_walk(rng, 2, 3)
        table = random_table(rng, walk.space) * scale
        assert [is_measurable(table, n) for n in range(-1, walk.N + 1)] == [False] * 4 + [True]

    def test_conditional_expectation_is_measurable(self, rng, scale):
        walk = random_walk(rng, 2, 3)
        table = PathTable(walk.space, rng.uniform(0.0, 1.0, walk.space.num_paths) * scale)
        for n in range(-1, walk.N + 1):
            cond = conditional_expectation(walk, table, n)
            assert is_measurable(cond, n)
            # rounding-sized noise relative to the entries is no defect
            noise = 1.0 + rng.uniform(-1e-14, 1e-14, walk.space.num_paths)
            assert is_measurable(cond * noise, n)

    def test_random_process_is_refused(self, rng, scale):
        walk = random_walk(rng, 2, 3)
        process = random_process(rng, walk)
        scaled = VectorProcess(walk.space, process.values * scale)
        with pytest.raises(PredictabilityError, match="^process is not predictable"):
            integrate_predictable(walk, scaled)

    def test_predictable_process_integrates(self, rng, scale):
        walk = random_walk(rng, 2, 3)
        values = random_predictable(rng, walk).values
        noise = 1.0 + rng.uniform(-1e-14, 1e-14, values.shape)
        want = integrate_predictable(walk, VectorProcess(walk.space, values)).values * scale
        assert np.array_equal(
            integrate_predictable(walk, VectorProcess(walk.space, values * scale)).values, want
        )
        near = integrate_predictable(walk, VectorProcess(walk.space, values * noise * scale))
        assert np.max(np.abs(near.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_conditional_expectations_are_represented(self, rng, scale):
        walk = random_walk(rng, 2, 3)
        table = PathTable(walk.space, rng.uniform(0.0, 1.0, walk.space.num_paths))
        base = [conditional_expectation(walk, table, n) for n in range(walk.N + 1)]
        m_init, integrand = predictable_representation(walk, base)
        scaled = [conditional_expectation(walk, table * scale, n) for n in range(walk.N + 1)]
        s_init, s_integrand = predictable_representation(walk, scaled)
        assert s_init == m_init * scale
        assert np.array_equal(s_integrand.rows, integrand.rows * scale)

    @pytest.mark.parametrize("method", [hedge_replicate, hedge_clark_ocone])
    def test_verify_report_scales_with_the_market(self, scale, method):
        """Prices and claim scaled together: the same verdict, every residual scaled exactly."""

        def report(size):
            market = crr_market(100.0 * size, 0.1, -0.1, 0.0, 3)
            claim = eval_payoff(parse_payoff(f"max(S(1)-{100.0 * size!r},0)", 1, 2), market)
            return verify_strategy(market, method(market, find_emm(market), claim), claim)

        base, scaled = report(1.0), report(scale)
        assert base.passed and scaled.passed
        for name in ("predictability", "self_financing", "telescoping", "discounted_increment",
                     "decomposition", "replication", "value_initial"):
            assert getattr(scaled, name) == getattr(base, name) * scale, name

    def test_zero_strategy_fails(self, scale):
        market = crr_market(100.0 * scale, 0.1, -0.1, 0.0, 3)
        claim = eval_payoff(parse_payoff(f"max(S(1)-{100.0 * scale!r},0)", 1, 2), market)
        assert not verify_strategy(market, _zero_strategy(market), claim).passed


def _zero_strategy(market):
    steps = [np.zeros((market.space.atom_count(n - 1), market.d + 1)) for n in range(market.N + 1)]
    return Strategy(PredictableProcess.from_steps(market.space, steps), beta_init=0.0)


@pytest.mark.parametrize("size", [2.0**-40, 2.0**-20, 1.0], ids=["2^-40", "2^-20", "2^0"])
def test_scenario_dependent_ratio_is_refused_at_any_return_size(size):
    """Small returns do not hide an asset whose returns no longer load on the walk."""
    v = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
    scenarios = np.zeros((2, 3, 2, 2))
    for i in range(3):
        scenarios[:, i] = np.diag(np.array([0.05, 0.08]) * v[i])
    scenarios[1, 0, 1, 1] += 0.01
    market = MarketSpec(
        d=2, N=1, s_init=np.array([100.0, 100.0]), rates=np.zeros(2), scenarios=scenarios * size
    )
    claim = eval_payoff(parse_payoff("max(S(1)-S(2),0)", 2, 1), market)
    with pytest.raises(HedgeFormulaError, match="asset 2 at step 1 is scenario-dependent"):
        hedge_clark_ocone(market, find_emm(market), claim)


class TestTinyUnits:
    """A market quoted in 1e-13 units: a claim far below 1 is judged, not waved through."""

    MARKET = crr_market(1e-13, 0.1, -0.1, 0.0, 2)

    def claim(self):
        return eval_payoff(parse_payoff("max(S(1)-1e-13,0)", 1, 1), self.MARKET)

    def test_zero_strategy_fails(self):
        report = verify_strategy(self.MARKET, _zero_strategy(self.MARKET), self.claim())
        assert not report.passed
        assert report.replication > 0.0

    @pytest.mark.parametrize("method", [hedge_replicate, hedge_clark_ocone])
    def test_both_hedges_pass(self, method):
        claim = self.claim()
        strategy = method(self.MARKET, find_emm(self.MARKET), claim)
        assert verify_strategy(self.MARKET, strategy, claim).passed

    def test_zero_claim_needs_exact_zero_residuals(self):
        zero = PathTable.constant(self.MARKET.space, 0.0)
        for method in (hedge_replicate, hedge_clark_ocone):
            report = verify_strategy(self.MARKET, method(self.MARKET, find_emm(self.MARKET), zero), zero)
            assert report.passed and report.replication == 0.0
