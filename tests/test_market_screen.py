"""The determinant screen in front of the condition-number SVD, the byte
dedupe of price rows and the vectorized closed-form hedge ratios, each against
its one-at-a-time reference."""
import warnings

import numpy as np
import pytest

from obtusewalk import (
    MarketSpec,
    construct_obtuse,
    crr_market,
    find_emm,
    hedge_replicate,
)
from obtusewalk.market import (
    _COND_LIMIT,
    HedgeFormulaError,
    _balanced,
    _first_rows,
    _hedge_ratios,
    _singular,
)
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2
from market_oracle import check_prices, oracle_first_occurrence, oracle_hedge_ratios

V = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])


def _reference(mats):
    """One `np.linalg.cond` per finite system; a non-finite system is singular."""
    return np.array(
        [not np.isfinite(m).all() or bool(np.linalg.cond(m) > _COND_LIMIT) for m in mats],
        dtype=bool,
    )


def _with_condition(rng, n, kappa):
    """n x n matrix with 2-norm condition number about kappa."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.geomspace(1.0, 1.0 / kappa, n)
    return (u * sigma) @ w.T


def _stack(rng, n):
    """Well-conditioned, near-limit, exactly singular, rescaled and non-finite systems."""
    well = [rng.standard_normal((n, n)) for _ in range(40)]
    near = [_with_condition(rng, n, 10 ** rng.uniform(9.0, 15.0)) for _ in range(200)]
    ranked = rng.integers(-3, 4, size=(20, n, n)).astype(float)
    ranked[:, -1] = ranked[:, 0]  # two equal rows
    exact = [*ranked, np.zeros((n, n)), np.ones((n, n))]
    scaled = [m * 10.0**e for m in well[:10] + near[:10] for e in (150, -150, 300, -300)]
    bad = rng.standard_normal((6, n, n))
    for m, value in zip(bad, (np.inf, -np.inf, np.nan, np.inf, np.nan, -np.inf)):
        m[rng.integers(n), rng.integers(n)] = value
    return np.array(well + near + exact + scaled + list(bad))


def _no_svd(*args, **kwargs):
    raise AssertionError("a system reached np.linalg.cond")


class TestSingularScreen:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_one_cond_per_system(self, rng, n):
        mats = _stack(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _singular(mats)
        want = _reference(mats)
        assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < want.sum() < len(want)  # both verdicts occur

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_screen_clears_well_conditioned_systems_without_svd(self, rng, monkeypatch, n):
        # the market workload's systems have condition numbers up to about 6e3
        mats = np.array([_with_condition(rng, n, 10 ** rng.uniform(0.0, 3.0)) for _ in range(50)])
        monkeypatch.setattr(np.linalg, "cond", _no_svd)
        assert not _singular(mats).any()

    def test_non_finite_systems_never_reach_svd(self, monkeypatch):
        mats = np.ones((3, 2, 2))
        mats[0, 0, 0], mats[1, 1, 0], mats[2, 0, 1] = np.inf, np.nan, -np.inf
        monkeypatch.setattr(np.linalg, "cond", _no_svd)
        assert _singular(mats).all()

    def test_empty_stack(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", _no_svd)
        got = _singular(np.zeros((0, 3, 3)))
        assert got.shape == (0,) and got.dtype == bool


class TestBalanced:
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_lines_peak_in_one_two_and_ignore_powers_of_two(self, rng, axis):
        mats = rng.standard_normal((30, 3, 3)) * 10.0 ** rng.integers(-250, 250, size=(30, 1, 1))
        got = _balanced(mats, axis)
        peak = np.max(np.abs(got), axis=axis)
        assert np.all((1.0 <= peak) & (peak < 2.0))
        shift = rng.integers(-60, 60, size=(30, 3, 1) if axis == -1 else (30, 1, 3))
        assert np.array_equal(_balanced(np.ldexp(mats, shift), axis), got)
        assert np.array_equal(np.sign(got), np.sign(mats))

    def test_zero_and_non_finite_lines_stay(self):
        mats = np.array([[[0.0, 0.0], [np.inf, 1.0]], [[np.nan, 3.0], [5e-324, 0.0]]])
        got = _balanced(mats, -1)
        assert np.array_equal(got[0, 0], [0.0, 0.0]) and np.isinf(got[0, 1, 0])
        assert np.isnan(got[1, 0, 0]) and got[1, 1, 0] == 1.0


def _basket(periods):
    """The two-asset basket of scripts/hedge_demo.py over `periods` periods."""
    sig = np.array([0.05, 0.08])
    scenarios = np.zeros((periods, 3, 2, 2))
    for i in range(3):
        scenarios[:, i] = np.diag(sig * V[i])
    return MarketSpec(
        d=2, N=periods - 1, s_init=np.array([100.0, 100.0]), rates=np.zeros(periods),
        scenarios=scenarios,
    )


class TestWorkloadModelsSkipSvd:
    @pytest.mark.parametrize(
        "market, payoff",
        [
            (crr_market(100.0, 0.09, -0.07, 0.01, 15), "max(S(1)-100,0)"),
            (_basket(8), "max(0.5*(S(1)+S(2))-100,0)"),
        ],
        ids=["crr15", "basket8"],
    )
    def test_no_system_reaches_svd(self, monkeypatch, market, payoff):
        monkeypatch.setattr(np.linalg, "cond", _no_svd)
        wq = find_emm(market)
        claim = eval_payoff(parse_payoff(payoff, market.d, market.N), market)
        hedge_replicate(market, wq, claim)


def _rows(rng, count, d):
    """Rows drawn with repeats from a pool holding +-0.0, +-inf and NaN rows."""
    pool = rng.standard_normal((max(1, count // 4), d))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0])
    pool = np.concatenate([pool, special[rng.integers(len(special), size=(8, d))]])
    pool = np.concatenate([pool, np.full((1, d), 0.0), np.full((1, d), -0.0)])
    return pool[rng.integers(len(pool), size=count)]


class TestFirstOccurrence:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 7, 200, 1200])
    def test_equals_dict_numbering(self, rng, d, count):
        rows = _rows(rng, count, d)
        first = _first_rows(rows)
        assert np.array_equal(first, oracle_first_occurrence(rows)[1])
        assert first.dtype == np.intp

    def test_signed_zero_and_nan_rows_stay_apart(self):
        rows = np.array([[0.0], [-0.0], [np.nan], [0.0], [-np.nan], [np.nan], [-0.0]])
        assert _first_rows(rows).tolist() == [0, 1, 2, 4]

    def test_overflowing_lattice_numbers_as_the_dict(self, monkeypatch):
        """0 * inf in an overflowing basket gives NaN price rows; the first-atom
        sweep dedupes them as the dict does, and the prices equal the path oracle's."""
        seen = []

        def checked(rows):
            got = _first_rows(rows)
            seen.append(bool(np.isnan(rows).any()))
            assert np.array_equal(got, oracle_first_occurrence(rows)[1])
            return got

        monkeypatch.setattr("obtusewalk.market._first_rows", checked)
        lam = np.array([[1e200, 0.5], [-0.5, 0.2], [0.1, -0.5]])
        market = MarketSpec(
            d=2, N=3, s_init=np.array([1e200, 1.0]), rates=np.zeros(4),
            scenarios=np.array([[np.diag(row) for row in lam]] * 4),
        )
        check_prices(market)
        assert any(seen) and len(seen) == market.N
        assert np.isnan(market.prices).any() and np.isinf(market.prices).any()


class TestHedgeRatios:
    def test_equal_to_loop_bit_for_bit(self, rng):
        outcomes = {"ratios": 0, "raised": 0}
        for _ in range(300):
            d, N = int(rng.integers(1, 4)), int(rng.integers(0, 5))
            q = rng.dirichlet(np.ones(d + 1), size=N + 1) * 0.5 + 0.5 / (d + 1)
            rate = float(rng.uniform(-0.02, 0.05))
            market = _diagonal_market(rng, d, N, rate, q)
            wq = construct_obtuse(list(q), cap=market.cap)
            try:
                want = oracle_hedge_ratios(market, wq, rate)
            except HedgeFormulaError as exc:
                with pytest.raises(HedgeFormulaError) as got:
                    _hedge_ratios(market, wq, rate)
                assert str(got.value) == str(exc)
                outcomes["raised"] += 1
            else:
                assert _hedge_ratios(market, wq, rate).tobytes() == want.tobytes()
                outcomes["ratios"] += 1
        assert min(outcomes.values()) > 50


def _diagonal_market(rng, d, N, rate, q):
    """Diagonal returns proportional to the walk's increments, except a few (n, j) columns
    that are scenario-dependent or equal to the rate."""
    v = np.stack([step.v for step in construct_obtuse(list(q)).steps])
    lam = rate + rng.uniform(0.01, 0.1, size=(N + 1, 1, d)) * v
    kind = rng.choice(3, size=(N + 1, d), p=[0.9, 0.05, 0.05])
    for n, j in np.argwhere(kind == 1):
        lam[n, :, j] += rng.uniform(-0.05, 0.05, size=d + 1)
    for n, j in np.argwhere(kind == 2):
        lam[n, :, j] = rate
    scenarios = np.zeros((N + 1, d + 1, d, d))
    idx = np.arange(d)
    scenarios[:, :, idx, idx] = lam
    return MarketSpec(d=d, N=N, s_init=np.full(d, 100.0), rates=np.full(N + 1, rate),
                      scenarios=scenarios)

