"""Per-atom and per-path reference versions of the market engine.

`oracle_find_emm` and `oracle_hedge_replicate` are the one-system-at-a-time
loops that `find_emm` and `hedge_replicate` replace with per-row and
batched work. They check and solve every atom separately, in canonical
order, so the first failing atom raises. `oracle_prices` and `oracle_measure` build
the price and probability tables path by path from the outcome matrix,
where the library builds them level by level and prefix by prefix;
`_distinct` groups the atoms of a time by the bytes of their prices, and
`oracle_first_occurrence` numbers rows by first occurrence with a dict, as
the first-atom sweep should; `check_prices` holds `MarketSpec.prices` and
`MarketSpec.first_atoms` to both.
`oracle_hedge_clark_ocone` takes the path-wise gradient of the claim and
averages it back onto atoms, with the closed-form ratios computed one
(n, j) at a time by `oracle_hedge_ratios`, and
`oracle_verify_strategy` checks every identity on every path at every
step; the library works on the atoms of the filtration instead. The oracles
read prices path by path from `oracle_prices`, never from the price array
they check. The oracle hedges fill path-indexed arrays and hand them to
`path_strategy`, which goes through `PredictableProcess.from_paths`;
`strategy_paths` broadcasts a strategy back to paths,
and `oracle_strategy_values` gives its portfolio value along them. Tests
compare the engine against them byte for byte, or within rounding for the
closed-form hedge.
"""
import math

import numpy as np

from obtusewalk import (
    MarketSpec,
    PathTable,
    PredictableProcess,
    Strategy,
    WalkSpec,
    construct_obtuse,
)
from obtusewalk.malliavin import gradient
from obtusewalk.market import (
    _AGREE_LIMIT,
    _COND_LIMIT,
    ArbitrageError,
    HedgeFormulaError,
    IncompleteMarketError,
    StateDependentMeasureError,
    StrategyReport,
)
from obtusewalk.omega import _tree_offset, atom_deviation, expectation
from helpers import atom_average


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, by exact bytes."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0]
    return np.unique(keys, return_index=True)[1]


def oracle_first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows, by exact bytes, in order of first occurrence, with a dict.

    Returns the number of every row and the index of each number's first row.
    """
    width = rows.shape[1] * rows.itemsize
    buf = np.ascontiguousarray(rows).tobytes()
    seen: dict[bytes, int] = {}
    head = np.fromiter(
        (seen.setdefault(buf[i * width : (i + 1) * width], i) for i in range(len(rows))),
        dtype=np.intp,
        count=len(rows),
    )
    first = np.flatnonzero(head == np.arange(len(rows)))
    number = np.empty(len(rows), dtype=np.intp)
    number[first] = np.arange(len(first))
    return number[head], first


def check_prices(market: MarketSpec) -> None:
    """Assert that `market.prices` equals `oracle_prices` byte for byte at every
    level, and that `market.first_atoms` lists each level's first occurrences as
    the dict finds them."""
    want, d = oracle_prices(market), market.d
    assert market.prices[0].tobytes() == market.s_init.tobytes()
    assert len(market.first_atoms) == market.N + 1 and market.first_atoms[0].tolist() == [0]
    for n in range(market.N + 1):
        rows = want[n][:: market.space.atom_size(n)]  # one row per atom of F_n
        start = _tree_offset(d, n)
        assert market.prices[start : _tree_offset(d, n + 1)].tobytes() == rows.tobytes()
        if n < market.N:
            first = market.first_atoms[n + 1] - start
            assert np.array_equal(first, oracle_first_occurrence(rows)[1])


def oracle_hedge_ratios(market: MarketSpec, wq: WalkSpec, rate: float) -> np.ndarray:
    """(N+1, d) closed-form hedge ratios, one (n, j) at a time; the first failing raises."""
    lam = market.lambdas  # (N+1, d+1, d)
    ratio_const = np.empty((market.N + 1, market.d))
    for n in range(market.N + 1):
        v = wq.steps[n].v  # (d+1, d)
        for j in range(market.d):
            excess = lam[n, :, j] - rate  # (d+1,)
            cross = np.abs(
                v[:, j][:, None] * excess[None, :] - v[:, j][None, :] * excess[:, None]
            )
            scale = float(np.max(np.abs(v[:, j]))) * float(np.max(np.abs(excess)))
            if float(np.max(cross)) > 1e-9 * scale or np.all(excess == 0.0):
                raise HedgeFormulaError(
                    f"hedge ratio for asset {j + 1} at step {n} is scenario-dependent; "
                    "use hedge_replicate"
                )
            i_star = int(np.argmax(np.abs(excess)))
            ratio_const[n, j] = v[i_star, j] / excess[i_star]
    return ratio_const


def _prev_prices(market: MarketSpec, prices: np.ndarray, n: int) -> np.ndarray:
    """(num_paths, d) prices S_{n-1} before step n; S_{-1} is the initial vector."""
    if n == 0:
        return np.broadcast_to(market.s_init, (market.space.num_paths, market.d))
    return prices[n - 1]


def strategy_paths(strategy: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """(N+1, num_paths) bond units and (N+1, num_paths, d) share counts, per path."""
    positions = strategy.positions.on_paths()
    return positions[..., 0], positions[..., 1:]


def path_strategy(space, beta, gamma, beta_init=0.0) -> Strategy:
    """Strategy from (N+1, num_paths) bond units and (N+1, num_paths, d) share counts."""
    positions = np.concatenate([np.asarray(beta)[..., None], gamma], axis=2)
    return Strategy(PredictableProcess.from_paths(space, positions), beta_init)


def oracle_strategy_values(market: MarketSpec, strategy: Strategy) -> tuple[np.ndarray, float]:
    """(N+1, num_paths) post-rebalance values V_n = beta_n B_n + <gamma_n, S_n>, and V_{-1}."""
    beta, gamma = strategy_paths(strategy)
    prices = oracle_prices(market)
    values = np.stack([
        beta[n] * market.bond[n] + np.einsum("pj,pj->p", gamma[n], prices[n])
        for n in range(market.N + 1)
    ])
    return values, float(strategy.beta_init)


def oracle_prices(market: MarketSpec) -> np.ndarray:
    """(N+1, num_paths, d) prices S_n, one growth matrix product per path and step."""
    space = market.space
    growth = np.eye(market.d)[None, None] + market.scenarios
    values = np.empty((market.N + 1, space.num_paths, market.d))
    current = np.broadcast_to(market.s_init, (space.num_paths, market.d))
    for n in range(market.N + 1):
        mats = growth[n][space.outcomes[:, n]]  # (P, d, d)
        current = np.einsum("pij,pj->pi", mats, current)
        values[n] = current
    return values


def oracle_measure(walk: WalkSpec) -> np.ndarray:
    """(num_paths,) path probabilities, multiplied in step by step along each path."""
    out = np.ones(walk.space.num_paths)
    for n, step in enumerate(walk.steps):
        out *= step.p[walk.space.outcomes[:, n]]
    return out


def _cond_scaled(mat: np.ndarray, axis: int) -> float:
    """Condition number of mat with each row (axis 1) or column (axis 0) times
    the power of two that puts its largest |entry| in [1, 2)."""
    scaled = mat.copy()
    for line in np.moveaxis(scaled, axis, -1):
        line[...] = np.ldexp(line, 1 - math.frexp(float(np.max(np.abs(line))))[1])
    return float(np.linalg.cond(scaled))


def oracle_find_emm(market: MarketSpec) -> WalkSpec:
    """Risk-neutral walk from one (d+1)x(d+1) solve per step and prior atom.

    A step of diagonal scenario matrices first refuses, as singular, an atom
    whose own system would have an all-zero or non-finite row; every atom
    then solves the system whose asset rows are scaled by the power of two
    that puts their largest return in [1, 2). Every system is conditioned
    with its rows scaled by powers of two.
    """
    prices = oracle_prices(market)
    space, d = market.space, market.d
    out = np.empty((market.N + 1, d + 1))
    for k in range(market.N + 1):
        diagonal = all(np.array_equal(m, np.diag(np.diag(m))) for m in market.scenarios[k])
        lams = np.array([np.diag(m) for m in market.scenarios[k]])
        unit = np.array([2.0 ** (1 - math.frexp(max(abs(lams[:, j])))[1]) for j in range(d)])
        q_step = None
        for a in range(space.atom_count(k - 1)):
            start = a * space.atom_size(k - 1)
            s_prev = market.s_init if k == 0 else prices[k - 1][start]
            if diagonal:
                with np.errstate(over="ignore", invalid="ignore"):
                    own = np.append(lams * s_prev, [market.rates[k] * s_prev], axis=0)
                if not (np.all(np.isfinite(own)) and np.all(s_prev != 0.0)):
                    raise IncompleteMarketError(
                        f"incomplete market: scenario system at step {k} is singular"
                    )
                s_prev = unit
            mat = np.empty((d + 1, d + 1))
            for i in range(d + 1):
                mat[:d, i] = market.scenarios[k, i] @ s_prev
            mat[d, :] = 1.0
            rhs = np.concatenate([market.rates[k] * s_prev, [1.0]])
            if not np.all(np.isfinite(mat)) or _cond_scaled(mat, 1) > _COND_LIMIT:
                raise IncompleteMarketError(
                    f"incomplete market: scenario system at step {k} is singular"
                )
            q = np.linalg.solve(mat, rhs)
            if np.any(q <= 0.0):
                raise ArbitrageError(
                    f"arbitrage: risk-neutral weights at step {k} are not strictly positive"
                )
            if q_step is None:
                q_step = q
            elif np.max(np.abs(q - q_step)) > _AGREE_LIMIT:
                raise StateDependentMeasureError(
                    f"state-dependent risk-neutral measure unsupported: "
                    f"step {k} weights differ across atoms"
                )
        out[k] = q_step
    return construct_obtuse(list(out), cap=market.cap)


def oracle_hedge_replicate(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> Strategy:
    """Backward replication with one (d+1)x(d+1) solve per step and prior atom,
    each conditioned with its columns scaled by powers of two."""
    space = market.space
    prices = oracle_prices(market)
    bond = market.bond
    values = np.empty((market.N + 1, space.num_paths))
    for n in range(market.N + 1):
        values[n] = (float(bond[n]) / float(bond[market.N])) * atom_average(
            wq, claim.values, n
        )
    v_init = expectation(wq, claim) / float(bond[market.N])

    beta = np.empty((market.N + 1, space.num_paths))
    gamma = np.empty((market.N + 1, space.num_paths, market.d))
    for n in range(market.N, -1, -1):
        block = space.atom_size(n - 1)
        sub = space.atom_size(n)
        for a in range(space.atom_count(n - 1)):
            start = a * block
            mat = np.empty((market.d + 1, market.d + 1))
            rhs = np.empty(market.d + 1)
            for i in range(market.d + 1):
                idx = start + i * sub
                mat[i, 0] = bond[n]
                mat[i, 1:] = prices[n][idx]
                rhs[i] = values[n][idx]
            if not np.all(np.isfinite(mat)) or _cond_scaled(mat, 0) > _COND_LIMIT:
                raise IncompleteMarketError(
                    f"incomplete market: replication system at step {n} is singular"
                )
            sol = np.linalg.solve(mat, rhs)
            beta[n][start : start + block] = sol[0]
            gamma[n][start : start + block] = sol[1:]
    return path_strategy(space, beta, gamma, beta_init=v_init)


def oracle_hedge_clark_ocone(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> Strategy:
    """Closed-form hedge from the path-wise gradient, conditioned path by path."""
    if claim.space != market.space:
        raise ValueError("claim is not defined on the market's path space")
    if not market.diagonal:
        raise HedgeFormulaError(
            "closed-form hedge needs diagonal scenario matrices; use hedge_replicate"
        )
    rate = market.uniform_rate()
    space = market.space
    prices = oracle_prices(market)
    ratio_const = oracle_hedge_ratios(market, wq, rate)
    grad = gradient(wq, claim)

    beta = np.empty((market.N + 1, space.num_paths))
    gamma = np.empty((market.N + 1, space.num_paths, market.d))
    for n in range(market.N + 1):
        xi = atom_average(wq, grad.values[n], n - 1)  # (P, d)
        s_prev = _prev_prices(market, prices, n)
        gamma[n] = (1.0 + rate) ** (n - market.N) * xi * ratio_const[n] / s_prev
        cond = atom_average(wq, claim.values, n)
        claim_part = (1.0 + rate) ** (-market.N - 1) * cond
        share_part = (1.0 + rate) ** (-n - 1) * np.einsum("pj,pj->p", gamma[n], prices[n])
        raw_beta = claim_part - share_part
        beta[n] = atom_average(wq, raw_beta, n - 1)
        defect = float(np.max(np.abs(raw_beta - beta[n])))
        size = max(float(np.max(np.abs(claim_part))), float(np.max(np.abs(share_part))))
        if defect > 1e-6 * size:
            raise HedgeFormulaError(
                f"bond position at step {n} is not predictable (defect {defect:.3e}); "
                "use hedge_replicate"
            )
    v_init = expectation(wq, claim) / float(market.bond[market.N])
    return path_strategy(space, beta, gamma, beta_init=v_init)


def oracle_verify_strategy(market: MarketSpec, strategy: Strategy, claim: PathTable) -> StrategyReport:
    """Every strategy identity evaluated on every path at every step.

    The running maxima go through np.maximum, so a NaN residual at any step
    stays NaN in the report. It passes iff no residual exceeds 1e-8 * max|F|.
    """
    if strategy.space != market.space or claim.space != market.space:
        raise ValueError("strategy and claim must live on the market's path space")
    space = market.space
    prices, bond = oracle_prices(market), market.bond
    beta, gamma = strategy_paths(strategy)
    values, v_init = oracle_strategy_values(market, strategy)

    # the defect from_paths measured, and the (zero) deviation of the broadcast rows
    predict = strategy.predictability_defect
    for n in range(market.N + 1):
        predict = max(predict, atom_deviation(beta[n], space, n - 1))
        predict = max(predict, atom_deviation(gamma[n], space, n - 1))

    # self-financing at n = -1..N-1: rebalancing at time n conserves value
    self_fin = 0.0
    beta_prev = np.full(space.num_paths, strategy.beta_init)
    gamma_prev = np.zeros((space.num_paths, market.d))  # no shares before time 0
    bond_prev = 1.0
    for n in range(market.N + 1):
        res = bond_prev * (beta[n] - beta_prev) + np.einsum(
            "pj,pj->p", _prev_prices(market, prices, n), gamma[n] - gamma_prev
        )
        self_fin = np.maximum(self_fin, np.max(np.abs(res)))
        beta_prev = beta[n]
        gamma_prev = gamma[n]
        bond_prev = float(bond[n])

    # telescoping: V_n = V_{-1} + sum_{k<=n} beta_k dB + <gamma_k, dS>
    telescoping = 0.0
    gains = np.full(space.num_paths, v_init)
    for n in range(market.N + 1):
        b_prev = 1.0 if n == 0 else float(bond[n - 1])
        gains = gains + beta[n] * (float(bond[n]) - b_prev) + np.einsum(
            "pj,pj->p", gamma[n], prices[n] - _prev_prices(market, prices, n)
        )
        telescoping = np.maximum(telescoping, np.max(np.abs(values[n] - gains)))

    # discounted increments: dV~_n = <gamma_{n+1}, dS~_n> for n = -1..N-1
    discounted = 0.0
    disc_prev = v_init
    s_bar_prev = np.broadcast_to(market.s_init, (space.num_paths, market.d))
    for n in range(market.N + 1):
        disc_val = values[n] / float(bond[n])
        s_bar = prices[n] / float(bond[n])
        res = disc_val - disc_prev - np.einsum(
            "pj,pj->p", gamma[n], s_bar - s_bar_prev
        )
        discounted = np.maximum(discounted, np.max(np.abs(res)))
        disc_prev = disc_val
        s_bar_prev = s_bar

    decomposition = None
    if market.diagonal and np.all(market.rates == market.rates[0]):
        rate = float(market.rates[0])
        lam = market.lambdas  # (N+1, d+1, d)
        decomposition = 0.0
        acc = np.zeros(space.num_paths)
        for n in range(market.N + 1):
            # scenario of step n along each path: blocks of atom_size(n) paths
            # cycling through the d+1 scenarios
            excess = np.tile(
                np.repeat(lam[n] - rate, space.atom_size(n), axis=0),
                (space.atom_count(n - 1), 1),
            )  # (P, d)
            acc = (1.0 + rate) * acc + np.einsum(
                "pj,pj->p", excess * gamma[n], _prev_prices(market, prices, n)
            )
            expected = (1.0 + rate) ** (n + 1) * v_init + acc
            decomposition = np.maximum(decomposition, np.max(np.abs(values[n] - expected)))

    replication = float(np.max(np.abs(values[market.N] - claim.values)))
    residuals = [predict, self_fin, telescoping, discounted, replication]
    if decomposition is not None:
        residuals.append(decomposition)
    bound = 1e-8 * float(np.max(np.abs(claim.values)))
    return StrategyReport(
        passed=all(res <= bound for res in residuals),
        predictability=predict,
        self_financing=float(self_fin),
        telescoping=float(telescoping),
        discounted_increment=float(discounted),
        decomposition=None if decomposition is None else float(decomposition),
        replication=replication,
        value_initial=v_init,
    )
