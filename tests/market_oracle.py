"""Per-atom and per-path reference versions of the market engine.

`oracle_find_emm` and `oracle_hedge_replicate` are the one-system-at-a-time
loops that `find_emm` and `hedge_replicate` replace with per-node and
batched work. They check and solve every atom separately, in canonical
order, so the first failing atom raises. `oracle_prices` and `oracle_measure` build
the price and probability tables path by path from the outcome matrix,
where the library builds them prefix by prefix. Tests compare the engine
against them byte for byte.
"""
import numpy as np

from obtusewalk import EMM, MarketSpec, PathTable, Strategy, WalkSpec, emm_walk
from obtusewalk.market import (
    _COND_LIMIT,
    ArbitrageError,
    IncompleteMarketError,
    StateDependentMeasureError,
)
from obtusewalk.omega import atom_average, expectation


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


def oracle_find_emm(market: MarketSpec, tol: float = 1e-9) -> EMM:
    """Risk-neutral weights from one (d+1)x(d+1) solve per step and prior atom."""
    prices = market.prices.values
    space = market.space
    out = np.empty((market.N + 1, market.d + 1))
    for k in range(market.N + 1):
        q_step = None
        for a in range(space.atom_count(k - 1)):
            start = a * space.atom_size(k - 1)
            s_prev = market.s_init if k == 0 else prices[k - 1][start]
            mat = np.empty((market.d + 1, market.d + 1))
            for i in range(market.d + 1):
                mat[: market.d, i] = market.scenarios[k, i] @ s_prev
            mat[market.d, :] = 1.0
            rhs = np.concatenate([market.rates[k] * s_prev, [1.0]])
            if np.linalg.cond(mat) > _COND_LIMIT:
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
            elif np.max(np.abs(q - q_step)) > tol:
                raise StateDependentMeasureError(
                    f"state-dependent EMM unsupported: step {k} weights differ across atoms"
                )
        out[k] = q_step
    return EMM(out)


def oracle_hedge_replicate(market: MarketSpec, emm: EMM, claim: PathTable) -> Strategy:
    """Backward replication with one (d+1)x(d+1) solve per step and prior atom."""
    space = market.space
    wq = emm_walk(market, emm)
    prices = market.prices.values
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
            if np.linalg.cond(mat) > _COND_LIMIT:
                raise IncompleteMarketError(
                    f"incomplete market: replication system at step {n} is singular"
                )
            sol = np.linalg.solve(mat, rhs)
            beta[n][start : start + block] = sol[0]
            gamma[n][start : start + block] = sol[1:]
    return Strategy(space, beta, gamma, beta_init=v_init, gamma_init=np.zeros(market.d))
