"""Multi-period complete market model: pricing, replication, hedging.

Scenario i at step k multiplies the risky price vector by (I + M_k^i);
the bond grows by 1 + r_k. With d+1 scenarios per step and the stacked
scenario matrix invertible the market is complete: the risk-neutral
probabilities solve a (d+1)x(d+1) linear system per step and prior atom,
every claim is priced by discounted expectation, and the hedge is
recovered either by backward replication or through the
predictable-representation formula on the driving walk.

The price paths are computed once per MarketSpec (its `prices` property),
one step at a time on the (atoms, d) prices of the prefix atoms and then
repeated out to path resolution; every routine here reads them from there.
The risk-neutral walk is likewise built once per EMM (see `emm_walk`).
Both the risk-neutral and the replication systems of one step depend only
on prices, and recombining models repeat the same prices at many atoms. So
each step's systems are grouped by the exact bytes of their prices: every
distinct system (node) is conditioned, and every distinct risk-neutral
system solved, once; the replication systems are solved by one batched
call. The per-atom checks still apply atom by atom, and the first failing
atom in canonical order decides the error: a node's first occurrence is
its earliest atom. A step whose systems are all distinct gains nothing and
pays one extra sort, about a quarter of the cost of its condition numbers.
The one-atom-at-a-time loop survives only as the test suite's oracle.

Every adapted quantity is computed on the atoms of the filtration, one row
per atom: an atom of F_n is a contiguous block of atom_size(n) paths, and
its d+1 sub-atoms of F_{n+1} follow it scenario by scenario. Both hedges
read the claim only through its conditional means on the atoms of F_n
(`omega.atom_means`); neither builds the path-wise gradient. Strategies
keep their path-indexed form, repeated out from the atoms, and
`verify_strategy` evaluates the identities once per atom of F_n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ObtuseWalkError, SizeCapError
from .integrals import VectorProcess
from .omega import (
    DEFAULT_CAP,
    PathSpace,
    PathTable,
    _frozen_float,
    atom_deviation,
    atom_means,
    expectation,
)
from .walk import WalkSpec, construct_obtuse

_COND_LIMIT = 1e12


class MarketModelError(ObtuseWalkError):
    """Structural defect in a market model."""


class IncompleteMarketError(MarketModelError):
    """The scenario system is singular: the market is incomplete."""


class ArbitrageError(MarketModelError):
    """No strictly positive risk-neutral solution: the model admits arbitrage."""


class StateDependentMeasureError(MarketModelError):
    """The per-step risk-neutral solution differs across atoms."""


class HedgeFormulaError(MarketModelError):
    """The closed-form hedge's assumptions fail; use hedge_replicate instead."""


def _check_market_size(d: int, N: int, cap: int) -> None:
    """Refuse a market whose (N+1, d+1, d, d) scenario array would exceed the cap."""
    entries = (N + 1) * (d + 1) * d * d
    if entries > cap:
        raise SizeCapError(
            f"market scenarios would need {entries} entries, above the cap of {cap}"
        )


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """d risky assets over trading times 0..N plus a deterministic bond."""

    d: int
    N: int
    s_init: np.ndarray  # (d,) strictly positive initial prices
    rates: np.ndarray  # (N+1,) per-step rates, each > -1
    scenarios: np.ndarray  # (N+1, d+1, d, d) matrices M_k^i
    cap: int = field(default=DEFAULT_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_market_size(self.d, self.N, self.cap)
        s_init = np.array(self.s_init, dtype=float)
        rates = np.array(self.rates, dtype=float)
        scenarios = np.array(self.scenarios, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in (s_init, rates, scenarios)):
            raise MarketModelError("initial prices, rates and scenarios must be finite")
        if s_init.shape != (self.d,):
            raise MarketModelError(f"initial prices have shape {s_init.shape}, expected ({self.d},)")
        if np.any(s_init <= 0.0):
            raise MarketModelError("initial prices must be strictly positive")
        if rates.shape != (self.N + 1,):
            raise MarketModelError(f"rates have shape {rates.shape}, expected ({self.N + 1},)")
        if np.any(rates <= -1.0):
            raise MarketModelError("every rate must exceed -1")
        expected = (self.N + 1, self.d + 1, self.d, self.d)
        if scenarios.shape != expected:
            raise MarketModelError(
                f"scenarios have shape {scenarios.shape}, expected {expected}"
            )
        growth = np.eye(self.d)[None, None] + scenarios
        if np.any(growth < 0.0):
            raise MarketModelError("I + M must have nonnegative entries in every scenario")
        for arr in (s_init, rates, scenarios):
            arr.setflags(write=False)
        object.__setattr__(self, "s_init", s_init)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "scenarios", scenarios)

    @cached_property
    def space(self) -> PathSpace:
        return PathSpace(self.d, self.N, self.cap)

    @cached_property
    def diagonal(self) -> bool:
        off = self.scenarios * (1.0 - np.eye(self.d))
        return bool(np.all(off == 0.0))

    @cached_property
    def lambdas(self) -> np.ndarray:
        """(N+1, d+1, d) diagonal returns lambda_k^{j,i} (diagonal models)."""
        if not self.diagonal:
            raise MarketModelError("model is not diagonal")
        return np.einsum("kijj->kij", self.scenarios)

    def uniform_rate(self) -> float:
        if np.any(self.rates != self.rates[0]):
            raise MarketModelError("rates are not uniform")
        return float(self.rates[0])

    @cached_property
    def bond(self) -> np.ndarray:
        """(N+1,) bond prices B_n; the initial value B_{-1} is one."""
        out = np.cumprod(1.0 + self.rates)
        out.setflags(write=False)
        return out

    @cached_property
    def prices(self) -> VectorProcess:
        """Price tables S_n along every path, built once per market."""
        space = self.space
        growth = np.eye(self.d)[None, None] + self.scenarios  # (N+1, d+1, d, d)
        values = np.empty((self.N + 1, space.num_paths, self.d))
        current = self.s_init[None]  # (atoms of F_{n-1}, d)
        for n in range(self.N + 1):
            # atom a of F_{n-1} followed by scenario k is atom a*(d+1)+k of F_n
            current = np.einsum("kij,aj->aki", growth[n], current).reshape(-1, self.d)
            values[n] = np.repeat(current, space.atom_size(n), axis=0)
        values.setflags(write=False)
        return VectorProcess(space, values)


@dataclass(frozen=True, eq=False)
class EMM:
    """Per-step risk-neutral scenario probabilities."""

    q: np.ndarray  # (N+1, d+1)

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Predictable portfolio: bond units beta_n and share counts gamma_n.

    Index n holds the position formed at time n-1 and carried into time n;
    beta_init/gamma_init are the deterministic values at index -1.
    """

    space: PathSpace
    beta: np.ndarray  # (N+1, num_paths)
    gamma: np.ndarray  # (N+1, num_paths, d)
    beta_init: float = 0.0
    gamma_init: np.ndarray | None = None

    def __post_init__(self) -> None:
        beta = _frozen_float(self.beta)
        gamma = _frozen_float(self.gamma)
        num, d = self.space.num_paths, self.space.d
        if beta.shape != (self.space.N + 1, num):
            raise ValueError(f"beta has shape {beta.shape}, expected ({self.space.N + 1}, {num})")
        if gamma.shape != (self.space.N + 1, num, d):
            raise ValueError(
                f"gamma has shape {gamma.shape}, expected ({self.space.N + 1}, {num}, {d})"
            )
        init = _frozen_float(np.zeros(d) if self.gamma_init is None else self.gamma_init)
        if init.shape != (d,):
            raise ValueError(f"gamma_init has shape {init.shape}, expected ({d},)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_init", init)


def build_prices(market: MarketSpec) -> tuple[VectorProcess, np.ndarray]:
    """Price tables S_n along every path and the deterministic bond curve."""
    return market.prices, market.bond.copy()


def _prev_prices(market: MarketSpec, n: int) -> np.ndarray:
    """(num_paths, d) prices S_{n-1} before step n; S_{-1} is the initial vector."""
    if n == 0:
        return np.broadcast_to(market.s_init, (market.space.num_paths, market.d))
    return market.prices.values[n - 1]


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, by exact bytes."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0]
    return np.unique(keys, return_index=True)[1]


def _leading_regular(mats: np.ndarray) -> int:
    """Number of leading systems in the stack before the first singular one."""
    first = _distinct(mats)
    singular = first[np.linalg.cond(mats[first]) > _COND_LIMIT]
    return int(singular.min()) if singular.size else len(mats)


def find_emm(market: MarketSpec, tol: float = 1e-9) -> EMM:
    """Solve the per-step martingale systems for the scenario probabilities.

    For each step the system  sum_i q_i M_k^i S_{k-1} = r_k S_{k-1}  plus
    normalization is solved on every prior atom; the solutions must be
    strictly positive and agree across atoms.
    """
    d = market.d
    out = np.empty((market.N + 1, d + 1))
    for k in range(market.N + 1):
        s_prev = _prev_prices(market, k)[:: market.space.atom_size(k - 1)]  # (atoms, d)
        first = _distinct(s_prev)  # earliest atom of each node
        s_node = s_prev[first]
        mats = np.ones((len(s_node), d + 1, d + 1))
        moved = np.matmul(market.scenarios[k][None], s_node[:, None, :, None])
        mats[:, :d, :] = moved[..., 0].transpose(0, 2, 1)  # column i: M_k^i S_{k-1}
        rhs = np.ones((len(s_node), d + 1, 1))
        rhs[:, :d, 0] = market.rates[k] * s_node
        singular = np.linalg.cond(mats) > _COND_LIMIT
        q = np.zeros((len(s_node), d + 1))
        q[~singular] = np.linalg.solve(mats[~singular], rhs[~singular])[..., 0]
        ref = np.argmin(first)  # the node of atom 0
        positive = np.all(q > 0.0, axis=1)
        agree = np.max(np.abs(q - q[ref]), axis=1) <= tol
        failing = singular | ~(positive & agree)
        if failing.any():
            node = np.flatnonzero(failing)[np.argmin(first[failing])]
            if singular[node]:
                raise IncompleteMarketError(
                    f"incomplete market: scenario system at step {k} is singular"
                )
            if not positive[node]:
                raise ArbitrageError(
                    f"arbitrage: risk-neutral weights at step {k} are not strictly positive"
                )
            raise StateDependentMeasureError(
                f"state-dependent EMM unsupported: step {k} weights differ across atoms"
            )
        out[k] = q[ref]
    return EMM(out)


def emm_walk(market: MarketSpec, emm: EMM) -> WalkSpec:
    """Normalized driving walk under the risk-neutral probabilities.

    Outcome i of the walk is identified with market scenario i. The walk is
    kept on the EMM and built again only for a market with another cap.
    """
    if emm.q.shape != (market.N + 1, market.d + 1):
        raise ValueError(
            f"EMM has shape {emm.q.shape}, expected ({market.N + 1}, {market.d + 1})"
        )
    walk = emm.__dict__.get("_walk")
    if walk is None or walk.cap != market.cap:
        walk = construct_obtuse(list(emm.q), cap=market.cap)
        object.__setattr__(emm, "_walk", walk)
    return walk


def price_claim(market: MarketSpec, emm: EMM, claim: PathTable) -> float:
    """Initial price: discounted risk-neutral expectation of the claim."""
    wq = emm_walk(market, emm)
    return expectation(wq, claim) / float(market.bond[market.N])


def hedge_replicate(market: MarketSpec, emm: EMM, claim: PathTable) -> Strategy:
    """Backward atom-wise replication of the claim.

    At each time and prior atom, the bond row and the d+1 scenario prices
    determine the portfolio matching the replication values in every
    scenario; the resulting strategy is predictable and self-financing.
    """
    if claim.space != market.space:
        raise ValueError("claim is not defined on the market's path space")
    space = market.space
    wq = emm_walk(market, emm)
    prices = market.prices.values
    bond = market.bond

    beta = np.empty((market.N + 1, space.num_paths))
    gamma = np.empty((market.N + 1, space.num_paths, market.d))
    for n in range(market.N, -1, -1):
        # row i of atom a of F_{n-1} is atom a*(d+1)+i of F_n: a followed by scenario i
        shape = (space.atom_count(n - 1), market.d + 1)
        mats = np.empty(shape + (market.d + 1,))
        mats[:, :, 0] = bond[n]
        mats[:, :, 1:] = prices[n][:: space.atom_size(n)].reshape(*shape, market.d)
        if _leading_regular(mats) < len(mats):
            raise IncompleteMarketError(
                f"incomplete market: replication system at step {n} is singular"
            )
        # replication values V_n = B_n / B_N E_Q[F | F_n] on the atoms of F_n
        values = (float(bond[n]) / float(bond[market.N])) * atom_means(wq, claim.values, n)
        sol = np.linalg.solve(mats, values.reshape(shape)[..., None])[..., 0]
        block = space.atom_size(n - 1)
        beta[n] = np.repeat(sol[:, 0], block)
        gamma[n] = np.repeat(sol[:, 1:], block, axis=0)
    v_init = expectation(wq, claim) / float(bond[market.N])
    beta.setflags(write=False)
    gamma.setflags(write=False)
    return Strategy(space, beta, gamma, beta_init=v_init, gamma_init=np.zeros(market.d))


def _hedge_ratios(market: MarketSpec, wq: WalkSpec, rate: float) -> np.ndarray:
    """(N+1, d) ratios v_i^j / (lambda^{j,i} - r), which must not depend on i."""
    lam = market.lambdas  # (N+1, d+1, d)
    ratio_const = np.empty((market.N + 1, market.d))
    for n in range(market.N + 1):
        v = wq.steps[n].v  # (d+1, d)
        for j in range(market.d):
            excess = lam[n, :, j] - rate  # (d+1,)
            cross = np.abs(
                v[:, j][:, None] * excess[None, :] - v[:, j][None, :] * excess[:, None]
            )
            scale = max(1.0, float(np.max(np.abs(v[:, j]))) * float(np.max(np.abs(excess))))
            if float(np.max(cross)) > 1e-9 * scale or np.all(excess == 0.0):
                raise HedgeFormulaError(
                    f"hedge ratio for asset {j + 1} at step {n} is scenario-dependent; "
                    "use hedge_replicate"
                )
            i_star = int(np.argmax(np.abs(excess)))
            ratio_const[n, j] = v[i_star, j] / excess[i_star]
    return ratio_const


def hedge_clark_ocone(market: MarketSpec, emm: EMM, claim: PathTable) -> Strategy:
    """Closed-form hedge from the predictable representation of the claim.

    Restricted to diagonal scenario models with a uniform rate. The share
    count is xi_n = E[D_n F | F_{n-1}] under the risk-neutral walk, scaled by
    the predictable ratio of the walk increment to the excess price move; the
    ratio must be scenario-independent. On an atom of F_{n-1}, xi_n is the
    (d+1)-term sum  sum_i c_i(n) E[F | atom, w_n = i]  over its F_n atoms.
    """
    if claim.space != market.space:
        raise ValueError("claim is not defined on the market's path space")
    if not market.diagonal:
        raise HedgeFormulaError(
            "closed-form hedge needs diagonal scenario matrices; use hedge_replicate"
        )
    rate = market.uniform_rate()
    space = market.space
    wq = emm_walk(market, emm)
    prices = market.prices.values
    ratio_const = _hedge_ratios(market, wq, rate)

    beta = np.empty((market.N + 1, space.num_paths))
    gamma = np.empty((market.N + 1, space.num_paths, market.d))
    for n in range(market.N + 1):
        block = space.atom_size(n - 1)
        cond = atom_means(wq, claim.values, n)  # E_Q[F | F_n], one entry per atom
        xi = cond.reshape(-1, market.d + 1) @ wq.steps[n].c  # (atoms of F_{n-1}, d)
        gam = (
            (1.0 + rate) ** (n - market.N) * xi * ratio_const[n]
            / _prev_prices(market, n)[::block]
        )
        raw_beta = (1.0 + rate) ** (-market.N - 1) * cond - (1.0 + rate) ** (
            -n - 1
        ) * np.einsum(
            "aj,aj->a", np.repeat(gam, market.d + 1, axis=0), prices[n][:: space.atom_size(n)]
        )
        raw_beta = raw_beta.reshape(-1, market.d + 1)
        bet = (raw_beta * wq.steps[n].p).sum(axis=1)  # E_Q[raw | F_{n-1}]
        defect = float(np.max(np.abs(raw_beta - bet[:, None])))
        if defect > 1e-6 * max(1.0, float(np.max(np.abs(bet)))):
            raise HedgeFormulaError(
                f"bond position at step {n} is not predictable (defect {defect:.3e}); "
                "use hedge_replicate"
            )
        beta[n] = np.repeat(bet, block)
        gamma[n] = np.repeat(gam, block, axis=0)
    v_init = expectation(wq, claim) / float(market.bond[market.N])
    beta.setflags(write=False)
    gamma.setflags(write=False)
    return Strategy(space, beta, gamma, beta_init=v_init, gamma_init=np.zeros(market.d))


@dataclass(frozen=True)
class StrategyReport:
    """Max residuals of the strategy checks; a None entry was not applicable."""

    predictability: float
    self_financing: float
    telescoping: float
    discounted_increment: float
    decomposition: float | None
    replication: float
    value_initial: float
    tol: float

    @property
    def passed(self) -> bool:
        checks = [
            self.predictability,
            self.self_financing,
            self.telescoping,
            self.discounted_increment,
            self.replication,
        ]
        if self.decomposition is not None:
            checks.append(self.decomposition)
        return all(res <= self.tol for res in checks)


def strategy_values(market: MarketSpec, strategy: Strategy) -> tuple[np.ndarray, float]:
    """Post-rebalance portfolio values V_n = beta_n B_n + <gamma_n, S_n>."""
    prices, bond = market.prices.values, market.bond
    values = np.empty((market.N + 1, market.space.num_paths))
    for n in range(market.N + 1):
        values[n] = strategy.beta[n] * bond[n] + np.einsum(
            "pj,pj->p", strategy.gamma[n], prices[n]
        )
    v_init = strategy.beta_init + float(strategy.gamma_init @ market.s_init)
    return values, v_init


def verify_strategy(
    market: MarketSpec, strategy: Strategy, claim: PathTable, tol: float = 1e-8
) -> StrategyReport:
    """Check predictability, self-financing, value identities and replication.

    All checks are reported as max residuals. Predictability is measured on
    every path. The self-financing, telescoping, discounted increment and
    (for diagonal uniform-rate models) value-decomposition identities and
    replication involve only F_n-measurable quantities at time n once the
    strategy is predictable, so they are evaluated once per atom of F_n, at
    its first path; running sums over F_{n-1} are repeated to its d+1
    sub-atoms. On an exactly predictable strategy, such as either hedge
    here, every residual is bit-identical to its maximum over all paths. On
    any other strategy the predictability residual already fails the check.
    Prices come from the market, so the check stays independent of the hedge.
    """
    if strategy.space != market.space or claim.space != market.space:
        raise ValueError("strategy and claim must live on the market's path space")
    space = market.space
    prices, bond = market.prices.values, market.bond
    d = market.d

    predict = 0.0
    for n in range(market.N + 1):
        predict = max(predict, atom_deviation(strategy.beta[n], space, n - 1))
        predict = max(predict, atom_deviation(strategy.gamma[n], space, n - 1))

    decomposable = market.diagonal and bool(np.all(market.rates == market.rates[0]))
    rate = float(market.rates[0])
    v_init = strategy.beta_init + float(strategy.gamma_init @ market.s_init)
    self_fin = telescoping = discounted = 0.0
    decomposition = 0.0 if decomposable else None
    # running sums on the atoms of F_{n-1}; F_{-1} has one atom
    gains = np.array([v_init])
    disc_prev = np.array([v_init])
    acc = np.zeros(1)
    for n in range(market.N + 1):
        first = space.atom_size(n)  # path stride between the first paths of F_n atoms
        beta, gamma = strategy.beta[n][::first], strategy.gamma[n][::first]
        s_now, s_prev = prices[n][::first], _prev_prices(market, n)[::first]
        if n == 0:
            beta_prev = np.full(len(beta), strategy.beta_init)
            gamma_prev = np.broadcast_to(strategy.gamma_init, gamma.shape)
            bond_prev = 1.0
        else:
            beta_prev, gamma_prev = strategy.beta[n - 1][::first], strategy.gamma[n - 1][::first]
            bond_prev = float(bond[n - 1])
        values = beta * bond[n] + np.einsum("aj,aj->a", gamma, s_now)

        # self-financing at n-1: rebalancing conserves value
        res = bond_prev * (beta - beta_prev) + np.einsum("aj,aj->a", s_prev, gamma - gamma_prev)
        self_fin = max(self_fin, float(np.max(np.abs(res))))

        # telescoping: V_n = V_{-1} + sum_{k<=n} beta_k dB + <gamma_k, dS>
        gains = np.repeat(gains, d + 1) + beta * (float(bond[n]) - bond_prev) + np.einsum(
            "aj,aj->a", gamma, s_now - s_prev
        )
        telescoping = max(telescoping, float(np.max(np.abs(values - gains))))

        # discounted increments: dV~_n = <gamma_n, dS~_n>
        disc_val = values / float(bond[n])
        res = disc_val - np.repeat(disc_prev, d + 1) - np.einsum(
            "aj,aj->a", gamma, s_now / float(bond[n]) - s_prev / bond_prev
        )
        discounted = max(discounted, float(np.max(np.abs(res))))
        disc_prev = disc_val

        if decomposable:
            # atom a*(d+1)+i of F_n took scenario i at step n
            excess = np.tile(market.lambdas[n] - rate, (space.atom_count(n - 1), 1))
            acc = (1.0 + rate) * np.repeat(acc, d + 1) + np.einsum(
                "aj,aj->a", excess * gamma, s_prev
            )
            expected = (1.0 + rate) ** (n + 1) * v_init + acc
            decomposition = max(decomposition, float(np.max(np.abs(values - expected))))

    replication = float(np.max(np.abs(values - claim.values)))  # F_N atoms are paths
    return StrategyReport(
        predictability=predict,
        self_financing=self_fin,
        telescoping=telescoping,
        discounted_increment=discounted,
        decomposition=decomposition,
        replication=replication,
        value_initial=v_init,
        tol=tol,
    )


def crr_market(
    s_init: float,
    up: float,
    down: float,
    rate: float,
    periods: int,
    cap: int = DEFAULT_CAP,
) -> MarketSpec:
    """One-asset recombining model: scenario 0 returns `up`, scenario 1 `down`."""
    scenarios = np.array([[[[up]], [[down]]]] * periods)
    return MarketSpec(
        d=1,
        N=periods - 1,
        s_init=np.array([float(s_init)]),
        rates=np.full(periods, float(rate)),
        scenarios=scenarios,
        cap=cap,
    )
