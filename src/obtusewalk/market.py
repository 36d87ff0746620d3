"""Multi-period complete market model: pricing, replication, hedging.

Scenario i at step k multiplies the risky price vector by (I + M_k^i);
the bond grows by 1 + r_k. With d+1 scenarios per step and the stacked
scenario matrix invertible the market is complete: the risk-neutral
probabilities solve a (d+1)x(d+1) linear system per step (and prior atom,
where the scenario matrices are not diagonal) and define the risk-neutral
walk that `find_emm` returns, every claim is priced by discounted
expectation under that walk, and the hedge is recovered either by backward
replication or through the predictable-representation formula on the walk.

Prices live on a lattice built once per MarketSpec (`PriceLattice`): at
each time n the distinct price vectors (nodes), numbered by their first
atom, and the node of every atom of F_n. Step n+1 grows only the nodes of
time n, d+1 children each, and merges children with the same bytes, so a
recombining model such as CRR keeps far fewer nodes than atoms. An atom's
prices are its node's row; nothing here builds prices path by path (the
test suite's path-by-path price oracle is in tests/market_oracle.py).

The replication system depends only on the node, and so does the
risk-neutral system of a step with a non-diagonal scenario matrix. A
diagonal step's risk-neutral system does not depend on prices at all: it
is solved once, rescaled by exact powers of two, and its nodes are read
only to find a dead one (a zero or overflowing price), which makes the
step singular. `find_emm` stacks the systems of every step, conditions
them in one batch and solves them in one call; the first failing (step,
node) decides the error, and since nodes are numbered by first atom this
is the first failing atom of the one-atom-at-a-time loop.
A system with a non-finite entry counts as singular. `hedge_replicate`
conditions one replication matrix per node, for all steps at once, and
then solves each atom's system against the claim. The one-atom-at-a-time
loops survive only as the test suite's oracle.

Conditioning (`_singular`) reads copies balanced by powers of two, so no
decision depends on the price unit, and screens before an SVD: the bound
||A||_F^n / |det A| >= cond(A) costs one LU determinant, and a system
whose bound is at most 1e10, 100x below the 1e12 limit, is regular
without one. Only the others reach `np.linalg.cond`, so every
singular/regular decision is the one the SVD alone would make, and a
market whose systems are all well conditioned takes no SVD at all.

Every adapted quantity is computed on the atoms of the filtration, one row
per atom: an atom of F_n is a contiguous block of atom_size(n) paths, and
its d+1 sub-atoms of F_{n+1} follow it scenario by scenario. Both hedges
read the claim only through its conditional means on the atoms of F_n
(`omega.atom_means`); neither builds the path-wise gradient. The
closed-form share count is the Clark-Ocone integrand of those means,
`malliavin.atom_integrand`, as `clark_ocone` computes it. A `Strategy` is
one `integrals.PredictableProcess` of [beta | gamma] rows, one per atom of
F_{n-1} for each n, like the Clark-Ocone integrand, so it is predictable by
construction. `verify_strategy` checks self-financing once per atom of
F_{n-1}, where the position is formed, and the other identities once per
atom of F_n; a NaN residual at any step fails the report. Every verdict on
a computed result (the hedge ratios, the closed-form bond position, the
verify report) is relative to the size of what it judges, with no absolute
floor, so none depends on the price unit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ObtuseWalkError
from .integrals import PredictableProcess
from .malliavin import atom_integrand
from .omega import (
    DEFAULT_CAP,
    PathSpace,
    PathTable,
    _check_cap,
    _check_finite,
    _check_space,
    _negligible,
    atom_means,
    expectation,
)
from .walk import WalkSpec, construct_obtuse

_COND_LIMIT = 1e12
_SCREEN_LIMIT = 1e10  # condition bound that clears a system without an SVD
_AGREE_LIMIT = 1e-9  # how far a non-diagonal step's weights may differ across nodes


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
    _check_cap((N + 1) * (d + 1) * d * d, cap, "market scenarios would need")


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """d risky assets over trading times 0..N plus a deterministic bond."""

    d: int
    N: int
    s_init: np.ndarray  # (d,) strictly positive initial prices
    rates: np.ndarray  # (N+1,) per-step rates, each > -1
    scenarios: np.ndarray  # (N+1, d+1, d, d) matrices M_k^i
    cap: int = field(default=DEFAULT_CAP, compare=False, repr=False)
    space: PathSpace = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_market_size(self.d, self.N, self.cap)
        # the path space enforces the enumeration cap before any lattice is built
        object.__setattr__(self, "space", PathSpace(self.d, self.N, self.cap))
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
    def lattice(self) -> "PriceLattice":
        """Price nodes of every time, built once per market."""
        growth = np.eye(self.d)[None, None] + self.scenarios  # (N+1, d+1, d, d)
        return PriceLattice.build(self.s_init, growth)


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct (n, d) float64 rows, by exact bytes, in order of first occurrence.

    Returns the number of every row and the index of each number's first row.
    Rows are compared through their uint64 view, so NaN rows match NaN rows of
    the same bits and 0.0 and -0.0 differ.
    """
    keys = np.ascontiguousarray(rows).view(np.uint64)
    order = np.lexsort(keys.T)  # stable: equal rows keep their index order
    ranked = keys[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[:1] = True
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    heads = order[starts]  # each group's first row, in sorted-row order
    by_first = np.argsort(heads)
    number = np.empty(len(heads), dtype=np.intp)
    number[by_first] = np.arange(len(heads))
    out = np.empty(len(rows), dtype=np.intp)
    out[order] = number[np.cumsum(starts) - 1]
    return out, heads[by_first]


@dataclass(frozen=True, eq=False)
class PriceLattice:
    """The distinct prices (nodes) of each time and the node of every atom.

    nodes[n] holds the distinct price vectors S_n, numbered by their first
    atom of F_n; owner[n][a] is the node of atom a of F_n; children[n][c, i]
    is the node that node c of time n-1 moves to in scenario i. Time -1 has
    one node, the initial prices.
    """

    s_init: np.ndarray  # (d,)
    nodes: tuple[np.ndarray, ...]  # (nodes of time n, d) per n
    owner: tuple[np.ndarray, ...]  # (atoms of F_n,) per n
    children: tuple[np.ndarray, ...]  # (nodes of time n-1, d+1) per n

    @staticmethod
    def build(s_init: np.ndarray, growth: np.ndarray) -> "PriceLattice":
        """Grow the lattice step by step from the (N+1, d+1, d, d) growth matrices I + M."""
        d = len(s_init)
        nodes, owner, children = [], [], []
        prev, prev_owner = s_init[None], np.zeros(1, dtype=np.intp)
        for step in growth:
            # row c*(d+1)+i is node c followed by scenario i; its first atom is
            # first_atom(c)*(d+1)+i, so numbering rows by first occurrence
            # numbers the new nodes by first atom
            rows = np.einsum("kij,aj->aki", step, prev).reshape(-1, d)
            number, first = _first_occurrence(rows)
            kids = number.reshape(-1, d + 1)
            prev, prev_owner = rows[first], np.take(kids, prev_owner, axis=0).ravel()
            for arr in (prev, prev_owner, kids):
                arr.setflags(write=False)
            nodes.append(prev)
            owner.append(prev_owner)
            children.append(kids)
        return PriceLattice(s_init, tuple(nodes), tuple(owner), tuple(children))

    def prior(self, n: int) -> np.ndarray:
        """(nodes of time n-1, d) prices before step n; before step 0 the initial prices."""
        return self.nodes[n - 1] if n > 0 else self.s_init[None]

    def prior_owner(self, n: int) -> np.ndarray:
        """(atoms of F_{n-1},) node of time n-1 of every atom."""
        return self.owner[n - 1] if n > 0 else np.zeros(1, dtype=np.intp)

    def atom_prices(self, n: int) -> np.ndarray:
        """(atoms of F_n, d) prices S_n, one row per atom; n = -1 gives the initial prices."""
        if n < 0:
            return self.s_init[None]
        return np.take(self.nodes[n], self.owner[n], axis=0)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Predictable portfolio: bond units beta_n and share counts gamma_n.

    `positions` holds the row [beta | gamma] of the position formed at time
    n-1 and carried into time n, one per atom of F_{n-1}; `beta`, `gamma`
    and `predictability_defect` read it. Path-indexed input comes in through
    `PredictableProcess.from_paths`. beta_init is the value at index -1,
    held in the bond: no shares are held before the first rebalancing.
    """

    positions: PredictableProcess
    beta_init: float = 0.0

    @property
    def space(self) -> PathSpace:
        return self.positions.space

    @property
    def beta(self) -> np.ndarray:
        return self.positions.rows[:, 0]

    @property
    def gamma(self) -> np.ndarray:
        return self.positions.rows[:, 1:]

    @property
    def predictability_defect(self) -> float:
        return self.positions.defect


def _balanced(mats: np.ndarray, axis: int) -> np.ndarray:
    """The (k, n, n) systems with each row (axis -1) or column (axis -2) scaled,
    exactly, by the power of two that puts its largest |entry| in [1, 2)."""
    biggest = np.max(np.abs(mats), axis=axis, keepdims=True)
    return np.ldexp(mats, 1 - np.frexp(biggest)[1])


def _singular(mats: np.ndarray) -> np.ndarray:
    """Which (k, n, n) systems are singular: non-finite or conditioned above the limit.

    A non-finite system is singular outright. A finite one whose cheap bound
    ||A||_F^n / |det A| on its condition number is at most _SCREEN_LIMIT is
    regular without an SVD; every other one (bound above the screen,
    infinite or NaN, det A = 0) gets `np.linalg.cond` as before. The screen
    sits 100x below _COND_LIMIT, so every decision equals the SVD's.
    """
    singular = ~np.isfinite(mats).all(axis=(1, 2))
    rest = np.flatnonzero(~singular)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # kappa_2 = s_1 / s_n <= s_1^n / |det A| <= ||A||_F^n / |det A|. For a
        # cleared system the LU determinant is off by a relative O(n^2 eps
        # kappa) <= ~1e-5 and LAPACK's s_1 / s_n by O(eps kappa), so the SVD
        # would read at most about 1e10, 100x below _COND_LIMIT = 1e12: it
        # would call the system regular too.
        finite = mats[rest]
        frob2 = np.einsum("kij,kij->k", finite, finite)
        bound = frob2 ** (mats.shape[-1] / 2) / np.abs(np.linalg.det(finite))
    rest = rest[~(bound <= _SCREEN_LIMIT)]  # NaN bounds go to the SVD too
    if rest.size:
        singular[rest] = np.linalg.cond(mats[rest]) > _COND_LIMIT
    return singular


def find_emm(market: MarketSpec) -> WalkSpec:
    """The risk-neutral walk: the driving walk under the martingale measure.

    For each step the system  sum_i q_i M_k^i S_{k-1} = r_k S_{k-1}  plus
    normalization is solved; the solution must be strictly positive.
    A step whose scenario matrices are all diagonal is solved once: its row
    for asset j is  sum_i q_i lambda_k^{i,j} = r_k  times the price, whatever
    the price, so it is scaled instead by the power of two that puts its
    largest |lambda| in [1, 2), which is exact and leaves the rows balanced
    against the normalization row. Its prices matter only at a dead node, a
    node whose own row would be all-zero or non-finite (a zero price, or a
    price whose moves overflow): that makes the step singular, ahead of the
    step's system at the node of atom 0 and after it at any other node. A
    step with a non-diagonal matrix solves one system per node of its prior
    time, and the solutions must agree within _AGREE_LIMIT. The systems of
    every step are conditioned (rows balanced) and solved together; the
    first failing (step, node) decides the error. The walk is `construct_obtuse`
    of the solved probabilities with the market's cap; outcome i of step k
    is scenario i, and its probabilities price the claim and both hedges.
    """
    d, lattice, steps = market.d, market.lattice, np.arange(market.N + 1)
    prior = [lattice.prior(k) for k in steps]
    diagonal = np.all(market.scenarios * (1.0 - np.eye(d)) == 0.0, axis=(1, 2, 3))
    biggest = np.max(np.abs(np.einsum("kijj->kij", market.scenarios)), axis=1)  # (N+1, d)
    unit = np.ldexp(1.0, 1 - np.frexp(biggest)[1])  # biggest * unit lies in [1, 2)
    s_sys = [unit[k, None] if diagonal[k] else prior[k] for k in steps]
    sizes = [len(s) for s in s_sys]
    step = np.repeat(steps, sizes)  # the step of every system
    starts = np.cumsum([0] + sizes[:-1])  # each step's first system: node 0's, the node of atom 0
    s_node = np.concatenate(s_sys)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as singular
        mats = np.ones((len(s_node), d + 1, d + 1))
        moved = np.matmul(market.scenarios[step], s_node[:, None, :, None])
        mats[:, :d, :] = moved[..., 0].transpose(0, 2, 1)  # column i: M_k^i S_{k-1}
        rhs = np.ones((len(s_node), d + 1, 1))
        rhs[:, :d, 0] = market.rates[step, None] * s_node
    singular = _singular(_balanced(mats, axis=-1)) | ~np.isfinite(rhs).all(axis=(1, 2))
    q = np.zeros((len(s_node), d + 1))
    q[~singular] = np.linalg.solve(mats[~singular], rhs[~singular])[..., 0]
    positive = np.all(q > 0.0, axis=1)
    agree = np.max(np.abs(q - q[np.repeat(starts, sizes)]), axis=1) <= _AGREE_LIMIT
    counts = [len(s) for s in prior]
    node_step = np.repeat(steps, counts)
    nodes = np.concatenate(prior)
    top = np.maximum(biggest, np.abs(market.rates)[:, None])[node_step]
    with np.errstate(over="ignore", invalid="ignore"):
        dead = ~np.all(np.isfinite(top * nodes) & (nodes != 0.0), axis=1)
    dead_first = dead[np.cumsum([0] + counts[:-1])]
    any_dead = np.bincount(node_step[dead], minlength=len(steps)) > 0
    singular[starts] |= diagonal & (dead_first | (any_dead & positive[starts]))
    failing = np.flatnonzero(singular | ~(positive & agree))
    if failing.size:
        node = failing[0]
        k = int(step[node])
        if singular[node]:
            raise IncompleteMarketError(
                f"incomplete market: scenario system at step {k} is singular"
            )
        if not positive[node]:
            raise ArbitrageError(
                f"arbitrage: risk-neutral weights at step {k} are not strictly positive"
            )
        raise StateDependentMeasureError(
            f"state-dependent risk-neutral measure unsupported: "
            f"step {k} weights differ across atoms"
        )
    return construct_obtuse(list(q[starts]), cap=market.cap)


def price_claim(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> float:
    """Initial price: discounted expectation of the claim under the risk-neutral walk.

    The claim and the walk are checked first.
    """
    _check_claim(market, claim)
    _check_space(market.space, wq, "risk-neutral walk", "market")
    return expectation(wq, claim) / float(market.bond[market.N])


def _check_claim(market: MarketSpec, claim: PathTable) -> None:
    """A hedge needs a claim on the market's paths, finite on every one."""
    _check_space(market.space, claim, "claim", "market")
    _check_finite(claim, "claim")


def hedge_replicate(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> Strategy:
    """Atom-wise replication of the claim.

    At each time and prior atom, the bond row and the d+1 scenario prices
    determine the portfolio matching the replication values in every
    scenario; the resulting strategy is predictable and self-financing.
    An atom's matrix is its node's, so the matrices of every node of every
    step are conditioned, columns balanced, before any atom is solved; the
    singular step with the largest n raises.
    """
    price = price_claim(market, wq, claim)  # checks both before any other arithmetic
    d, lattice, bond = market.d, market.lattice, market.bond
    # row i for a node of time n-1: the bond, then the prices of its child in scenario i
    mats = []
    for n in range(market.N + 1):
        node_mats = np.empty(lattice.children[n].shape + (d + 1,))
        node_mats[:, :, 0] = bond[n]
        node_mats[:, :, 1:] = lattice.nodes[n][lattice.children[n]]
        mats.append(node_mats)
    singular = _singular(_balanced(np.concatenate(mats), axis=-2))
    if singular.any():
        step = np.repeat(np.arange(market.N + 1), [len(m) for m in mats])
        raise IncompleteMarketError(
            f"incomplete market: replication system at step {int(step[singular].max())} is singular"
        )

    steps = []
    for n in range(market.N + 1):
        # replication values V_n = B_n / B_N E_Q[F | F_n] on the atoms of F_n; row i
        # of atom a of F_{n-1} is atom a*(d+1)+i of F_n: a followed by scenario i
        values = (float(bond[n]) / float(bond[market.N])) * atom_means(wq, claim.values, n)
        atom_mats = np.take(mats[n], lattice.prior_owner(n), axis=0)
        steps.append(np.linalg.solve(atom_mats, values.reshape(-1, d + 1, 1))[..., 0])
    return Strategy(PredictableProcess.from_steps(market.space, steps), beta_init=price)


def _hedge_ratios(market: MarketSpec, wq: WalkSpec, rate: float) -> np.ndarray:
    """(N+1, d) ratios v_i^j / (lambda^{j,i} - r), which must not depend on i.

    Computed for every (n, j) at once: the cross differences must stay
    within 1e-9 times max|v^j| * max|excess^j|, with no absolute floor, so
    the verdict does not depend on the unit of the prices. The first failing
    (n, j), n before j, raises.
    """
    _check_space(market.space, wq, "risk-neutral walk", "market")
    v = np.stack([step.v for step in wq.steps])  # (N+1, d+1, d)
    excess = market.lambdas - rate  # (N+1, d+1, d)
    # cross[n, i, k, j] = v_i^j excess_k^j - v_k^j excess_i^j
    cross = np.abs(v[:, :, None] * excess[:, None] - v[:, None] * excess[:, :, None])
    scale = np.max(np.abs(v), axis=1) * np.max(np.abs(excess), axis=1)
    failing = (np.max(cross, axis=(1, 2)) > 1e-9 * scale) | np.all(excess == 0.0, axis=1)
    if failing.any():
        n, j = np.argwhere(failing)[0]
        raise HedgeFormulaError(
            f"hedge ratio for asset {j + 1} at step {n} is scenario-dependent; "
            "use hedge_replicate"
        )
    i_star = np.argmax(np.abs(excess), axis=1)[:, None]  # (N+1, 1, d)
    return (
        np.take_along_axis(v, i_star, axis=1) / np.take_along_axis(excess, i_star, axis=1)
    )[:, 0]


def hedge_clark_ocone(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> Strategy:
    """Closed-form hedge from the predictable representation of the claim.

    Restricted to diagonal scenario models with a uniform rate. The share
    count is xi_n = E[D_n F | F_{n-1}] under the risk-neutral walk, scaled by
    the predictable ratio of the walk increment to the excess price move; the
    ratio must be scenario-independent. On an atom of F_{n-1}, xi_n is the
    (d+1)-term sum  sum_i c_i(n) E[F | atom, w_n = i]  over its F_n atoms.
    The bond position implied on the d+1 sub-atoms must agree within 1e-6
    times the largest |term| it is the difference of (omega._negligible).
    """
    price = price_claim(market, wq, claim)  # checks both before any other arithmetic
    if not market.diagonal:
        raise HedgeFormulaError(
            "closed-form hedge needs diagonal scenario matrices; use hedge_replicate"
        )
    rate = market.uniform_rate()
    d, lattice = market.d, market.lattice
    ratio_const = _hedge_ratios(market, wq, rate)

    steps = []
    s_prev = lattice.atom_prices(-1)
    for n in range(market.N + 1):
        s_now = lattice.atom_prices(n)
        cond = atom_means(wq, claim.values, n)  # E_Q[F | F_n], one entry per atom
        xi = atom_integrand(wq, cond, n)  # (atoms of F_{n-1}, d)
        gam = (1.0 + rate) ** (n - market.N) * xi * ratio_const[n] / s_prev
        claim_part = (1.0 + rate) ** (-market.N - 1) * cond
        share_part = (1.0 + rate) ** (-n - 1) * np.einsum(
            "aj,aj->a", np.repeat(gam, d + 1, axis=0), s_now
        )
        raw_beta = (claim_part - share_part).reshape(-1, d + 1)
        bet = (raw_beta * wq.steps[n].p).sum(axis=1)  # E_Q[raw | F_{n-1}]
        defect = float(np.max(np.abs(raw_beta - bet[:, None])))
        # rounding in raw_beta grows with its two terms, not with their difference
        if not _negligible(defect, 1e-6, claim_part, share_part):
            raise HedgeFormulaError(
                f"bond position at step {n} is not predictable (defect {defect:.3e}); "
                "use hedge_replicate"
            )
        steps.append(np.column_stack([bet, gam]))
        s_prev = s_now
    return Strategy(PredictableProcess.from_steps(market.space, steps), beta_init=price)


@dataclass(frozen=True)
class StrategyReport:
    """Max residuals of the strategy checks; a None entry was not applicable."""

    passed: bool
    predictability: float
    self_financing: float
    telescoping: float
    discounted_increment: float
    decomposition: float | None
    replication: float
    value_initial: float


@np.errstate(over="ignore", invalid="ignore")
def verify_strategy(market: MarketSpec, strategy: Strategy, claim: PathTable) -> StrategyReport:
    """Check predictability, self-financing, value identities and replication.

    All checks are reported as max residuals. A strategy holds one position
    per atom of F_{n-1}, so it is predictable by construction; the report
    carries the defect that `PredictableProcess.from_paths` measured on
    path-indexed input. Self-financing at time n-1 depends only on the atom
    of F_{n-1} where the position is formed, so it is checked once per atom
    of F_{n-1}. The telescoping, discounted increment and (for diagonal
    uniform-rate models) value-decomposition identities and replication
    involve V_n, so they are checked once per atom of F_n, each position
    repeated to the d+1 sub-atoms of its atom. Each residual equals its
    maximum over all paths bit for bit. Prices come from the market, so
    the check stays independent of the hedge.
    It passes iff each residual is at most 1e-8 * max|F| (omega._negligible),
    as they round at the size of the finite claim F; with no absolute floor,
    the report reads the same for prices and claim scaled together, and an
    all-zero claim needs exact-zero residuals. Non-finite positions give an
    inf or NaN residual, which fails; np.max over the per-step maxima keeps
    a NaN of any step, as max() would not.
    """
    _check_space(market.space, strategy, "strategy", "market")
    _check_claim(market, claim)
    d, lattice = market.d, market.lattice
    dot = partial(np.einsum, "aj,aj->a")  # row-wise inner products
    bonds = np.concatenate([[1.0], market.bond])  # B_{n-1} at index n
    decomposable = market.diagonal and bool(np.all(market.rates == market.rates[0]))
    rate = float(market.rates[0])
    v_init = float(strategy.beta_init)
    # the position held into time n-1 on each atom of F_{n-1}: before time 0,
    # the one atom of F_{-1} holds v_init in the bond and no shares
    beta, gamma = np.array([v_init]), np.zeros((1, d))
    s_prev, acc = lattice.atom_prices(-1), np.zeros(1)
    gains = disc_prev = np.array([v_init])
    self_fin, telescoping, discounted, decomposition = [], [], [], []
    for n in range(market.N + 1):
        rows = strategy.positions.at(n)
        # self-financing at n-1: rebalancing conserves value
        res = bonds[n] * (rows[:, 0] - beta) + dot(s_prev, rows[:, 1:] - gamma)
        self_fin.append(np.max(np.abs(res)))
        # the position formed at n-1, held into time n on each atom of F_n
        beta, gamma = np.repeat(rows[:, 0], d + 1), np.repeat(rows[:, 1:], d + 1, axis=0)
        s_now, s_before = lattice.atom_prices(n), np.repeat(s_prev, d + 1, axis=0)
        values = beta * bonds[n + 1] + dot(gamma, s_now)

        # telescoping: V_n = V_{-1} + sum_{k<=n} beta_k dB + <gamma_k, dS>
        gains = np.repeat(gains, d + 1) + beta * (bonds[n + 1] - bonds[n]) + dot(
            gamma, s_now - s_before
        )
        telescoping.append(np.max(np.abs(values - gains)))

        # discounted increments: dV~_n = <gamma_n, dS~_n>
        disc_val = values / bonds[n + 1]
        res = disc_val - np.repeat(disc_prev, d + 1) - dot(
            gamma, s_now / bonds[n + 1] - s_before / bonds[n]
        )
        discounted.append(np.max(np.abs(res)))

        if decomposable:
            # atom a*(d+1)+i of F_n took scenario i at step n
            excess = gamma.reshape(-1, d + 1, d) * (market.lambdas[n] - rate)
            acc = (1.0 + rate) * np.repeat(acc, d + 1) + dot(excess.reshape(-1, d), s_before)
            expected = (1.0 + rate) ** (n + 1) * v_init + acc
            decomposition.append(np.max(np.abs(values - expected)))
        s_prev, disc_prev = s_now, disc_val

    replication = float(np.max(np.abs(values - claim.values)))  # F_N atoms are paths
    worst = [strategy.predictability_defect, replication]
    worst += self_fin + telescoping + discounted + decomposition
    return StrategyReport(
        passed=_negligible(float(np.max(worst)), 1e-8, claim.values),
        predictability=strategy.predictability_defect,
        self_financing=float(np.max(self_fin)),
        telescoping=float(np.max(telescoping)),
        discounted_increment=float(np.max(discounted)),
        decomposition=float(np.max(decomposition)) if decomposable else None,
        replication=replication,
        value_initial=v_init,
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
