"""Multi-period complete market model: pricing, replication, hedging.

Scenario i at step k multiplies the risky price vector by (I + M_k^i);
the bond grows by 1 + r_k. With d+1 scenarios per step and the stacked
scenario matrix invertible the market is complete: the risk-neutral
probabilities solve a (d+1)x(d+1) linear system per step (and prior atom,
where the scenario matrices are not diagonal) and define the risk-neutral
walk that `find_emm` returns, every claim is priced by discounted
expectation under that walk, and the hedge is recovered either by backward
replication or through the predictable-representation formula on the walk.

Prices are one array per MarketSpec (`MarketSpec.prices`): the prices of
every atom of F_{-1}..F_N in tree order (below), each level one product of
the level above with the step's growth matrices I + M, so the prices of any
run of levels are one slice; this growth is the one part of the prices
that goes time by time. Nothing here builds prices path by path (the test
suite's path-by-path price oracle is in tests/market_oracle.py).

The replication system of an atom depends only on its price row, and so
does the risk-neutral system of a step with a non-diagonal scenario
matrix; each is formed once per distinct row (by bytes) of its level, at
the row's first atom. The first atoms of a level are children of the first
atoms of the level above, so one cached sweep (`MarketSpec.first_atoms`)
finds them level by level from a few rows; a recombining model such as CRR
has far fewer distinct rows than atoms. A diagonal step's risk-neutral
system does not depend on prices at all: it is solved once, rescaled by
exact powers of two, and its atoms' prices are read only to find a dead
one (a zero or overflowing price), which makes the step singular.
`find_emm` stacks the systems of every step, conditions them in one batch
and solves them in one call; the first failing (step, first atom) decides
the error, which is the first failing atom of the one-atom-at-a-time loop.
A system with a non-finite entry counts as singular. `hedge_replicate`
conditions one replication matrix per distinct row, for all steps at once,
and then solves each atom's system, built from slices of the prices,
against the claim. The one-atom-at-a-time loops survive only as the test
suite's oracle.

Conditioning (`_singular`) reads copies balanced by powers of two, so no
decision depends on the price unit, and screens before an SVD: the bound
||A||_F^n / |det A| >= cond(A) costs one LU determinant, and a system
whose bound is at most 1e10, 100x below the 1e12 limit, is regular
without one. Only the others reach `np.linalg.cond`, so every
singular/regular decision is the one the SVD alone would make, and a
market whose systems are all well conditioned takes no SVD at all.

Every adapted quantity is computed on the atoms of the filtration, one row
per atom: an atom of F_n is a contiguous block of atom_size(n) paths, and
its d+1 sub-atoms of F_{n+1} follow it scenario by scenario. The atoms of
F_{-1}..F_N in level order form one tree (`omega._tree_offset`), atom k > 0
below atom (k-1)//(d+1). Both hedges read the claim only through its
conditional means on the atoms of F_n (`omega.tree_means`, a block's levels
from one product); neither builds the path-wise gradient. The closed-form share
count is the Clark-Ocone integrand of those means, `malliavin.atom_integrand`,
as `clark_ocone` computes it. A `Strategy` is one
`integrals.PredictableProcess` of [beta | gamma] rows, one per atom of
F_{n-1} for each n, like the Clark-Ocone integrand, so it is predictable by
construction; its rows are in tree order, so the position held on every
atom of F_0..F_N is np.repeat(rows, d+1). `verify_strategy` checks
self-financing once per atom of F_{n-1}, where the position is formed, and
the other identities once per atom of F_n; a NaN residual at any step
fails the report.

Both hedges and the verifier compute over whole levels at once, in two
blocks of steps (`_blocks`): 0..N-1, then N, so no block holds more rows
than the last level. Each step's constants are repeated by level size, so
every entry has the bits of the step computed alone; the closed-form
hedge's per-step verdicts come from np.maximum.reduceat and
np.fmax.reduceat, so the first failing step raises with its own defect.
Level by level go only the running sums of the verifier (`_down_the_tree`:
each atom adds its term to its parent's sum, in the association of a step
alone), the block sums of `tree_means` and the products with each step's
c_k in `atom_integrand`, which numpy and BLAS round by the shape of their
operands. Every verdict on
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
    _tree_offset,
    _within,
    expectation,
    tree_means,
)
from .walk import WalkSpec, construct_obtuse

_COND_LIMIT = 1e12
_SCREEN_LIMIT = 1e10  # condition bound that clears a system without an SVD
_AGREE_LIMIT = 1e-9  # how far a non-diagonal step's weights may differ across atoms


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
    growth: np.ndarray = field(init=False, compare=False, repr=False)  # (N+1, d+1, d, d) I + M

    def __post_init__(self) -> None:
        _check_market_size(self.d, self.N, self.cap)
        # the path space enforces the enumeration cap before any price is built
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
        for arr in (s_init, rates, scenarios, growth):
            arr.setflags(write=False)
        object.__setattr__(self, "s_init", s_init)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "growth", growth)

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
    def prices(self) -> np.ndarray:
        """(atoms of F_{-1}..F_N, d) prices of every atom, in tree order (omega._tree_offset).

        Row 0 is the initial prices. Atom a*(d+1)+1+i is atom a moved by
        scenario i, so each level is one product of the level above with the
        step's d+1 growth matrices, written in place.
        """
        d = self.d
        out = np.empty((_tree_offset(d, self.N + 1), d))
        out[0] = self.s_init
        for n, step in enumerate(self.growth):
            above, level = (slice(_tree_offset(d, k - 1), _tree_offset(d, k)) for k in (n, n + 1))
            np.einsum("kij,aj->aki", step, out[above], out=out[level].reshape(-1, d + 1, d))
        out.setflags(write=False)
        return out

    @cached_property
    def first_atoms(self) -> tuple[np.ndarray, ...]:
        """For each step k, the first atom (tree order) of each distinct price row of F_{k-1}.

        Rows are distinct by their bytes and listed by first atom. Two atoms
        with one price row have children with one price row in each
        scenario, so the first atoms of F_n are children of first atoms of
        F_{n-1}: each level dedupes only those children, keeping each row's
        first occurrence.
        """
        d, prices, first = self.d, self.prices, [np.zeros(1, dtype=np.intp)]
        scenario = np.arange(1, d + 2)  # atom a's children are a*(d+1) + scenario
        for _ in range(self.N):
            children = ((d + 1) * first[-1][:, None] + scenario).ravel()
            first.append(children[_first_rows(prices[children])])
        for arr in first:
            arr.setflags(write=False)
        return tuple(first)


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct (n, d) row, in increasing order.

    Rows are compared by their bytes, so NaN rows of the same bits match and
    0.0 and -0.0 differ.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    order = np.argsort(keys, kind="stable")  # equal rows keep their index order
    ranked = keys[order]
    heads = np.empty(len(rows), dtype=bool)
    heads[:1] = True
    heads[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[heads])


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
    against the normalization row. Its prices matter only at a dead atom, an
    atom whose own row would be all-zero or non-finite (a zero price, or a
    price whose moves overflow): that makes the step singular, ahead of the
    step's system at atom 0 and after it at any other atom. A step with a
    non-diagonal matrix solves one system per distinct price row of its
    prior time, at the row's first atom (`MarketSpec.first_atoms`), and the
    solutions must agree within _AGREE_LIMIT. The systems of every step are
    conditioned (rows balanced) and solved together; the first failing
    (step, first atom) decides the error. The walk is `construct_obtuse`
    of the solved probabilities with the market's cap; outcome i of step k
    is scenario i, and its probabilities price the claim and both hedges.
    """
    d, N, prices, steps = market.d, market.N, market.prices, np.arange(market.N + 1)
    diagonal = np.all(market.scenarios * (1.0 - np.eye(d)) == 0.0, axis=(1, 2, 3))
    biggest = np.max(np.abs(np.einsum("kijj->kij", market.scenarios)), axis=1)  # (N+1, d)
    unit = np.ldexp(1.0, 1 - np.frexp(biggest)[1])  # biggest * unit lies in [1, 2)
    s_sys = [unit[k, None] if diagonal[k] else prices[market.first_atoms[k]] for k in steps]
    sizes = [len(s) for s in s_sys]
    step = np.repeat(steps, sizes)  # the step of every system
    starts = np.cumsum([0] + sizes[:-1])  # each step's first system, at the step's first atom
    s_prior = np.concatenate(s_sys)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as singular
        mats = np.ones((len(s_prior), d + 1, d + 1))
        moved = np.matmul(market.scenarios[step], s_prior[:, None, :, None])
        mats[:, :d, :] = moved[..., 0].transpose(0, 2, 1)  # column i: M_k^i S_{k-1}
        rhs = np.ones((len(s_prior), d + 1, 1))
        rhs[:, :d, 0] = market.rates[step, None] * s_prior
    singular = _singular(_balanced(mats, axis=-1)) | ~np.isfinite(rhs).all(axis=(1, 2))
    q = np.zeros((len(s_prior), d + 1))
    q[~singular] = np.linalg.solve(mats[~singular], rhs[~singular])[..., 0]
    positive = np.all(q > 0.0, axis=1)
    agree = np.max(np.abs(q - q[np.repeat(starts, sizes)]), axis=1) <= _AGREE_LIMIT
    # a dead atom of F_{k-1} has a zero price, or one that overflows times the largest
    # |return| or rate of step k. Prices are nonnegative or NaN, and the rounded
    # product grows with the price, so some price of a level overflows iff its
    # largest does; a NaN price makes that NaN
    top = np.maximum(biggest, np.abs(market.rates)[:, None])
    level = [_tree_offset(d, k - 1) for k in steps]  # the first atom of F_{k-1}
    prior = prices[: _tree_offset(d, N)]
    with np.errstate(over="ignore", invalid="ignore"):
        dead_first = ~np.all(np.isfinite(top * prior[level]) & (prior[level] != 0.0), axis=1)
        any_dead = ~np.all(
            np.isfinite(top * np.maximum.reduceat(prior, level))
            & (np.minimum.reduceat(prior, level) != 0.0),
            axis=1,
        )
    singular[starts] |= diagonal & (dead_first | (any_dead & positive[starts]))
    failing = np.flatnonzero(singular | ~(positive & agree))
    if failing.size:
        first = failing[0]
        k = int(step[first])
        if singular[first]:
            raise IncompleteMarketError(
                f"incomplete market: scenario system at step {k} is singular"
            )
        if not positive[first]:
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


def _blocks(N: int) -> list[tuple[int, int]]:
    """The steps 0..N in two blocks (lo, hi), each computed at once: 0..N-1, then N.

    Steps 0..N-1 form their positions on the atoms of F_{-1}..F_{N-2}, fewer
    than the atoms of F_{N-1} on which step N forms its own, so no block
    holds more rows than the last level. A market of one period has one block.
    """
    return [(0, N), (N, N + 1)] if N else [(0, 1)]


def hedge_replicate(market: MarketSpec, wq: WalkSpec, claim: PathTable) -> Strategy:
    """Atom-wise replication of the claim.

    At each time and prior atom, the bond row and the d+1 scenario prices
    determine the portfolio matching the replication values in every
    scenario; the resulting strategy is predictable and self-financing.
    Atoms with one price row have one matrix, so the matrices of every
    step at the first atom of each distinct price row (`MarketSpec.first_atoms`)
    are conditioned, columns balanced, before any atom is solved; the
    singular step with the largest n raises. The atoms' systems are solved
    in one call per block of steps (_blocks).
    """
    price = price_claim(market, wq, claim)  # checks both before any other arithmetic
    d, N, prices, bond = market.d, market.N, market.prices, market.bond
    # row i of the system of atom a of F_{n-1}: the bond B_n, then the prices of
    # its child a*(d+1)+1+i, the atom that follows it in scenario i
    first = np.concatenate(market.first_atoms)
    step = np.repeat(np.arange(N + 1), [len(f) for f in market.first_atoms])
    mats = np.empty((len(first), d + 1, d + 1))
    mats[:, :, 0] = bond[step, None]
    mats[:, :, 1:] = prices[(d + 1) * first[:, None] + np.arange(1, d + 2)]
    singular = _singular(_balanced(mats, axis=-2))
    if singular.any():
        raise IncompleteMarketError(
            f"incomplete market: replication system at step {int(step[singular].max())} is singular"
        )

    rows = np.empty((_tree_offset(d, N), d + 1))
    for lo, hi in _blocks(N):
        # replication values V_n = B_n / B_N E_Q[F | F_n] on the atoms of F_n; row i
        # of atom a of F_{n-1} is atom a*(d+1)+i of F_n: a followed by scenario i
        sizes = [market.space.atom_count(n) for n in range(lo, hi)]
        values = np.repeat(bond[lo:hi] / bond[N], sizes)
        values *= tree_means(wq, claim.values, lo, hi)
        # the positions of steps lo..hi-1 are formed on the atoms of F_{lo-1}..F_{hi-2},
        # whose children are the atoms of F_lo..F_{hi-1}
        formed = slice(_tree_offset(d, lo - 1), _tree_offset(d, hi - 1))
        atom_mats = np.empty((formed.stop - formed.start, d + 1, d + 1))
        atom_mats[:, :, 0] = np.repeat(bond[lo:hi], sizes).reshape(-1, d + 1)
        held = prices[_tree_offset(d, lo) : _tree_offset(d, hi)]
        atom_mats[:, :, 1:] = held.reshape(-1, d + 1, d)
        rows[formed] = np.linalg.solve(atom_mats, values.reshape(-1, d + 1, 1))[..., 0]
        del values, atom_mats
    rows.setflags(write=False)
    return Strategy(PredictableProcess(market.space, rows), beta_init=price)


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
    times the largest |term| it is the difference of (omega._negligible), at
    every step; the first step that fails raises with its own defect.
    """
    price = price_claim(market, wq, claim)  # checks both before any other arithmetic
    if not market.diagonal:
        raise HedgeFormulaError(
            "closed-form hedge needs diagonal scenario matrices; use hedge_replicate"
        )
    ratio_const = _hedge_ratios(market, wq, market.uniform_rate())
    d, N = market.d, market.N
    rows = np.empty((_tree_offset(d, N), d + 1))
    for lo, hi in _blocks(N):
        cond = tree_means(wq, claim.values, lo, hi)
        formed = slice(_tree_offset(d, lo - 1), _tree_offset(d, hi - 1))
        rows[formed, 0], rows[formed, 1:] = _closed_form(market, wq, ratio_const, cond, lo, hi)
    rows.setflags(write=False)
    return Strategy(PredictableProcess(market.space, rows), beta_init=price)


def _closed_form(
    market: MarketSpec, wq: WalkSpec, ratio_const: np.ndarray, cond: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bond units and share counts of the closed-form hedge at steps lo..hi-1.

    cond holds E_Q[F | F_n] on the atoms of F_lo..F_{hi-1}; the positions
    come one row per atom of F_{lo-1}..F_{hi-2}. Each step's constants are
    repeated to its rows, so every entry has the bits of a step computed
    alone, and each temporary is dropped once it is reduced.
    """
    d, N, space = market.d, market.N, market.space
    growth = 1.0 + float(market.rates[0])
    steps = range(lo, hi)
    counts = [space.atom_count(n - 1) for n in steps]  # positions of step n
    per_row = partial(np.repeat, repeats=counts, axis=0)
    first, mid, stop = (_tree_offset(d, n) for n in (lo - 1, lo, hi))
    prices = market.prices[first:stop]  # S_{n-1}, then S_n from mid on
    gam = per_row([growth ** (n - N) for n in steps])[:, None] * atom_integrand(wq, cond, lo)
    gam *= per_row(ratio_const[lo:hi])
    gam /= prices[: _tree_offset(d, hi - 1) - first]
    share_part = np.repeat([growth ** (-n - 1) for n in steps], np.multiply(counts, d + 1))
    share_part *= np.einsum("aj,aj->a", np.repeat(gam, d + 1, axis=0), prices[mid - first :])
    del prices
    claim_part = growth ** (-N - 1) * cond
    # rounding in raw_beta grows with its two terms, not with their difference
    starts = np.cumsum([0] + counts[:-1])
    scale = np.fmax(
        np.fmax.reduceat(np.abs(claim_part), starts * (d + 1)),
        np.fmax.reduceat(np.abs(share_part), starts * (d + 1)),
    )
    raw_beta = np.subtract(claim_part, share_part, out=share_part).reshape(-1, d + 1)
    del claim_part
    probs = np.stack([wq.steps[n].p for n in steps])
    bet = (raw_beta * per_row(probs)).sum(axis=1)  # E_Q[raw | F_{n-1}]
    raw_beta -= bet[:, None]
    defect = np.maximum.reduceat(np.abs(raw_beta, out=raw_beta).ravel(), starts * (d + 1))
    failing = np.flatnonzero(~_within(defect, 1e-6 * scale))
    if failing.size:
        k = failing[0]
        raise HedgeFormulaError(
            f"bond position at step {lo + k} is not predictable "
            f"(defect {float(defect[k]):.3e}); use hedge_replicate"
        )
    return bet, gam


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
    path-indexed input. Self-financing at time n depends only on the atom
    of F_n where a position is formed, so it is checked once per atom of
    F_{-1}..F_{N-1}. The telescoping, discounted increment and (for diagonal
    uniform-rate models) value-decomposition identities and replication
    involve V_n, so they are checked once per atom of F_n, on the position
    its parent atom formed. The atoms of a block of steps (_blocks) are
    checked at once; only the running sums of the telescoping gains and of
    the decomposition go level by level, each atom adding its own term to
    its parent's sum. Each residual equals its maximum over all paths bit
    for bit. Prices come from the market, so the check stays independent of
    the hedge.
    It passes iff each residual is at most 1e-8 * max|F| (omega._negligible),
    as they round at the size of the finite claim F; with no absolute floor,
    the report reads the same for prices and claim scaled together, and an
    all-zero claim needs exact-zero residuals. Non-finite positions give an
    inf or NaN residual, which fails; np.max keeps a NaN of any step, as
    max() would not.
    """
    _check_space(market.space, strategy, "strategy", "market")
    _check_claim(market, claim)
    d, N, space = market.d, market.N, market.space
    dot = partial(np.einsum, "aj,aj->a")  # row-wise inner products
    bonds = np.concatenate([[1.0], market.bond])  # B_{n-1} at index n
    decomposable = market.diagonal and bool(np.all(market.rates == market.rates[0]))
    rate = float(market.rates[0])
    growth = 1.0 + rate
    v_init = float(strategy.beta_init)
    rows = strategy.positions.rows
    # self-financing at time -1: the one atom of F_{-1} held v_init in the bond
    # and no shares (- 0.0, which also gives einsum a contiguous copy)
    res = bonds[0] * (rows[:1, 0] - v_init) + dot(market.s_init[None], rows[:1, 1:] - 0.0)
    self_fin, telescoping, discounted, decomposition = [np.max(np.abs(res))], [], [], []
    # gains, discounted value and decomposition sum on the last level checked
    gains_prev = disc_prev = np.array([v_init])
    acc_prev = np.zeros(1)
    for lo, hi in _blocks(N):
        # the atoms of F_{lo-1}..F_{hi-1} in tree order: the parents, the atoms of
        # F_{lo-1}..F_{hi-2} that formed the positions of steps lo..hi-1, and
        # from `own` on the atoms of F_lo..F_{hi-1} that hold them
        first, own, stop = (_tree_offset(d, n) for n in (lo - 1, lo, hi))
        parents = slice(first, _tree_offset(d, hi - 1))
        sizes = [space.atom_count(n) for n in range(lo - 1, hi)]
        levels = np.cumsum([0] + sizes) - (own - first)  # F_n at levels[n-lo+1]..levels[n-lo+2]
        beta = np.repeat(rows[parents, 0], d + 1)
        gamma = np.repeat(rows[parents, 1:], d + 1, axis=0)
        prices = market.prices[first:stop]
        s_now = prices[own - first :]
        s_before = np.repeat(prices[: parents.stop - first], d + 1, axis=0)
        bond_at = np.repeat(bonds[lo : hi + 1], sizes)  # B_n on the atoms of F_n
        bond_now = bond_at[own - first :]
        values = beta * bond_now + dot(gamma, s_now)

        if hi <= N:
            # self-financing at time n on the atoms of F_n: rebalancing conserves value
            formed = rows[own:stop]
            res = bond_now * (formed[:, 0] - beta) + dot(s_now, formed[:, 1:] - gamma)
            self_fin.append(np.max(np.abs(res)))

        # telescoping: V_n = V_{-1} + sum_{k<=n} beta_k dB + <gamma_k, dS>; each
        # atom adds beta dB, then <gamma, dS>, to its parent's gains
        gains = beta * np.repeat(np.diff(bonds)[lo:hi], sizes[1:])
        del beta
        gains_prev = _down_the_tree(gains, gains_prev, levels, 1.0, dot(gamma, s_now - s_before))
        telescoping.append(np.max(np.abs(np.subtract(values, gains, out=gains), out=gains)))
        del gains

        # discounted increments: dV~_n = <gamma_n, dS~_n>
        disc = np.empty(stop - first)
        disc[: own - first] = disc_prev
        np.divide(values, bond_now, out=disc[own - first :])
        disc_prev = disc[levels[-2] + own - first :].copy()
        res = disc[own - first :] - np.repeat(disc[: parents.stop - first], d + 1)
        del disc
        s_disc = prices / bond_at[:, None]
        del prices, s_now, bond_at, bond_now
        s_disc[own - first :] -= np.repeat(s_disc[: parents.stop - first], d + 1, axis=0)
        res -= dot(gamma, s_disc[own - first :])
        del s_disc
        discounted.append(np.max(np.abs(res)))
        del res

        if decomposable:
            # atom a*(d+1)+i of F_n took scenario i at step n; each atom's sum is
            # (1 + r) times its parent's, plus its own term
            excess = gamma.reshape(-1, d + 1, d) * np.repeat(
                market.lambdas[lo:hi] - rate, sizes[:-1], axis=0
            )
            acc = dot(excess.reshape(-1, d), s_before)
            del excess
            acc_prev = _down_the_tree(acc, acc_prev, levels, growth)
            acc += np.repeat([growth ** (n + 1) * v_init for n in range(lo, hi)], sizes[1:])
            decomposition.append(np.max(np.abs(np.subtract(values, acc, out=acc), out=acc)))
            del acc
        if hi > N:
            replication = float(np.max(np.abs(values - claim.values)))  # F_N atoms are paths
        del gamma, s_before, values
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


def _down_the_tree(
    sums: np.ndarray, carry: np.ndarray, levels: np.ndarray, factor: float, then=None
) -> np.ndarray:
    """Running sums from the root down, in place: each atom's entry of sums
    plus factor times its parent's sum, then plus its entry of `then`.

    sums holds the levels of a block, level j at levels[j+1]..levels[j+2];
    carry is the level above the block. The levels go one after another, as
    each needs its parent's sums; each is one in-place add (two with
    `then`) in the association of a level computed alone. Returns a copy of
    the last level, the carry of the next block.
    """
    for j in range(len(levels) - 2):
        level = slice(levels[j + 1], levels[j + 2])
        parent = carry if j == 0 else sums[levels[j] : levels[j + 1]]
        own = sums[level].reshape(len(parent), -1)
        own += factor * parent[:, None]
        if then is not None:
            sums[level] += then[level]
    return sums[levels[-2] :].copy()


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
