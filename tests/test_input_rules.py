"""The input rules every operator shares: one path space, indices in range and
sizes within the cap.

Each rule is one helper in omega; these tables run every public operator
that takes a table, process, walk, strategy or index into it and pin the
one-line message that the helper gives.
"""
import re

import numpy as np
import pytest

from obtusewalk import (
    MarketSpec,
    PathSpace,
    PathTable,
    PredictableProcess,
    SizeCapError,
    Strategy,
    VectorProcess,
    clark_ocone,
    clark_ocone_from,
    conditional_expectation,
    construct_obtuse,
    cov_gradient,
    cov_semigroup,
    covariance,
    crr_market,
    decompose,
    deviation_bound,
    divergence,
    eval_payoff,
    expectation,
    find_emm,
    gradient,
    gradient_chaos,
    hedge_clark_ocone,
    hedge_replicate,
    increment_rv,
    integrate_predictable,
    ou_apply_chaos,
    ou_apply_kernel,
    ou_kernel_matrix,
    poincare_check,
    predictable_representation,
    price_claim,
    project_horizon,
    structure_residual,
    structure_tensor,
    tail_probability,
    verify_strategy,
)
from obtusewalk.omega import atom_means
from obtusewalk.payoff import BondRef, PriceRef
from obtusewalk.walk import canonical_step

# -- one path space ------------------------------------------------------------

#: a (1, 3) walk and market, and inputs on the (3, 1) space, which has as many paths
WALK = construct_obtuse([[0.25, 0.75]] * 4)
MARKET = crr_market(100.0, 0.1, -0.1, 0.0, 4)
WQ = find_emm(MARKET)
OTHER = PathSpace(3, 1)
OTHER_WALK = construct_obtuse([[0.25] * 4] * 2)
MINE = PathTable(WALK.space, np.linspace(-1.0, 1.0, 16) ** 3)
THEIRS = PathTable(OTHER, np.linspace(-1.0, 1.0, 16) ** 2)
CLAIM = PathTable(MARKET.space, np.linspace(0.0, 1.0, 16))
ONE = PathTable.constant(WALK.space, 1.0)


def _strategy(space, width):
    steps = [np.zeros((space.atom_count(n - 1), width)) for n in range(space.N + 1)]
    return Strategy(PredictableProcess.from_steps(space, steps))


SPACE_CASES = {
    "expectation": (lambda: expectation(WALK, THEIRS), "table", "walk"),
    "conditional_expectation": (lambda: conditional_expectation(WALK, THEIRS, 0), "table", "walk"),
    "covariance-f": (lambda: covariance(WALK, THEIRS, MINE), "table f", "walk"),
    "covariance-g": (lambda: covariance(WALK, MINE, THEIRS), "table g", "walk"),
    "decompose": (lambda: decompose(WALK, THEIRS), "table", "walk"),
    "gradient": (lambda: gradient(WALK, THEIRS), "table", "walk"),
    "divergence": (
        lambda: divergence(WALK, VectorProcess(OTHER, np.zeros((2, 16, 3)))), "process", "walk"
    ),
    "clark_ocone": (lambda: clark_ocone(WALK, THEIRS), "table", "walk"),
    "clark_ocone_from": (lambda: clark_ocone_from(WALK, THEIRS, 0), "table", "walk"),
    "predictable_representation": (
        lambda: predictable_representation(WALK, [ONE, ONE, THEIRS, ONE]), "table 2", "walk"
    ),
    "poincare_check": (lambda: poincare_check(WALK, THEIRS), "table", "walk"),
    "integrate_predictable-atoms": (
        lambda: integrate_predictable(WALK, _strategy(OTHER, 3).positions), "process", "walk"
    ),
    "integrate_predictable-paths": (
        lambda: integrate_predictable(WALK, VectorProcess(OTHER, np.zeros((2, 16, 3)))),
        "process",
        "walk",
    ),
    "ou_apply_chaos": (lambda: ou_apply_chaos(WALK, THEIRS, 1.0), "table", "walk"),
    "ou_apply_kernel": (lambda: ou_apply_kernel(WALK, THEIRS, 1.0), "table", "walk"),
    "cov_gradient-f": (lambda: cov_gradient(WALK, THEIRS, MINE), "table f", "walk"),
    "cov_gradient-g": (lambda: cov_gradient(WALK, MINE, THEIRS), "table g", "walk"),
    "cov_semigroup-f": (lambda: cov_semigroup(WALK, THEIRS, MINE), "table f", "walk"),
    "cov_semigroup-g": (lambda: cov_semigroup(WALK, MINE, THEIRS), "table g", "walk"),
    "tail_probability": (lambda: tail_probability(WALK, THEIRS, 0.5), "table", "walk"),
    "deviation_bound": (lambda: deviation_bound(WALK, THEIRS, 0.5), "table", "walk"),
    "price_claim-claim": (lambda: price_claim(MARKET, WQ, THEIRS), "claim", "market"),
    "price_claim-walk": (
        lambda: price_claim(MARKET, OTHER_WALK, CLAIM), "risk-neutral walk", "market"
    ),
    "hedge_replicate-claim": (lambda: hedge_replicate(MARKET, WQ, THEIRS), "claim", "market"),
    "hedge_replicate-walk": (
        lambda: hedge_replicate(MARKET, OTHER_WALK, CLAIM), "risk-neutral walk", "market"
    ),
    "hedge_clark_ocone-claim": (lambda: hedge_clark_ocone(MARKET, WQ, THEIRS), "claim", "market"),
    "hedge_clark_ocone-walk": (
        lambda: hedge_clark_ocone(MARKET, OTHER_WALK, CLAIM), "risk-neutral walk", "market"
    ),
    "verify_strategy-strategy": (
        lambda: verify_strategy(MARKET, _strategy(OTHER, 4), CLAIM), "strategy", "market"
    ),
    "verify_strategy-claim": (
        lambda: verify_strategy(MARKET, _strategy(MARKET.space, 2), THEIRS), "claim", "market"
    ),
    "PathTable-arithmetic": (lambda: MINE + THEIRS, "operand", "table"),
}


@pytest.mark.parametrize("name", list(SPACE_CASES))
def test_input_on_another_path_space_is_refused(name):
    call, what, owner = SPACE_CASES[name]
    message = f"{what} is not defined on the {owner}'s path space"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- indices in range ---------------------------------------------------------

#: a (2, 2) walk, its chaos coefficients and processes, and a one-asset market with N = 2
WALK2 = construct_obtuse([[0.2, 0.3, 0.5]] * 3)
COEFFS2 = decompose(WALK2, PathTable(WALK2.space, np.arange(27.0)))
PROCESS2 = VectorProcess(WALK2.space, np.zeros((3, 27, 2)))
MARKET2 = crr_market(100.0, 0.1, -0.1, 0.0, 3)

#: name -> (call of the index, low, high, what the message calls the index)
RANGE_CASES = {
    "path_at": (WALK2.space.path_at, 0, 26, "path index"),
    "axis_view": (lambda k: WALK2.space.axis_view(np.zeros(27), k), 0, 2, "time index"),
    "atom_means": (lambda n: atom_means(WALK2, np.zeros(27), n), -1, 2, "conditioning time"),
    "conditional_expectation": (
        lambda n: conditional_expectation(WALK2, PathTable.constant(WALK2.space, 1.0), n),
        -1, 2, "conditioning time",
    ),
    "clark_ocone_from": (
        lambda n: clark_ocone_from(WALK2, PathTable.constant(WALK2.space, 1.0), n),
        -1, 2, "conditioning time",
    ),
    "VectorProcess.table-time": (lambda n: PROCESS2.table(n, 1), 0, 2, "time"),
    "VectorProcess.table-coordinate": (lambda j: PROCESS2.table(0, j), 1, 2, "coordinate"),
    "PredictableProcess.at": (_strategy(WALK2.space, 2).positions.at, 0, 2, "step"),
    "gradient_chaos-time": (lambda k: gradient_chaos(WALK2, COEFFS2, k, 1), 0, 2, "time"),
    "gradient_chaos-coordinate": (
        lambda j: gradient_chaos(WALK2, COEFFS2, 0, j), 1, 2, "coordinate"
    ),
    "project_horizon": (lambda h: project_horizon(COEFFS2, h), -1, 2, "horizon"),
    "structure_tensor": (lambda n: structure_tensor(WALK2, n), 0, 2, "step"),
    "structure_residual": (lambda n: structure_residual(WALK2, n), 0, 2, "step"),
    "increment_rv-step": (lambda n: increment_rv(WALK2, n, 1), 0, 2, "step"),
    "increment_rv-coordinate": (lambda j: increment_rv(WALK2, 0, j), 1, 2, "coordinate"),
    "eval_payoff-asset": (lambda a: eval_payoff(PriceRef(a, 0), MARKET2), 1, 1, "asset index"),
    "eval_payoff-price-time": (
        lambda t: eval_payoff(PriceRef(1, t), MARKET2), 0, 2, "time index"
    ),
    "eval_payoff-bond-time": (lambda t: eval_payoff(BondRef(t), MARKET2), 0, 2, "time index"),
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("name", list(RANGE_CASES))
def test_index_outside_its_range_is_refused(name, side):
    call, low, high, what = RANGE_CASES[name]
    value = low - 1 if side == "below" else high + 1
    message = f"{what} {value} outside [{low}, {high}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("name", list(RANGE_CASES))
def test_index_at_either_end_is_accepted(name):
    call, low, high, _ = RANGE_CASES[name]
    call(low)
    call(high)


#: name -> (call with a size or count one below the least it takes, the message)
BELOW_LEAST_CASES = {
    "PathSpace-dimension": (lambda: PathSpace(0, 1), "dimension must be >= 1, got 0"),
    "PathSpace-last-time": (lambda: PathSpace(1, -1), "last time index must be >= 0, got -1"),
    "predictable_representation-tables": (
        lambda: predictable_representation(WALK, [ONE] * WALK.N),
        "need 4 tables, got 3",
    ),
}


@pytest.mark.parametrize("name", list(BELOW_LEAST_CASES))
def test_count_below_its_least_is_refused(name):
    call, message = BELOW_LEAST_CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- sizes within the cap -----------------------------------------------------

def _market(d, cap):
    scenarios = np.zeros((1, d + 1, d, d))
    return MarketSpec(d=d, N=0, s_init=np.ones(d), rates=np.zeros(1), scenarios=scenarios, cap=cap)


#: name -> (build under a cap, entries it needs, the message's lead-in)
CAP_CASES = {
    "path space": (lambda cap: PathSpace(2, 3, cap), 81, "path space would need at least"),
    "completion": (
        lambda cap: construct_obtuse([[0.2, 0.3, 0.5]], cap),
        9,
        "step 0: completing 3 outcomes would need",
    ),
    "canonical step": (
        lambda cap: canonical_step([0.2, 0.3, 0.5], 0, cap),
        9,
        "step 0: completing 3 outcomes would need",
    ),
    "market scenarios": (lambda cap: _market(2, cap), 12, "market scenarios would need"),
    "kernel matrix": (
        lambda cap: ou_kernel_matrix(construct_obtuse([[0.5, 0.5]] * 2, cap), 1.0),
        16,
        "kernel matrix would need",
    ),
}


@pytest.mark.parametrize("name", list(CAP_CASES))
def test_size_above_the_cap_is_refused(name):
    build, entries, lead = CAP_CASES[name]
    build(entries)
    message = f"{lead} {entries} entries, above the cap of {entries - 1}"
    with pytest.raises(SizeCapError, match=f"^{re.escape(message)}$"):
        build(entries - 1)
