"""Exact stochastic analysis on finite obtuse random walks.

Chaos expansions, finite-difference gradient and divergence operators,
predictable representations, the damping semigroup with its probability
kernel, tail bounds, and complete-market hedging, all on an exhaustively
enumerated path space so every identity can be checked against brute force.
"""

from .chaos import (
    ChaosCoefficients,
    decompose,
    multiple_integral,
    parseval_energy,
    project_horizon,
    reconstruct,
)
from .errors import (
    MartingaleError,
    ObtuseWalkError,
    PredictabilityError,
    SizeCapError,
)
from .integrals import (
    Kernel,
    PredictableProcess,
    VectorProcess,
    integrate_predictable,
    monomial_kernel,
    symmetrize,
)
from .malliavin import (
    clark_ocone,
    clark_ocone_from,
    divergence,
    gradient,
    gradient_chaos,
    poincare_check,
    predictable_representation,
)
from .market import (
    ArbitrageError,
    IncompleteMarketError,
    MarketSpec,
    Strategy,
    crr_market,
    find_emm,
    hedge_clark_ocone,
    hedge_replicate,
    price_claim,
    verify_strategy,
)
from .omega import (
    DEFAULT_CAP,
    PathSpace,
    PathTable,
    conditional_expectation,
    covariance,
    expectation,
    is_measurable,
)
from .ou import (
    DeviationBound,
    cov_gradient,
    cov_semigroup,
    deviation_bound,
    ou_apply_chaos,
    ou_apply_kernel,
    ou_kernel_matrix,
    tail_probability,
)
from .payoff import eval_payoff, parse_payoff, to_source
from .walk import (
    StepLaw,
    ValidationReport,
    WalkSpec,
    construct_obtuse,
    increment_rv,
    structure_residual,
    structure_tensor,
    validate,
)

__version__ = "0.1.0"
