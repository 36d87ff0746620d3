"""Ornstein-Uhlenbeck semigroup, covariance identities, deviation bound.

The semigroup damps the order-r chaos component by exp(-r t). It also has
a product-form integral kernel

    q_t(w~, w) = prod_n (1 + exp(-t) <Y_n(w), Y_n(w~)>),

which averages to one in w under the walk measure. Both routes are
implemented independently, one per-step operator per axis, and must agree:
the chaos route damps the coefficient tensor between the basis contractions,
and the kernel route applies each step's factor (1 + exp(-t) v v^T) * p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import SizeCapError
from .integrals import along_axes
from .malliavin import GradientField, gradient
from .omega import PathTable, _check_space, atom_average, expectation
from .walk import WalkSpec


@dataclass(frozen=True, eq=False)
class OUKernelMatrix:
    """Dense transition kernel q_t over path pairs, for inspection and tests."""

    t: float
    values: np.ndarray  # (num_paths, num_paths); rows indexed by the target path

    def row_defect(self, walk: WalkSpec) -> float:
        """Worst deviation of any probability-weighted row sum from one."""
        return float(np.max(np.abs(self.values @ walk.measure - 1.0)))

    def min_entry(self) -> float:
        return float(np.min(self.values))


def _check_time(t: float) -> float:
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return t


def _scale_chaos(walk: WalkSpec, table: PathTable, factors: Sequence[float]) -> PathTable:
    """Table whose order-r chaos component is factors[r] times that of F."""
    _check_space(walk, table)
    coef = along_axes(walk, walk.measure * table.values, [step.basis.T for step in walk.steps])
    # chaos order of every coefficient: the number of its nonzero digits
    nonzero = np.array([0] + [1] * walk.d)
    order = reduce(np.add.outer, [nonzero] * (walk.N + 1))
    coef = coef * np.asarray(factors, dtype=float)[order]
    values = along_axes(walk, coef, [step.basis for step in walk.steps])
    return PathTable(walk.space, values.ravel())


def ou_apply_chaos(walk: WalkSpec, table: PathTable, t: float) -> PathTable:
    """Apply the semigroup by damping the chaos expansion."""
    t = _check_time(t)
    return _scale_chaos(walk, table, [math.exp(-r * t) for r in range(walk.N + 2)])


def _step_kernels(walk: WalkSpec, t: float) -> list[np.ndarray]:
    """Per-step kernel factors 1 + exp(-t) <v_i, v_j>, rows indexed by the target."""
    damp = math.exp(-t)
    return [1.0 + damp * (step.v @ step.v.T) for step in walk.steps]


def ou_apply_kernel(walk: WalkSpec, table: PathTable, t: float) -> PathTable:
    """Apply the semigroup through its product-form probability kernel."""
    t = _check_time(t)
    _check_space(walk, table)
    mats = [q * step.p for q, step in zip(_step_kernels(walk, t), walk.steps)]
    return PathTable(walk.space, along_axes(walk, table.values, mats).ravel())


def ou_kernel_matrix(walk: WalkSpec, t: float) -> OUKernelMatrix:
    """Materialize the full kernel matrix (guarded by the enumeration cap)."""
    t = _check_time(t)
    num = walk.space.num_paths
    if num * num > walk.space.cap:
        raise SizeCapError(
            f"kernel matrix would need {num * num} entries, above the cap of {walk.space.cap}"
        )
    return OUKernelMatrix(t, reduce(np.kron, _step_kernels(walk, t)))


def cov_gradient(walk: WalkSpec, f: PathTable, g: PathTable) -> float:
    """Covariance via sum_k E[<E[D_k F | F_{k-1}], D_k G>]."""
    grad_f = gradient(walk, f)
    grad_g = gradient(walk, g)
    total = 0.0
    for k in range(walk.N + 1):
        xi = atom_average(walk, grad_f.values[k], k - 1)  # (P, d)
        inner = np.einsum("pj,pj->p", xi, grad_g.values[k])
        total += float(np.add.reduce(walk.measure * inner))
    return total


def cov_semigroup(walk: WalkSpec, f: PathTable, g: PathTable) -> float:
    """Covariance via sum_k int_0^inf e^{-t} E[<D_k F, P_t D_k G>] dt.

    Since D_k P_t = e^{-t} P_t D_k, the integrand is E[<D_k F, D_k P_t G>],
    and the time integral moves onto G: int_0^inf P_t (G - E[G]) dt is the
    table H whose order-r chaos is that of G divided by r. The result is
    sum_k E[<D_k F, D_k H>] with both gradients taken by finite differences.
    """
    h = _scale_chaos(walk, g, [0.0] + [1.0 / r for r in range(1, walk.N + 2)])
    inner = np.einsum("kpj,kpj->p", gradient(walk, f).values, gradient(walk, h).values)
    return float(np.add.reduce(walk.measure * inner))


def tail_probability(walk: WalkSpec, table: PathTable, x: float) -> float:
    """Exact P(F - E[F] >= x) by enumeration."""
    centered = table.values - expectation(walk, table)
    return float(np.add.reduce(walk.measure * (centered >= x)))


@dataclass(frozen=True)
class DeviationBound:
    """Constants and tail bounds for P(F - E[F] >= x).

    spread bounds any two single-outcome rewrites of F at one time;
    coeff_max bounds the |c_i^j|; grad_norm is the conservative
    max-over-paths of sum_k max_j |D_k^j F|. The Bennett-form bound always
    undercuts the logarithmic one, and the exact tail is reported alongside.
    """

    x: float
    spread: float
    coeff_max: float
    grad_norm: float
    scale: float
    bound_bennett: float
    bound_log: float
    oracle_tail: float


def deviation_bound(
    walk: WalkSpec,
    table: PathTable,
    x: float,
    spread: float | None = None,
    coeff_max: float | None = None,
) -> DeviationBound:
    """Bennett-type deviation bound with constants computed from the inputs.

    User-supplied constants are accepted only when at least as large as the
    computed minimal ones. Constant tables admit no bound for x > 0 and are
    rejected explicitly.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"deviation threshold must be > 0, got {x}")
    if table.space != walk.space:
        raise ValueError("table is not defined on the walk's path space")

    space = walk.space
    k_min = 0.0
    for k in range(space.N + 1):
        mutated = table.values[space.mutated_indices(k)]  # (P, d+1)
        k_min = max(k_min, float(np.max(mutated.max(axis=1) - mutated.min(axis=1))))
    c_min = max(float(np.max(np.abs(step.c))) for step in walk.steps)

    if spread is None:
        spread = k_min
    elif spread < k_min - 1e-12:
        raise ValueError(f"supplied spread {spread} is below the computed {k_min}")
    if coeff_max is None:
        coeff_max = c_min
    elif coeff_max < c_min - 1e-12:
        raise ValueError(f"supplied coefficient bound {coeff_max} is below the computed {c_min}")

    grad = gradient(walk, table)
    grad_norm = float(np.max(np.abs(grad.values).max(axis=2).sum(axis=0)))
    scale = walk.d * coeff_max * grad_norm
    if spread == 0.0 or scale == 0.0:
        raise ValueError("table is constant: deviation bound undefined for x > 0")

    u = x / scale
    g_u = (1.0 + u) * math.log1p(u) - u
    bound_bennett = math.exp(-(scale / spread) * g_u)
    bound_log = math.exp(-(x / (2.0 * spread)) * math.log1p(u))
    return DeviationBound(
        x=x,
        spread=spread,
        coeff_max=coeff_max,
        grad_norm=grad_norm,
        scale=scale,
        bound_bennett=bound_bennett,
        bound_log=bound_log,
        oracle_tail=tail_probability(walk, table, x),
    )


def exp_gradient_residual(
    walk: WalkSpec, table: PathTable, s: float
) -> float:
    """Worst defect of the exponential-gradient identity at scale s.

    Checks pointwise that exp(-sF) D_k^j exp(sF) equals
    sum_{i != w_k} c_i^j(k) (exp(s (F(w_i^k) - F)) - 1).
    """
    space = walk.space
    exp_table = PathTable(space, np.exp(s * table.values))
    grad_exp = gradient(walk, exp_table)
    worst = 0.0
    for k in range(space.N + 1):
        mutated = table.values[space.mutated_indices(k)]  # (P, d+1)
        diff = np.expm1(s * (mutated - table.values[:, None]))  # (P, d+1)
        taken = space.outcomes[:, k]
        diff[np.arange(space.num_paths), taken] = 0.0
        rhs = diff @ walk.steps[k].c  # (P, d)
        lhs = grad_exp.values[k] / exp_table.values[:, None]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def product_rule_residual(
    walk: WalkSpec, f: PathTable, g: PathTable
) -> float:
    """Worst defect of the gradient product correction.

    D_k^j(FG) - F D_k^j G - G D_k^j F must equal
    sum_{i != w_k} c_i^j(k) (F - F(w_i^k)) (G - G(w_i^k)).
    """
    space = walk.space
    grad_fg = gradient(walk, f * g)
    grad_f = gradient(walk, f)
    grad_g = gradient(walk, g)
    worst = 0.0
    for k in range(space.N + 1):
        mut = space.mutated_indices(k)
        df = f.values[:, None] - f.values[mut]  # (P, d+1)
        dg = g.values[:, None] - g.values[mut]
        prod = df * dg
        taken = space.outcomes[:, k]
        prod[np.arange(space.num_paths), taken] = 0.0
        correction = prod @ walk.steps[k].c  # (P, d)
        lhs = (
            grad_fg.values[k]
            - f.values[:, None] * grad_g.values[k]
            - g.values[:, None] * grad_f.values[k]
        )
        worst = max(worst, float(np.max(np.abs(lhs - correction))))
    return worst


def semigroup_gradient_contraction(
    walk: WalkSpec, grad: GradientField, t: float
) -> float:
    """max over paths of sum_k max_j |P_t(D_k^j F)| for the given gradient."""
    t = _check_time(t)
    damped = np.empty_like(grad.values)
    for k in range(walk.N + 1):
        for j in range(walk.d):
            damped[k][:, j] = ou_apply_kernel(
                walk, PathTable(walk.space, grad.values[k][:, j]), t
            ).values
    return float(np.max(np.abs(damped).max(axis=2).sum(axis=0)))
