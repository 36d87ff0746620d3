"""Path-surgery reference versions of the Malliavin operators and identity checkers.

`mutated_indices` gathers, for every path, the d+1 paths that differ from
it only in the outcome at time k. `oracle_gradient` applies c_k to those
rows, `oracle_divergence` subtracts the gradient correction from the
stochastic integral over the (N+1, P, d) increment table, and
`oracle_integrand` / `oracle_predictable_integrand` average the
path-surgery gradient over atoms as Clark-Ocone and the predictable
representation do. The library acts on one axis of the (d+1,)*(N+1) view
instead (`PathSpace.axis_view`); tests compare the two sides on random
walks. `exp_gradient_residual`, `product_rule_residual` and
`semigroup_gradient_contraction` check identities of the library
gradient and are used by tests only.
"""
import numpy as np

from obtusewalk import PathTable, VectorProcess, WalkSpec, gradient, ou_apply_kernel
from obtusewalk.omega import PathSpace
from helpers import atom_average


def mutated_indices(space: PathSpace, k: int) -> np.ndarray:
    """(num_paths, d+1) indices of each path with outcome k forced to i."""
    if not 0 <= k <= space.N:
        raise ValueError(f"time index {k} outside [0, {space.N}]")
    stride = space.atom_size(k)
    base = np.arange(space.num_paths, dtype=np.int64)
    # outcome k of each path from its index, without the (P, N+1) outcomes table
    base = base - (base // stride) % (space.d + 1) * stride
    return base[:, None] + np.arange(space.d + 1, dtype=np.int64) * stride


def oracle_step_gradient(walk: WalkSpec, values: np.ndarray, k: int) -> np.ndarray:
    """(P, d) finite difference sum_i c_i^j(k) F(w with outcome k forced to i)."""
    return values[mutated_indices(walk.space, k)] @ walk.steps[k].c


def oracle_gradient(walk: WalkSpec, table: PathTable) -> np.ndarray:
    """(N+1, P, d) gradient by path surgery."""
    return np.stack([oracle_step_gradient(walk, table.values, k) for k in range(walk.N + 1)])


def oracle_integrand(walk: WalkSpec, table: PathTable, n: int = -1) -> np.ndarray:
    """Clark-Ocone integrand from time n: E[D_k F | F_{k-1}] for k > n, zero before."""
    grad = oracle_gradient(walk, table)
    xi = np.zeros_like(grad)
    for k in range(n + 1, walk.N + 1):
        xi[k] = atom_average(walk, grad[k], k - 1)
    return xi


def oracle_predictable_integrand(walk: WalkSpec, martingale) -> np.ndarray:
    """E[D_n M_n | F_{n-1}] at each n, the integrand of the predictable representation."""
    return np.stack([
        atom_average(walk, oracle_step_gradient(walk, m.values, n), n - 1)
        for n, m in enumerate(martingale)
    ])


def oracle_divergence(walk: WalkSpec, values: np.ndarray) -> np.ndarray:
    """sum_k <X_k, Y_k> - sum_i sum_k <D_k(X_k^i), Y_k> Y_k^i over the increment table."""
    space = walk.space
    total = np.einsum("npj,npj->p", values, walk.increments)
    for k in range(space.N + 1):
        mutated = values[k][mutated_indices(space, k)]  # (P, d+1, d_i)
        grad = np.einsum("pmi,mj->pij", mutated, walk.steps[k].c)  # (P, j, i)
        yk = walk.increments[k]  # (P, d)
        total = total - np.einsum("pij,pj,pi->p", grad, yk, yk)
    return total


def oracle_spread(walk: WalkSpec, table: PathTable) -> float:
    """Largest gap between two single-outcome rewrites of the table at one time."""
    worst = 0.0
    for k in range(walk.N + 1):
        mutated = table.values[mutated_indices(walk.space, k)]  # (P, d+1)
        worst = max(worst, float(np.max(mutated.max(axis=1) - mutated.min(axis=1))))
    return worst


# -- identity checkers of the library gradient ---------------------------------

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
        mutated = table.values[mutated_indices(space, k)]  # (P, d+1)
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
        mut = mutated_indices(space, k)
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
    walk: WalkSpec, grad: VectorProcess, t: float
) -> float:
    """max over paths of sum_k max_j |P_t(D_k^j F)| for the given gradient."""
    damped = np.empty_like(grad.values)
    for k in range(walk.N + 1):
        for j in range(walk.d):
            damped[k][:, j] = ou_apply_kernel(
                walk, PathTable(walk.space, grad.values[k][:, j]), t
            ).values
    return float(np.max(np.abs(damped).max(axis=2).sum(axis=0)))
