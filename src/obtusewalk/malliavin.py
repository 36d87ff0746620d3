"""Gradient, divergence, Clark-Ocone representation, and related identities.

Gradient and divergence act on the outcome-k axis of the table
(PathSpace.axis_view): D_k^j F(w) = sum_i c_i^j(k) F(w, outcome k set to i)
contracts it with c_k; the divergence, adjoint of the gradient, integrates
the outcome at k out of X_k. The Clark-Ocone integrand E[D_k F | F_{k-1}] =
sum_i c_i(k) E[F | F_{k-1}, w_k = i] needs only the means of F on atoms,
and is returned one row per atom of F_{k-1} (integrals.PredictableProcess).
Both products with c_k add 0.0, since BLAS may sign an exact-zero sum by
where its operands lie; -0.0 + 0.0 is +0.0.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .chaos import ChaosCoefficients, _on_walk
from .errors import MartingaleError
from .integrals import PredictableProcess, VectorProcess, _synthesize
from .omega import (
    PathTable,
    _check_range,
    _check_space,
    _negligible,
    _tree_offset,
    atom_deviation,
    conditional_expectation,
    covariance,
    expectation,
    tree_means,
)
from .walk import WalkSpec

#: largest measurability or martingale defect that predictable_representation
#: accepts, relative to the largest |entry| of what the check reads
MARTINGALE_TOL = 1e-9


def _step_gradient(walk: WalkSpec, values: np.ndarray, k: int) -> np.ndarray:
    """D_k F as (atoms of F_{k-1}, 1, atom_size(k), d): constant along w_k, axis 1."""
    view = walk.space.axis_view(values, k)  # (atoms, d+1, atom_size)
    grad = view.transpose(0, 2, 1).reshape(-1, walk.d + 1) @ walk.steps[k].c + 0.0
    return grad.reshape(len(view), 1, -1, walk.d)


def _gradient_inner(walk: WalkSpec, f: PathTable, g: PathTable) -> np.ndarray:
    """sum_k <D_k F, D_k G> per path, one step at a time; adding in order of k
    rounds as summing the whole (N+1, P, d) product over its first and last axes does."""
    total = np.zeros(walk.space.num_paths)
    for k in range(walk.N + 1):
        grad_f = _step_gradient(walk, f.values, k)
        grad_g = grad_f if g is f else _step_gradient(walk, g.values, k)
        walk.space.axis_view(total, k)[...] += np.einsum("aisj,aisj->ais", grad_f, grad_g)
    return total


def gradient(walk: WalkSpec, table: PathTable) -> VectorProcess:
    """Gradient of a table at every time and coordinate: the process (D_0 F, ..., D_N F)."""
    _check_space(walk.space, table)
    space = walk.space
    out = np.empty((space.N + 1, space.num_paths, walk.d))
    for k in range(space.N + 1):
        space.axis_view(out[k], k)[...] = _step_gradient(walk, table.values, k)
    out.setflags(write=False)
    return VectorProcess(space, out)


def atom_integrand(walk: WalkSpec, means: np.ndarray, first: int) -> np.ndarray:
    """sum_i c_i(k) E[F | F_{k-1}, w_k = i] per atom of F_{k-1}, for k = first, first + 1, ...

    means holds the means on the atoms of F_first, F_{first+1}, ... in tree
    order (omega.tree_means), and the rows come out in the same order. Each
    step is one product with its own c_k: BLAS picks its kernel by the shape
    of the product, so a product over several steps would round differently.
    """
    rows = means.reshape(-1, walk.d + 1)
    out = np.empty((len(rows), walk.d))
    start, k = 0, first
    while start < len(rows):
        stop = start + walk.space.atom_count(k - 1)
        np.matmul(rows[start:stop], walk.steps[k].c, out=out[start:stop])
        start, k = stop, k + 1
    out += 0.0
    return out


def gradient_chaos(
    walk: WalkSpec, coeffs: ChaosCoefficients, k: int, j: int
) -> PathTable:
    """Gradient via chaos lowering: D_k^j removes the factor Y_k^j from each monomial.

    The coefficients with digit j at time k move to digit 0 there; every
    other coefficient with a nonzero digit at k maps to zero. Agrees with
    the gradient of the reconstructed table.
    """
    _check_range(k, 0, walk.N, "time")
    _check_range(j, 1, walk.d, "coordinate")
    coef = _on_walk(walk, coeffs)
    head = (slice(None),) * k
    lowered = np.zeros_like(coef)
    lowered[head + (0,)] = coef[head + (j,)]
    return _synthesize(walk, lowered)


def divergence(walk: WalkSpec, process: VectorProcess) -> PathTable:
    """Extension of the stochastic integral to arbitrary integrands.

    delta(X) = sum_k <E_k X_k, Y_k>, E_k integrating out the outcome at
    time k alone. E_k is skipped where X_k is exactly constant along that
    axis, since its weights sum to one only up to rounding, so on
    predictable processes the result is bit-identical to the integral.
    """
    _check_space(walk.space, process, "process")
    total = np.zeros(walk.space.num_paths)
    for k, step in enumerate(walk.steps):
        view = walk.space.axis_view(process.values[k], k)  # (atoms, d+1, atom_size, d)
        if np.any(view != view[:, :1]):
            view = np.einsum("i,aisj->asj", step.p, view)[:, None]
        total += np.einsum("aisj,ij->ais", view, step.v).ravel()
    return PathTable(walk.space, total)


def _integrand_from(walk: WalkSpec, table: PathTable, n: int) -> PredictableProcess:
    """E[D_k F | F_{k-1}] for k > n, from one atom_integrand call on the means
    on F_{n+1}..F_N (omega.tree_means), and zero for the steps k <= n."""
    steps = [np.zeros((_tree_offset(walk.d, n), walk.d))]  # the rows of steps 0..n
    if n < walk.N:
        steps.append(atom_integrand(walk, tree_means(walk, table.values, n + 1, walk.N + 1), n + 1))
    return PredictableProcess.from_steps(walk.space, steps)


def clark_ocone(walk: WalkSpec, table: PathTable) -> tuple[float, PredictableProcess]:
    """Predictable representation F = E[F] + sum_k <E[D_k F | F_{k-1}], Y_k>."""
    return expectation(walk, table), _integrand_from(walk, table, -1)


def clark_ocone_from(
    walk: WalkSpec, table: PathTable, n: int
) -> tuple[PathTable, PredictableProcess]:
    """Representation from an intermediate time n in [-1, N]:

    F = E[F | F_n] + sum_{k > n} <E[D_k F | F_{k-1}], Y_k>; the steps k <= n
    of the integrand are zero.
    """
    return conditional_expectation(walk, table, n), _integrand_from(walk, table, n)


def predictable_representation(
    walk: WalkSpec, martingale: Sequence[PathTable]
) -> tuple[float, PredictableProcess]:
    """Integrand gamma with M_n = M_init + sum_{k<=n} <gamma_k, Y_k>.

    The input is the scalar martingale (M_0, ..., M_N); its deterministic
    initial value is E[M_0]. Vector-valued martingales are handled one
    component at a time. Raises MartingaleError when adaptedness or the
    martingale property (on the atom means of M_n and M_{n-1}) fails by more
    than MARTINGALE_TOL times the largest |entry| the check reads: M_n, or
    the atom means of M_n and M_{n-1} (omega._negligible). Scaling the
    martingale leaves both verdicts as they are.
    """
    if len(martingale) != walk.N + 1:
        raise ValueError(f"need {walk.N + 1} tables, got {len(martingale)}")
    for n, m in enumerate(martingale):
        _check_space(walk.space, m, f"table {n}")
        defect = atom_deviation(m.values, walk.space, n)
        if not _negligible(defect, MARTINGALE_TOL, m.values):
            raise MartingaleError(
                f"M_{n} is not measurable at time {n} (deviation {defect:.3e})"
            )
    m_init = expectation(walk, martingale[0])
    prev = np.array([m_init])
    steps = []
    for n, (m, step) in enumerate(zip(martingale, walk.steps)):
        means = tree_means(walk, m.values, n, n + 1)
        defect = float(np.max(np.abs(means.reshape(-1, walk.d + 1) @ step.p - prev)))
        if not _negligible(defect, MARTINGALE_TOL, means, prev):
            raise MartingaleError(
                f"martingale property fails at step {n} (deviation {defect:.3e})"
            )
        steps.append(atom_integrand(walk, means, n))
        prev = means
    return m_init, PredictableProcess.from_steps(walk.space, steps)


def poincare_check(walk: WalkSpec, table: PathTable) -> tuple[float, float]:
    """Variance of the table and its gradient-energy upper bound."""
    _check_space(walk.space, table)
    variance = covariance(walk, table, table)
    bound = expectation(walk, PathTable(walk.space, _gradient_inner(walk, table, table)))
    return variance, bound
