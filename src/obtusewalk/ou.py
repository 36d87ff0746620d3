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

from .chaos import chaos_order
from .integrals import _synthesize, along_axes
from .malliavin import _gradient_inner, _step_gradient, clark_ocone
from .omega import PathTable, _check_cap, _check_finite, _check_space, expectation
from .walk import WalkSpec


def _check_time(t: float) -> float:
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return t


def _scale_chaos(walk: WalkSpec, table: PathTable, factors: Sequence[float]) -> PathTable:
    """Table whose order-r chaos component is factors[r] times that of F."""
    _check_space(walk.space, table)
    coef = along_axes(walk, walk.measure * table.values, [step.basis.T for step in walk.steps])
    factors = np.asarray(factors, dtype=float)[chaos_order(walk.d, walk.N)]
    return _synthesize(walk, coef * factors)


def ou_apply_chaos(walk: WalkSpec, table: PathTable, t: float) -> PathTable:
    """Apply the semigroup by damping the chaos expansion.

    The mean keeps the factor 1.0 exactly, also at t = inf, where exp(-0 * t) is NaN.
    """
    t = _check_time(t)
    return _scale_chaos(walk, table, [1.0] + [math.exp(-r * t) for r in range(1, walk.N + 2)])


def _step_kernels(walk: WalkSpec, t: float) -> list[np.ndarray]:
    """Per-step kernel factors 1 + exp(-t) <v_i, v_j>, rows indexed by the target."""
    damp = math.exp(-t)
    return [1.0 + damp * (step.v @ step.v.T) for step in walk.steps]


def ou_apply_kernel(walk: WalkSpec, table: PathTable, t: float) -> PathTable:
    """Apply the semigroup through its product-form probability kernel."""
    t = _check_time(t)
    _check_space(walk.space, table)
    mats = [q * step.p for q, step in zip(_step_kernels(walk, t), walk.steps)]
    return PathTable(walk.space, along_axes(walk, table.values, mats).ravel())


def ou_kernel_matrix(walk: WalkSpec, t: float) -> np.ndarray:
    """The dense (P, P) kernel q_t, rows indexed by the target path (guarded by the cap)."""
    t = _check_time(t)
    num = walk.space.num_paths
    _check_cap(num * num, walk.space.cap, "kernel matrix would need")
    return reduce(np.kron, _step_kernels(walk, t))


def cov_gradient(walk: WalkSpec, f: PathTable, g: PathTable) -> float:
    """Covariance via sum_k E[<xi_k, D_k G>], xi the Clark-Ocone integrand E[D_k F | F_{k-1}].

    xi_k is read on the atoms of F_{k-1} and D_k G one step at a time, so
    neither is ever held for all steps on every path.
    """
    _check_space(walk.space, f, "table f")
    _check_space(walk.space, g, "table g")
    xi = clark_ocone(walk, f)[1]
    inner = np.empty(walk.space.num_paths)
    total = 0.0
    for k in range(walk.N + 1):
        product = np.einsum("aj,aisj->ais", xi.at(k), _step_gradient(walk, g.values, k))
        walk.space.axis_view(inner, k)[...] = product
        total += float(np.add.reduce(walk.measure * inner))
    return total


def cov_semigroup(walk: WalkSpec, f: PathTable, g: PathTable) -> float:
    """Covariance via sum_k int_0^inf e^{-t} E[<D_k F, P_t D_k G>] dt.

    Since D_k P_t = e^{-t} P_t D_k, the integrand is E[<D_k F, D_k P_t G>],
    and the time integral moves onto G: int_0^inf P_t (G - E[G]) dt is the
    table H whose order-r chaos is that of G divided by r. The result is
    sum_k E[<D_k F, D_k H>], the gradients taken one step at a time.
    """
    _check_space(walk.space, f, "table f")
    _check_space(walk.space, g, "table g")
    h = _scale_chaos(walk, g, [0.0] + [1.0 / r for r in range(1, walk.N + 2)])
    return float(np.add.reduce(walk.measure * _gradient_inner(walk, f, h)))


def tail_probability(walk: WalkSpec, table: PathTable, x: float) -> float:
    """Exact P(F - E[F] >= x) by enumeration."""
    centered = table.values - expectation(walk, table)
    return float(np.add.reduce(walk.measure * (centered >= x)))


@dataclass(frozen=True)
class DeviationBound:
    """Constants and tail bounds for P(F - E[F] >= x).

    spread is the largest gap between two single-outcome rewrites of F at
    one time; coeff_max is the largest |c_i^j|; grad_norm is the conservative
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


def deviation_bound(walk: WalkSpec, table: PathTable, x: float) -> DeviationBound:
    """Bennett-type deviation bound with constants computed from the inputs.

    Constant tables admit no bound for x > 0 and are rejected explicitly, as
    is a table that is NaN or infinite on some path.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"deviation threshold must be finite and > 0, got {x}")
    _check_space(walk.space, table)
    _check_finite(table, "table")

    spread = 0.0
    for k in range(walk.N + 1):
        view = walk.space.axis_view(table.values, k)  # (atoms, d+1, atom_size)
        spread = max(spread, float(np.max(view.max(axis=1) - view.min(axis=1))))
    coeff_max = max(float(np.max(np.abs(step.c))) for step in walk.steps)

    # sum_k max_j |D_k^j F| per path, one step at a time; adding in order of k
    # rounds as summing the whole (N+1, P) gradient over axis 0 does
    grad_sum = np.zeros(walk.space.num_paths)
    for k in range(walk.N + 1):
        grad = _step_gradient(walk, table.values, k)  # (atoms, 1, atom_size, d)
        walk.space.axis_view(grad_sum, k)[...] += np.abs(grad).max(axis=-1)
    grad_norm = float(np.max(grad_sum))
    scale = walk.d * coeff_max * grad_norm
    if spread == 0.0 or scale == 0.0:
        raise ValueError("table is constant: deviation bound undefined for x > 0")

    u = x / scale
    g_u = (1.0 + u) * math.log1p(u) - u
    # as u grows, g(u) grows without bound and the bound tends to 0; at u = inf, g_u is NaN
    bound_bennett = 0.0 if math.isinf(u) else math.exp(-(scale / spread) * g_u)
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
