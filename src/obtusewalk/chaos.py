"""Exact chaos decomposition of path tables and its inverse.

At finite horizon the monomials Y_{t_1}^{k_1}...Y_{t_r}^{k_r} over increasing
time tuples form an orthonormal basis of the table space, so any table
decomposes exactly into a mean plus multiple integrals of orders 1..N+1.
The single place fixing the convention between basis coefficients and kernel
components is decompose: stored component = E[F * monomial] / r!, so that the
multiple integral's r! times the stored component reproduces the coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .integrals import Kernel, _block, _synthesize, along_axes
from .omega import PathTable, _check_space, expectation
from .walk import WalkSpec


@dataclass(frozen=True, eq=False)
class ChaosCoefficients:
    """Mean plus symmetric kernels of orders 1..N+1 (some possibly zero)."""

    d: int
    N: int
    mean: float
    kernels: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        for r, kernel in enumerate(self.kernels, start=1):
            if kernel.order != r:
                raise ValueError(f"kernel {r} has order {kernel.order}")
            if kernel.d != self.d:
                raise ValueError(f"kernel {r} has dimension {kernel.d}, expected {self.d}")
            if kernel.max_time() > self.N:
                raise ValueError(
                    f"kernel {r} uses time {kernel.max_time()}, beyond horizon {self.N}"
                )

    def kernel(self, order: int) -> Kernel:
        if 1 <= order <= len(self.kernels):
            return self.kernels[order - 1]
        return Kernel.zero(order, self.d)

    def max_order(self) -> int:
        """Largest order carrying a nonzero component (0 if purely constant)."""
        for r in range(len(self.kernels), 0, -1):
            if self.kernels[r - 1].max_time() >= 0:
                return r
        return 0

    def max_time(self) -> int:
        """Largest time index carrying a nonzero component (-1 if constant)."""
        return max((k.max_time() for k in self.kernels), default=-1)


def decompose(walk: WalkSpec, table: PathTable) -> ChaosCoefficients:
    """Expand a table over the orthonormal monomial basis.

    The coefficient of a monomial is E[F * monomial]. The per-step bases
    are orthonormal under the step laws, so all coefficients come from one
    contraction of measure * F with the transposed basis along each axis,
    exact up to rounding.
    """
    _check_space(walk, table)
    coef = along_axes(walk, walk.measure * table.values, [step.basis.T for step in walk.steps])
    kernels = []
    for r in range(1, walk.N + 2):
        fact = math.factorial(r)
        entries = {
            times: coef[_block(times, walk.N)] / fact
            for times in combinations(range(walk.N + 1), r)
        }
        kernels.append(Kernel(r, walk.d, entries))
    return ChaosCoefficients(
        d=walk.d, N=walk.N, mean=expectation(walk, table), kernels=tuple(kernels)
    )


def reconstruct(walk: WalkSpec, coeffs: ChaosCoefficients) -> PathTable:
    """Sum the mean and all multiple integrals back into a table."""
    if coeffs.d != walk.d:
        raise ValueError(f"coefficients have dimension {coeffs.d}, walk has {walk.d}")
    if coeffs.max_time() > walk.N:
        raise ValueError(
            f"coefficients use time {coeffs.max_time()}, beyond the walk horizon {walk.N}"
        )
    return _synthesize(walk, coeffs.mean, coeffs.kernels)


def project_horizon(coeffs: ChaosCoefficients, horizon: int) -> ChaosCoefficients:
    """Zero every component with a time index beyond the horizon.

    Projecting the coefficients matches conditioning the reconstructed table
    on the horizon's prefix field; horizon -1 keeps only the mean.
    """
    if not -1 <= horizon <= coeffs.N:
        raise ValueError(f"horizon {horizon} outside [-1, {coeffs.N}]")
    return ChaosCoefficients(
        d=coeffs.d,
        N=coeffs.N,
        mean=coeffs.mean,
        kernels=tuple(k.truncate(horizon) for k in coeffs.kernels),
    )


def parseval_energy(coeffs: ChaosCoefficients) -> float:
    """mean^2 + sum_r r! <f_r, f_r>; equals E[F^2] for exact coefficients."""
    total = coeffs.mean**2
    for kernel in coeffs.kernels:
        total += math.factorial(kernel.order) * kernel.dot(kernel)
    return total
