"""Exact chaos decomposition of path tables and its inverse.

At finite horizon the monomials Y_{t_1}^{k_1}...Y_{t_r}^{k_r} over increasing
time tuples form an orthonormal basis of the table space, so any table
decomposes exactly into a mean plus multiple integrals of orders 1..N+1.
All basis coefficients form one (d+1,)*(N+1) tensor: index (a_0, ..., a_N)
is the monomial with the factor Y_n^{a_n} at each nonzero digit a_n, its
entry is E[F * monomial], the mean sits at the all-zero index, and the
chaos order of an entry is its count of nonzero digits. Decompose and
reconstruct are one per-step contraction each (integrals.along_axes); every
other operation is a slice of the tensor.

Symmetric kernels (integrals.Kernel) are the view at the user boundary
only: multiple_integral, kernel(r) and the JSON files. One index map takes
a kernel's (U, r) time tuples to the flat positions of their blocks:
from_kernels adds r! times each tuple's component tensor there, and
kernel(r) gathers the blocks back divided by r!.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .integrals import Kernel, _synthesize, along_axes
from .omega import PathTable, _check_range, _check_space, _frozen_float, expectation
from .walk import WalkSpec


def chaos_order(d: int, N: int) -> np.ndarray:
    """(d+1,)*(N+1) tensor of chaos orders: the count of each index's nonzero digits."""
    nonzero = np.array([0] + [1] * d)
    return reduce(np.add.outer, [nonzero] * (N + 1))


def _block_index(d: int, N: int, times: np.ndarray) -> np.ndarray:
    """(U, d**r) flat indices into the (d+1,)*(N+1) tensor of the blocks of
    (U, r) time tuples within the horizon: row u holds the coefficients with
    digits 1..d at times[u] and 0 elsewhere, digits in C order."""
    order = times.shape[1]
    digits = np.arange(d**order) // d ** np.arange(order - 1, -1, -1)[:, None] % d + 1
    return (d + 1) ** (N - times) @ digits


@dataclass(frozen=True, eq=False)
class ChaosCoefficients:
    """Read-only (d+1,)*(N+1) tensor of E[F * monomial] over the monomial basis."""

    d: int
    N: int
    coef: np.ndarray

    def __post_init__(self) -> None:
        coef = _frozen_float(self.coef)
        shape = (self.d + 1,) * (self.N + 1)
        if coef.shape != shape:
            raise ValueError(f"coefficients have shape {coef.shape}, expected {shape}")
        object.__setattr__(self, "coef", coef)

    @staticmethod
    def from_kernels(
        d: int, N: int, mean: float, kernels: Iterable[Kernel]
    ) -> "ChaosCoefficients":
        """Coefficients of mean + sum of I^r(f_r): r! f_r fills each tuple's block.

        An order-0 kernel adds to the mean.
        """
        coef = np.zeros((d + 1,) * (N + 1))
        coef[(0,) * (N + 1)] = float(mean)
        flat = coef.reshape(-1)
        for kernel in kernels:
            order, times, tensors = kernel.order, kernel.times, kernel.tensors
            if kernel.d != d:
                raise ValueError(f"kernel of order {order} has dimension {kernel.d}, expected {d}")
            last = times[:, -1] if order else np.full(len(times), -1)
            worst = last[np.any(tensors != 0.0, axis=1)].max(initial=-1)
            if worst > N:
                raise ValueError(f"kernel of order {order} uses time {worst}, beyond horizon {N}")
            inside = last <= N  # entries beyond the horizon are zero
            if inside.any():  # orders above N + 1 have none and would size digits by d**order
                flat[_block_index(d, N, times[inside])] += math.factorial(order) * tensors[inside]
        return ChaosCoefficients(d, N, coef)

    @property
    def mean(self) -> float:
        return float(self.coef[(0,) * (self.N + 1)])

    def kernel(self, order: int) -> Kernel:
        """Symmetric kernel view of one order: each tuple's block divided by order!.

        Order 0 is the mean; orders beyond N+1 have no tuples and are zero.
        """
        count = math.comb(self.N + 1, order)
        if not count:
            return Kernel.zero(order, self.d)
        tuples = chain.from_iterable(combinations(range(self.N + 1), order))
        times = np.fromiter(tuples, dtype=np.int64, count=count * order).reshape(count, order)
        blocks = self.coef.reshape(-1)[_block_index(self.d, self.N, times)]
        return Kernel(order, self.d, times, blocks / math.factorial(order))

    def max_order(self) -> int:
        """Largest order carrying a nonzero component (0 if purely constant)."""
        return int(chaos_order(self.d, self.N)[self.coef != 0.0].max(initial=0))

    def max_time(self) -> int:
        """Largest time index carrying a nonzero component (-1 if constant)."""
        for n in range(self.N, -1, -1):
            digits = self.coef.reshape((self.d + 1) ** n, self.d + 1, -1)
            if np.any(digits[:, 1:] != 0.0):
                return n
        return -1


def decompose(walk: WalkSpec, table: PathTable) -> ChaosCoefficients:
    """Expand a table over the orthonormal monomial basis.

    The coefficient of a monomial is E[F * monomial]. The per-step bases
    are orthonormal under the step laws, so all coefficients come from one
    contraction of measure * F with the transposed basis along each axis,
    exact up to rounding. The mean entry is the expectation itself.
    """
    _check_space(walk.space, table)
    coef = along_axes(walk, walk.measure * table.values, [step.basis.T for step in walk.steps])
    coef[(0,) * (walk.N + 1)] = expectation(walk, table)
    return ChaosCoefficients(walk.d, walk.N, coef)


def _on_walk(walk: WalkSpec, coeffs: ChaosCoefficients) -> np.ndarray:
    """The coefficient tensor on the walk's horizon.

    Coefficients of another horizon are accepted when they use no time
    beyond the walk's: trailing axes are cut or padded at digit 0.
    """
    if coeffs.d != walk.d:
        raise ValueError(f"coefficients have dimension {coeffs.d}, walk has {walk.d}")
    if coeffs.max_time() > walk.N:
        raise ValueError(
            f"coefficients use time {coeffs.max_time()}, beyond the walk horizon {walk.N}"
        )
    if coeffs.N >= walk.N:
        return coeffs.coef[(Ellipsis,) + (0,) * (coeffs.N - walk.N)]
    coef = np.zeros((walk.d + 1,) * (walk.N + 1))
    coef[(Ellipsis,) + (0,) * (walk.N - coeffs.N)] = coeffs.coef
    return coef


def reconstruct(walk: WalkSpec, coeffs: ChaosCoefficients) -> PathTable:
    """Sum the mean and all multiple integrals back into a table."""
    return _synthesize(walk, _on_walk(walk, coeffs))


def multiple_integral(walk: WalkSpec, kernel: Kernel) -> PathTable:
    """Evaluate the multiple stochastic integral of the kernel as a table."""
    return _synthesize(walk, ChaosCoefficients.from_kernels(walk.d, walk.N, 0.0, [kernel]).coef)


def project_horizon(coeffs: ChaosCoefficients, horizon: int) -> ChaosCoefficients:
    """Zero every coefficient with a nonzero digit beyond the horizon.

    Projecting the coefficients matches conditioning the reconstructed table
    on the horizon's prefix field; horizon -1 keeps only the mean.
    """
    _check_range(horizon, -1, coeffs.N, "horizon")
    rows = coeffs.coef.reshape((coeffs.d + 1) ** (horizon + 1), -1)
    kept = np.zeros_like(rows)
    kept[:, 0] = rows[:, 0]
    return ChaosCoefficients(coeffs.d, coeffs.N, kept.reshape(coeffs.coef.shape))


def parseval_energy(coeffs: ChaosCoefficients) -> float:
    """Sum of the squared coefficients; equals E[F^2] for exact coefficients."""
    return float(np.add.reduce((coeffs.coef * coeffs.coef).ravel()))
