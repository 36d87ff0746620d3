"""Per-tuple and dense-row reference versions of the chaos and OU operators.

`oracle_decompose` and `oracle_multiple_integral` evaluate one einsum per
increasing time tuple over the (N+1, P, d) increment table;
`oracle_ou_apply_kernel` builds the dense kernel q_t in blocks of rows;
`oracle_cov_semigroup` sums sliced multiple integrals over every order,
time and coordinate. They cost O(P^2) or more, where the library applies
one small per-step operator along each axis of the table
(`integrals.along_axes`). Tests compare the two on random walks.
"""
import math
from itertools import combinations

import numpy as np

from obtusewalk import ChaosCoefficients, Kernel, PathTable, WalkSpec, expectation, gradient
from obtusewalk.integrals import kernel_time_slice

#: einsum subscripts for the kernel axes of an order-r term: every ASCII
#: letter except "z", which is the path axis
LETTERS = "abcdefghijklmnopqrstuvwxyABCDEFGHIJKLMNOPQRSTUVWXYZ"

ROW_BLOCK = 4096


def oracle_decompose(walk: WalkSpec, table: PathTable) -> ChaosCoefficients:
    """Each component E[F * monomial] / r! as its own weighted sum over paths."""
    weighted = walk.measure * table.values
    kernels = []
    for r in range(1, walk.N + 2):
        letters = LETTERS[:r]
        subscripts = ",".join(["z"] + [f"z{c}" for c in letters]) + "->" + letters
        fact = math.factorial(r)
        entries = {}
        for times in combinations(range(walk.N + 1), r):
            operands = [weighted] + [walk.increments[t] for t in times]
            entries[times] = np.einsum(subscripts, *operands) / fact
        kernels.append(Kernel(r, walk.d, entries))
    return ChaosCoefficients(
        d=walk.d, N=walk.N, mean=expectation(walk, table), kernels=tuple(kernels)
    )


def oracle_multiple_integral(walk: WalkSpec, kernel: Kernel) -> np.ndarray:
    """r! times the sum over stored tuples of component times increment product."""
    if kernel.order == 0:
        return np.full(walk.space.num_paths, float(kernel.entries.get((), 0.0)))
    total = np.zeros(walk.space.num_paths)
    if kernel.order > walk.N + 1:
        return total
    letters = LETTERS[: kernel.order]
    subscripts = ",".join([letters] + [f"z{c}" for c in letters]) + "->z"
    for times in sorted(kernel.entries):
        operands = [kernel.entries[times]] + [walk.increments[t] for t in times]
        total += np.einsum(subscripts, *operands)
    return math.factorial(kernel.order) * total


def oracle_reconstruct(walk: WalkSpec, coeffs: ChaosCoefficients) -> np.ndarray:
    values = np.full(walk.space.num_paths, coeffs.mean)
    for kernel in coeffs.kernels:
        values = values + oracle_multiple_integral(walk, kernel)
    return values


def oracle_ou_apply_chaos(walk: WalkSpec, table: PathTable, t: float) -> np.ndarray:
    """Damp every stored component of order r by exp(-r t) and sum back."""
    coeffs = oracle_decompose(walk, table)
    damped = tuple(
        Kernel(k.order, k.d, {ts: math.exp(-k.order * t) * arr for ts, arr in k.entries.items()})
        for k in coeffs.kernels
    )
    return oracle_reconstruct(walk, ChaosCoefficients(coeffs.d, coeffs.N, coeffs.mean, damped))


def oracle_kernel_rows(walk: WalkSpec, t: float, start: int, stop: int) -> np.ndarray:
    """Kernel rows for target paths start..stop against all source paths."""
    block = np.ones((stop - start, walk.space.num_paths))
    damp = math.exp(-t)
    for n in range(walk.N + 1):
        yn = walk.increments[n]  # (P, d)
        block *= 1.0 + damp * (yn[start:stop] @ yn.T)
    return block


def oracle_ou_apply_kernel(walk: WalkSpec, table: PathTable, t: float) -> np.ndarray:
    num = walk.space.num_paths
    weighted = walk.measure * table.values
    out = np.empty(num)
    for start in range(0, num, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, num)
        out[start:stop] = oracle_kernel_rows(walk, t, start, stop) @ weighted
    return out


def oracle_cov_semigroup(walk: WalkSpec, f: PathTable, g: PathTable) -> float:
    """sum over orders r, times k, coordinates j of E[D_k^j F * I^{r-1}(f_r^j(*, k))]."""
    grad_f = gradient(walk, f)
    total = 0.0
    for kernel in oracle_decompose(walk, g).kernels:
        for k in range(walk.N + 1):
            for j in range(1, walk.d + 1):
                sliced = kernel_time_slice(kernel, j, k)
                if not sliced.entries:
                    continue
                part = oracle_multiple_integral(walk, sliced)
                dkj = grad_f.values[k][:, j - 1]
                total += float(np.add.reduce(walk.measure * dkj * part))
    return total
