"""Per-tuple and dense-row reference versions of the chaos and OU operators.

`oracle_decompose` and `oracle_multiple_integral` evaluate one einsum per
increasing time tuple over the (N+1, P, d) increment table;
`oracle_ou_apply_kernel` builds the dense kernel q_t in blocks of rows;
`oracle_gradient_chaos` and `oracle_cov_semigroup` sum sliced multiple
integrals over every order, time and coordinate. They cost O(P^2) or more,
where the library applies one small per-step operator along each axis of
the coefficient tensor (`integrals.along_axes`). `oracle_kernel_view` is
the per-tuple `Kernel` view the JSON writer must reproduce. The per-tuple
kernel helpers (truncate, inner product, slices) and `monomial_table`, the
path table of one product of increment coordinates, are used by tests only.
Tests compare the two sides on random walks.
"""
import math
from itertools import combinations

import numpy as np

from obtusewalk import Kernel, PathTable, WalkSpec, expectation, gradient, increment_rv
from obtusewalk.integrals import along_axes

#: einsum subscripts for the kernel axes of an order-r term: every ASCII
#: letter except "z", which is the path axis
LETTERS = "abcdefghijklmnopqrstuvwxyABCDEFGHIJKLMNOPQRSTUVWXYZ"

ROW_BLOCK = 4096


def monomial_table(walk: WalkSpec, times, coords) -> PathTable:
    """Pointwise product of increment coordinates Y_{t_1}^{k_1} ... Y_{t_r}^{k_r}."""
    if len(times) != len(coords):
        raise ValueError("times and coords must have equal length")
    values = np.ones(walk.space.num_paths)
    for t, k in zip(times, coords):
        values *= increment_rv(walk, t, k).values
    return PathTable(walk.space, values)


# -- per-tuple kernel helpers ------------------------------------------------

def kernel_truncate(kernel: Kernel, horizon: int) -> Kernel:
    """Drop every entry with a time index beyond the horizon."""
    kept = {t: arr for t, arr in kernel.entries.items() if not t or t[-1] <= horizon}
    return Kernel.from_entries(kernel.order, kernel.d, kept)


def kernel_dot(f: Kernel, g: Kernel) -> float:
    """L^2 inner product of the symmetric extensions over distinct tuples.

    Every increasing tuple stands for its order! permutations, so the
    stored componentwise sum is scaled accordingly.
    """
    assert (f.order, f.d) == (g.order, g.d)
    total = 0.0
    for times in sorted(set(f.entries) & set(g.entries)):
        total += float(np.add.reduce((f.entries[times] * g.entries[times]).ravel()))
    return math.factorial(f.order) * total


def kernel_allclose(f: Kernel, g: Kernel, atol: float = 1e-12) -> bool:
    if (f.order, f.d) != (g.order, g.d):
        return False
    return all(
        np.all(np.abs(f.tensor(times) - g.tensor(times)) <= atol)
        for times in set(f.entries) | set(g.entries)
    )


def kernel_time_slice(kernel: Kernel, coord: int, time: int) -> Kernel:
    """Order-(r-1) kernel f^{coord}(*, time) on tuples containing the time.

    Fixing one argument of the symmetric kernel at the given time and the
    matching component index at coord lowers the order by one; tuples
    without the time contribute nothing (off-diagonal restriction).
    """
    assert kernel.order >= 1 and 1 <= coord <= kernel.d and time >= 0
    out = {}
    for times, tensor in kernel.entries.items():
        if time not in times:
            continue
        pos = times.index(time)
        out[times[:pos] + times[pos + 1 :]] = np.take(tensor, coord - 1, axis=pos)
    return Kernel.from_entries(kernel.order - 1, kernel.d, out)


def kernel_head_slice(kernel: Kernel, coord: int, time: int) -> Kernel:
    """Order-(r-1) kernel f^{coord}(*, time) restricted to tuples below the time."""
    return kernel_truncate(kernel_time_slice(kernel, coord, time), time - 1)


# -- chaos operators, one tuple at a time ------------------------------------

def oracle_decompose(walk: WalkSpec, table: PathTable) -> tuple[float, list[Kernel]]:
    """Mean and kernels: each component E[F * monomial] / r! as its own weighted sum."""
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
        kernels.append(Kernel.from_entries(r, walk.d, entries))
    return expectation(walk, table), kernels


def oracle_kernel_view(walk: WalkSpec, table: PathTable) -> tuple[float, list[Kernel]]:
    """Mean and kernels read per tuple out of one basis contraction, each block / r!.

    This is the view chaos_to_json must write digit for digit: on random
    doubles r! * (block / r!) differs from the block in the last bit.
    """
    coef = along_axes(walk, walk.measure * table.values, [step.basis.T for step in walk.steps])
    kernels = []
    for r in range(1, walk.N + 2):
        fact = math.factorial(r)
        entries = {}
        for times in combinations(range(walk.N + 1), r):
            block = tuple(slice(1, None) if n in times else 0 for n in range(walk.N + 1))
            entries[times] = coef[block] / fact
        kernels.append(Kernel.from_entries(r, walk.d, entries))
    return expectation(walk, table), kernels


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


def oracle_reconstruct(walk: WalkSpec, mean: float, kernels) -> np.ndarray:
    values = np.full(walk.space.num_paths, mean)
    for kernel in kernels:
        values = values + oracle_multiple_integral(walk, kernel)
    return values


def oracle_gradient_chaos(walk: WalkSpec, kernels, k: int, j: int) -> np.ndarray:
    """sum_r r I^{r-1}(f_r^j(*, k)): the chaos lowering, one sliced kernel per order."""
    values = np.zeros(walk.space.num_paths)
    for kernel in kernels:
        values = values + kernel.order * oracle_multiple_integral(
            walk, kernel_time_slice(kernel, j, k)
        )
    return values


def oracle_ou_apply_chaos(walk: WalkSpec, table: PathTable, t: float) -> np.ndarray:
    """Damp every stored component of order r by exp(-r t) and sum back."""
    mean, kernels = oracle_decompose(walk, table)
    damped = [
        Kernel.from_entries(k.order, k.d, {ts: math.exp(-k.order * t) * arr for ts, arr in k.entries.items()})
        for k in kernels
    ]
    return oracle_reconstruct(walk, mean, damped)


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
    for kernel in oracle_decompose(walk, g)[1]:
        for k in range(walk.N + 1):
            for j in range(1, walk.d + 1):
                sliced = kernel_time_slice(kernel, j, k)
                if not sliced.entries:
                    continue
                part = oracle_multiple_integral(walk, sliced)
                dkj = grad_f.values[k][:, j - 1]
                total += float(np.add.reduce(walk.measure * dkj * part))
    return total
