"""Single and multiple stochastic integrals of symmetric kernels.

An order-r kernel is stored only on strictly increasing time tuples, one
dense d^r component tensor per tuple; the symmetric extension to arbitrary
distinct tuples permutes component indices along with the times. The
multiple integral is then

    I^r(f) = r! * sum over increasing tuples, components of
             f^{k_1..k_r}(t_1..t_r) Y_{t_1}^{k_1} ... Y_{t_r}^{k_r},

and the stochastic integral of a predictable process U is
sum_n <U_n, Y_n>.

Integrals are evaluated from a (d+1,)*(N+1) coefficient tensor contracted
with the per-step bases [1 | v] one axis at a time (along_axes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PredictabilityError
from .omega import PathSpace, PathTable, _frozen_float, atom_deviation
from .walk import WalkSpec

#: raw kernel entry: (times, coords, value) with 1-based coordinates
RawEntry = tuple[Sequence[int], Sequence[int], float]


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric order-r kernel stored on increasing time tuples.

    entries maps each increasing tuple to a (d,)*order component tensor;
    missing tuples are zero. Order 0 is a single scalar stored at the
    empty tuple.
    """

    order: int
    d: int
    entries: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("kernel order must be >= 0")
        clean: dict[tuple[int, ...], np.ndarray] = {}
        shape = (self.d,) * self.order
        for times, tensor in sorted(self.entries.items()):
            times = tuple(int(t) for t in times)
            if len(times) != self.order:
                raise ValueError(f"tuple {times} has length != order {self.order}")
            if any(t < 0 for t in times):
                raise ValueError(f"negative time index in {times}")
            if any(a >= b for a, b in zip(times, times[1:])):
                raise ValueError(f"time tuple {times} is not strictly increasing")
            arr = np.array(tensor, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"tensor at {times} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            clean[times] = arr
        object.__setattr__(self, "entries", clean)

    @staticmethod
    def zero(order: int, d: int) -> "Kernel":
        return Kernel(order, d, {})

    @staticmethod
    def scalar(value: float, d: int) -> "Kernel":
        return Kernel(0, d, {(): np.array(float(value))})

    def tensor(self, times: tuple[int, ...]) -> np.ndarray:
        """Component tensor at an increasing tuple (zeros if unset)."""
        out = self.entries.get(tuple(times))
        if out is None:
            return np.zeros((self.d,) * self.order)
        return out

    def max_time(self) -> int:
        """Largest time index carrying a nonzero component (-1 if none)."""
        worst = -1
        for times, tensor in self.entries.items():
            if times and np.any(tensor != 0.0):
                worst = max(worst, times[-1])
        return worst

    def truncate(self, horizon: int) -> "Kernel":
        """Drop every entry with a time index beyond the horizon."""
        kept = {
            t: arr for t, arr in self.entries.items() if not t or t[-1] <= horizon
        }
        return Kernel(self.order, self.d, kept)

    def dot(self, other: "Kernel") -> float:
        """L^2 inner product of the symmetric extensions over distinct tuples.

        Every increasing tuple stands for its order! permutations, so the
        stored componentwise sum is scaled accordingly.
        """
        if (self.order, self.d) != (other.order, other.d):
            raise ValueError("kernels have mismatched order or dimension")
        total = 0.0
        for times in sorted(set(self.entries) & set(other.entries)):
            total += float(np.add.reduce((self.entries[times] * other.entries[times]).ravel()))
        return math.factorial(self.order) * total

    def allclose(self, other: "Kernel", atol: float = 1e-12) -> bool:
        if (self.order, self.d) != (other.order, other.d):
            return False
        for times in set(self.entries) | set(other.entries):
            if not np.all(np.abs(self.tensor(times) - other.tensor(times)) <= atol):
                return False
        return True


def symmetrize(raw: Iterable[RawEntry], order: int, d: int) -> Kernel:
    """Symmetrize a raw assignment given on arbitrary distinct-time tuples.

    Each raw value contributes value/r! to the component obtained by sorting
    its time tuple and carrying the coordinate indices along. Entries on the
    same ordered tuple accumulate; already-symmetric input (all orderings
    present) is reproduced unchanged.
    """
    if order == 0:
        total = 0.0
        for times, coords, value in raw:
            if tuple(times) != () or tuple(coords) != ():
                raise ValueError("order-0 entries must have empty times and coords")
            total += float(value)
        return Kernel.scalar(total, d)

    fact = math.factorial(order)
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for times, coords, value in raw:
        times = tuple(int(t) for t in times)
        coords = tuple(int(k) for k in coords)
        if len(times) != order or len(coords) != order:
            raise ValueError(f"entry at {times} must carry {order} times and coords")
        if len(set(times)) != order:
            raise ValueError(f"time tuple {times} has repeated indices")
        if any(k < 1 or k > d for k in coords):
            raise ValueError(f"coordinates {coords} outside [1, {d}]")
        key = tuple(sorted(times))
        # position of each original time inside the sorted tuple
        perm = [key.index(t) for t in times]
        comp = [0] * order
        for m, pos in enumerate(perm):
            comp[pos] = coords[m] - 1
        tensor = acc.setdefault(key, np.zeros((d,) * order))
        tensor[tuple(comp)] += float(value) / fact
    return Kernel(order, d, acc)


def monomial_kernel(times: Sequence[int], coords: Sequence[int], d: int) -> Kernel:
    """Kernel whose multiple integral is exactly Y_{t_1}^{k_1} ... Y_{t_r}^{k_r}."""
    times = tuple(int(t) for t in times)
    coords = tuple(int(k) for k in coords)
    if len(times) != len(coords):
        raise ValueError("times and coords must have equal length")
    if any(a >= b for a, b in zip(times, times[1:])):
        raise ValueError(f"time tuple {times} is not strictly increasing")
    if any(t < 0 for t in times):
        raise ValueError(f"negative time index in {times}")
    if any(k < 1 or k > d for k in coords):
        raise ValueError(f"coordinates {coords} outside [1, {d}]")
    r = len(times)
    if r == 0:
        return Kernel.scalar(1.0, d)
    tensor = np.zeros((d,) * r)
    tensor[tuple(k - 1 for k in coords)] = 1.0 / math.factorial(r)
    return Kernel(r, d, {times: tensor})


def along_axes(walk: WalkSpec, values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply mats[n] along axis n of the (d+1,)*(N+1) view of a table.

    out[a_0..a_N] = sum_w prod_n mats[n][a_n, w_n] values[w_0..w_N]: the
    Kronecker product of the per-step matrices times the table, one
    (d+1)x(d+1) contraction per axis. The result has the tensor shape.
    """
    out = np.reshape(values, (walk.d + 1,) * (walk.N + 1))
    for mat in mats:
        # contracts the leading axis (step n) and appends the new one, so
        # after all steps the axes are back in time order
        out = np.tensordot(out, mat, axes=(0, 1))
    return out


def _block(times: tuple[int, ...], N: int) -> tuple:
    """Index of a time tuple's coefficient block: digits 1..d at its times, 0 elsewhere."""
    return tuple(slice(1, None) if n in times else 0 for n in range(N + 1))


def _synthesize(walk: WalkSpec, mean: float, kernels: Iterable[Kernel]) -> PathTable:
    """Table of mean + sum of I^r(f_r): r! f_r fills each tuple's coefficient block."""
    coef = np.zeros((walk.d + 1,) * (walk.N + 1))
    coef[(0,) * (walk.N + 1)] = mean
    for kernel in kernels:
        fact = math.factorial(kernel.order)
        # entries beyond the horizon are zero: callers check max_time
        for times, tensor in kernel.truncate(walk.N).entries.items():
            coef[_block(times, walk.N)] += fact * tensor
    values = along_axes(walk, coef, [step.basis for step in walk.steps])
    return PathTable(walk.space, values.ravel())


def multiple_integral(walk: WalkSpec, kernel: Kernel) -> PathTable:
    """Evaluate the multiple stochastic integral of the kernel as a table."""
    if kernel.d != walk.d:
        raise ValueError(f"kernel dimension {kernel.d} != walk dimension {walk.d}")
    if kernel.max_time() > walk.N:
        raise ValueError(
            f"kernel uses time {kernel.max_time()}, beyond the walk horizon {walk.N}"
        )
    return _synthesize(walk, 0.0, [kernel])


def kernel_time_slice(kernel: Kernel, coord: int, time: int) -> Kernel:
    """Order-(r-1) kernel f^{coord}(*, time) on tuples avoiding the time.

    Fixing the last argument of the symmetric kernel at the given time and
    the matching component index at coord lowers the order by one; tuples
    containing the time are excluded (off-diagonal restriction).
    """
    if kernel.order < 1:
        raise ValueError("cannot slice an order-0 kernel")
    if not 1 <= coord <= kernel.d:
        raise ValueError(f"coordinate {coord} outside [1, {kernel.d}]")
    if time < 0:
        raise ValueError(f"negative time index {time}")
    out: dict[tuple[int, ...], np.ndarray] = {}
    for times, tensor in kernel.entries.items():
        if time not in times:
            continue
        pos = times.index(time)
        rest = times[:pos] + times[pos + 1 :]
        out[rest] = np.take(tensor, coord - 1, axis=pos)
    return Kernel(kernel.order - 1, kernel.d, out)


def kernel_head_slice(kernel: Kernel, coord: int, time: int) -> Kernel:
    """Order-(r-1) kernel f^{coord}(*, time) restricted to tuples below the time."""
    sliced = kernel_time_slice(kernel, coord, time)
    return sliced.truncate(time - 1)


@dataclass(frozen=True, eq=False)
class VectorProcess:
    """Time-indexed family of R^d-valued tables (U_0, ..., U_N)."""

    space: PathSpace
    values: np.ndarray  # (N+1, num_paths, d)

    def __post_init__(self) -> None:
        vals = _frozen_float(self.values)
        expected = (self.space.N + 1, self.space.num_paths, self.space.d)
        if vals.shape != expected:
            raise ValueError(f"process has shape {vals.shape}, expected {expected}")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zero(space: PathSpace) -> "VectorProcess":
        return VectorProcess(
            space, np.zeros((space.N + 1, space.num_paths, space.d))
        )

    def table(self, n: int, j: int) -> PathTable:
        if not 0 <= n <= self.space.N:
            raise ValueError(f"time {n} outside [0, {self.space.N}]")
        if not 1 <= j <= self.space.d:
            raise ValueError(f"coordinate {j} outside [1, {self.space.d}]")
        return PathTable(self.space, self.values[n][:, j - 1])

    def predictability_defect(self) -> float:
        """Worst deviation of any U_n from F_{n-1}-measurability."""
        worst = 0.0
        for n in range(self.space.N + 1):
            worst = max(worst, atom_deviation(self.values[n], self.space, n - 1))
        return worst

    def is_predictable(self, tol: float = 1e-10) -> bool:
        return self.predictability_defect() <= tol


def integrate_predictable(
    walk: WalkSpec, process: VectorProcess, tol: float = 1e-10
) -> PathTable:
    """Stochastic integral sum_n <U_n, Y_n> of a predictable process."""
    if process.space != walk.space:
        raise ValueError("process is not defined on the walk's path space")
    defect = process.predictability_defect()
    if defect > tol:
        raise PredictabilityError(
            f"process is not predictable (atom deviation {defect:.3e} > {tol:.0e})"
        )
    values = np.einsum("npj,npj->p", process.values, walk.increments)
    return PathTable(walk.space, values)
