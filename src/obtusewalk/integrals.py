"""Symmetric kernels, the per-axis engine, and stochastic integrals.

An order-r kernel is stored only on strictly increasing time tuples, as a
sorted (U, r) array of tuples and a (U, d^r) array of their flattened
component tensors; the symmetric extension to arbitrary distinct tuples
permutes component indices along with the times. The multiple integral is then

    I^r(f) = r! * sum over increasing tuples, components of
             f^{k_1..k_r}(t_1..t_r) Y_{t_1}^{k_1} ... Y_{t_r}^{k_r},

so r! times a tuple's component tensor is the block of basis coefficients
with digits 1..d at its times and 0 elsewhere in the (d+1,)*(N+1)
coefficient tensor of chaos.ChaosCoefficients, which fills and reads those
blocks through one index map. Kernels are the view users read and write
(JSON files, chaos.multiple_integral), whose times and coordinates are read
by omega._as_int, so none is truncated; the library computes on the tensor,
contracted with the per-step bases [1 | v] one axis at a time (along_axes).

A PredictableProcess keeps step n once per atom of F_{n-1}, and only it
knows how those rows are laid out. Its stochastic integral sum_n <U_n, Y_n>
takes one inner product per atom and outcome at n; path-indexed input
(VectorProcess) comes in through PredictableProcess.from_paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PredictabilityError
from .omega import (
    PathSpace,
    PathTable,
    _as_int,
    _check_range,
    _check_space,
    _frozen_float,
    _negligible,
    _tree_offset,
    atom_deviation,
)
from .walk import WalkSpec

#: raw kernel entry: (times, coords, value) with 1-based coordinates
RawEntry = tuple[Sequence[int], Sequence[int], float]

#: largest atom deviation of an integrand that integrate_predictable accepts,
#: relative to the largest |entry| of its rows
PREDICTABLE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric order-r kernel stored on increasing time tuples.

    times holds the distinct strictly increasing tuples, sorted, as a
    (U, order) int64 array; tensors holds the (d,)*order component tensor
    at each, flattened in C order, as a (U, d**order) array. Missing tuples
    are zero. Order 0 is a single scalar at the empty tuple. Mapping input
    comes in through from_entries.
    """

    order: int
    d: int
    times: np.ndarray  # (U, order) int64
    tensors: np.ndarray  # (U, d**order)

    def __post_init__(self) -> None:
        width = _width(self.order, self.d)
        times = np.asarray(self.times)
        if times.ndim != 2 or times.shape[1] != self.order or times.dtype.kind not in "iu":
            raise ValueError(f"tuples are {times.dtype} {times.shape}, not int (U, {self.order})")
        times = times.astype(np.int64)
        times.setflags(write=False)
        tensors, shape = _frozen_float(self.tensors), (len(times), width)
        if tensors.shape != shape:
            raise ValueError(f"tensors have shape {tensors.shape}, expected {shape}")
        _check_tuples(times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "tensors", tensors)

    @staticmethod
    def from_entries(order: int, d: int, entries: Mapping[tuple[int, ...], object]) -> "Kernel":
        """Kernel from a mapping of increasing tuples to (d,)*order component tensors."""
        width = _width(order, d)
        shape = (d,) * order
        times, tensors = [], []
        for key, tensor in sorted(entries.items()):
            key = tuple(_as_int(t, "times entry") for t in key)
            if len(key) != order:
                raise ValueError(f"tuple {key} has length != order {order}")
            arr = np.array(tensor, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"tensor at {key} has shape {arr.shape}, expected {shape}")
            times.append(key)
            tensors.append(arr.ravel())
        times = np.array(times, dtype=np.int64).reshape(len(times), order)
        return Kernel(order, d, times, np.array(tensors).reshape(len(times), width))

    @staticmethod
    def zero(order: int, d: int) -> "Kernel":
        times = np.zeros((0, order), dtype=np.int64)
        return Kernel(order, d, times, np.zeros((0, _width(order, d))))

    @staticmethod
    def scalar(value: float, d: int) -> "Kernel":
        return Kernel(0, d, np.zeros((1, 0), dtype=np.int64), np.array([[float(value)]]))

    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Read-only view: each stored tuple's (d,)*order component tensor."""
        tensors = self.tensors.reshape((len(self.times),) + (self.d,) * self.order)
        return MappingProxyType(dict(zip(map(tuple, self.times.tolist()), tensors)))

    def tensor(self, times: tuple[int, ...]) -> np.ndarray:
        """Component tensor at an increasing tuple (zeros if unset)."""
        return self.entries.get(tuple(times), np.zeros((self.d,) * self.order))


def _width(order: int, d: int) -> int:
    """d**order, the flat size of one component tensor, if an array dimension holds it."""
    if order < 0:
        raise ValueError("kernel order must be >= 0")
    # numpy needs the byte size of a float64 array to fit an intp; d**64 is beyond
    # it for every d >= 2, so a huge order never builds a huge power
    if d ** min(order, 64) > np.iinfo(np.intp).max // 8:
        raise ValueError(
            f"an order-{order} kernel on d = {d} has more components than an array holds"
        )
    return d**order


def _check_tuples(times: np.ndarray) -> None:
    """Raise on the first row of (U, r) times that is not a kernel tuple: one
    with a negative time, not strictly increasing, or not after the row before."""
    increasing = times[:, 1:] > times[:, :-1]
    step = times[1:] - times[:-1]
    # the step between consecutive rows at the first time where they differ
    if times.shape[1]:
        step = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    else:
        step = step.sum(axis=1)
    # sorted rows that increase have their least time first
    if increasing.all() and (step > 0).all() and (not times.size or times[0, 0] >= 0):
        return
    negative = np.any(times < 0, axis=1)
    bad = negative | ~increasing.all(axis=1) | np.concatenate([[False], step <= 0])
    row = int(np.argmax(bad))
    tup = tuple(times[row].tolist())
    if negative[row]:
        raise ValueError(f"negative time index in {tup}")
    if not increasing[row].all():
        raise ValueError(f"time tuple {tup} is not strictly increasing")
    previous = tuple(times[row - 1].tolist())
    if tup == previous:
        raise ValueError(f"time tuple {tup} is repeated")
    raise ValueError(f"time tuple {tup} comes after {previous}, out of sorted order")


def symmetrize(raw: Iterable[RawEntry], order: int, d: int) -> Kernel:
    """Symmetrize a raw assignment given on arbitrary distinct-time tuples.

    Each raw value contributes value/r! to the component obtained by sorting
    its time tuple and carrying the coordinate indices along. Entries on the
    same ordered tuple accumulate in input order through one np.add.at, which
    gives the sums of adding them one entry at a time; already-symmetric
    input (all orderings present) is reproduced unchanged.
    """
    raw = list(raw)
    width = _width(order, d)
    if order == 0:
        total = 0.0
        for times, coords, value in raw:
            if tuple(times) != () or tuple(coords) != ():
                raise ValueError("order-0 entries must have empty times and coords")
            total += float(value)
        return Kernel.scalar(total, d)
    if not raw:
        return Kernel.zero(order, d)
    times, coords, values = _raw_arrays(raw, order, d)
    perm = np.argsort(times, axis=1)
    # the coordinate at each sorted position is the one carried by that time
    comps = np.take_along_axis(coords, perm, axis=1) - 1
    # the sorted tuples in lexicographic order, the first of each kind, each entry's slot
    ordered = np.take_along_axis(times, perm, axis=1)
    by_tuple = np.lexsort(ordered.T[::-1])
    ordered = ordered[by_tuple]
    first = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
    slots = np.empty(len(raw), dtype=np.intp)
    slots[by_tuple] = np.cumsum(first) - 1
    tensors = np.zeros((np.count_nonzero(first), width))
    np.add.at(tensors, (slots, np.ravel_multi_index(tuple(comps.T), (d,) * order)),
              values / float(math.factorial(order)))
    return Kernel(order, d, ordered[first], tensors)


def _int_rows(rows: tuple, field: str) -> np.ndarray:
    """Rows of numbers as an int64 matrix, each read by _as_int; equal rows of ints go at once."""
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) == {int} and len(set(map(len, rows))) == 1:
        return np.fromiter(flat, np.int64, len(flat)).reshape(len(rows), -1)
    return np.array([[_as_int(x, field) for x in row] for row in rows], dtype=np.int64)


def _raw_arrays(raw: list, order: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, order) times and coords and (E,) values of raw entries, checked.

    The first malformed entry raises what _checked_entry says of it.
    """
    try:
        times, coords, values = zip(*[(t, c, v) for t, c, v in raw])
        times, coords = _int_rows(times, "times entry"), _int_rows(coords, "coords entry")
        values = np.fromiter(map(float, values), dtype=float, count=len(raw))
    except (TypeError, ValueError, OverflowError) as exc:
        failure: Exception | None = exc
    else:
        failure = None
        if times.shape == coords.shape == (len(raw), order):
            ordered = np.sort(times, axis=1)
            repeated = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
            outside = np.any((coords < 1) | (coords > d), axis=1)
            if not np.any(repeated | outside):
                return times, coords, values
    for entry_times, entry_coords, value in raw:
        _checked_entry(entry_times, entry_coords, order, d)
        float(value)
    raise failure  # every entry passes _checked_entry, so the array conversion failed


def _checked_entry(times, coords, order: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The times and coordinates of one entry as int tuples; raise if they are malformed."""
    times = tuple(_as_int(t, "times entry") for t in times)
    coords = tuple(_as_int(k, "coords entry") for k in coords)
    if len(times) != order or len(coords) != order:
        raise ValueError(f"entry at {times} must carry {order} times and coords")
    if len(set(times)) != order:
        raise ValueError(f"time tuple {times} has repeated indices")
    if any(k < 1 or k > d for k in coords):
        raise ValueError(f"coordinates {coords} outside [1, {d}]")
    return times, coords


def monomial_kernel(times: Sequence[int], coords: Sequence[int], d: int) -> Kernel:
    """Kernel whose multiple integral is exactly Y_{t_1}^{k_1} ... Y_{t_r}^{k_r}."""
    r = len(times)
    times, coords = _checked_entry(times, coords, r, d)
    tensor = np.zeros((d,) * r)
    tensor[tuple(k - 1 for k in coords)] = 1.0 / math.factorial(r)
    return Kernel(r, d, np.array(times, dtype=np.int64).reshape(1, r), tensor.reshape(1, -1))


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


def _synthesize(walk: WalkSpec, coef: np.ndarray) -> PathTable:
    """Table sum_a coef[a] * monomial_a: the basis [1 | v] applied along each axis."""
    values = along_axes(walk, coef, [step.basis for step in walk.steps])
    return PathTable(walk.space, values.ravel())


@dataclass(frozen=True, eq=False)
class VectorProcess:
    """Time-indexed family of R^d-valued tables (U_0, ..., U_N): a gradient or an integrand."""

    space: PathSpace
    values: np.ndarray  # (N+1, num_paths, d)

    def __post_init__(self) -> None:
        vals = _frozen_float(self.values)
        expected = (self.space.N + 1, self.space.num_paths, self.space.d)
        if vals.shape != expected:
            raise ValueError(f"process has shape {vals.shape}, expected {expected}")
        object.__setattr__(self, "values", vals)

    def table(self, n: int, j: int) -> PathTable:
        _check_range(n, 0, self.space.N, "time")
        _check_range(j, 1, self.space.d, "coordinate")
        return PathTable(self.space, self.values[n][:, j - 1])


@dataclass(frozen=True, eq=False)
class PredictableProcess:
    """A process whose step n is constant on the atoms of F_{n-1}, kept once per atom.

    rows stacks the steps 0..N in level order, step n one row per atom of
    F_{n-1} in canonical order: d entries for a Clark-Ocone integrand,
    [beta | gamma] for a hedging portfolio. Row k is atom k of the tree
    order of the filtration (omega._tree_offset): row 0 is the atom of F_{-1},
    row k > 0 has the parent row (k - 1) // (d + 1), and the d+1 atoms of F_n
    below row k, which hold its position, are the atoms k*(d+1) + 1 + i, so
    np.repeat(rows, d + 1) lists the position held on every atom of F_0..F_N.
    `defect` is how far path-indexed input was from predictable (see
    from_paths); a process built on atoms has none.
    """

    space: PathSpace
    rows: np.ndarray  # (sum over n of atoms of F_{n-1}, width)
    defect: float = 0.0

    def __post_init__(self) -> None:
        rows = _frozen_float(self.rows)
        count = self._start(self.space.N + 1)
        if rows.ndim != 2 or len(rows) != count:
            raise ValueError(f"process rows have shape {rows.shape}, expected ({count}, width)")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "defect", float(self.defect))

    def _start(self, n: int) -> int:
        """Rows of the steps before n: the atoms of F_{-1}..F_{n-2}."""
        return _tree_offset(self.space.d, n - 1)

    def at(self, n: int) -> np.ndarray:
        """(atoms of F_{n-1}, width) rows of step n."""
        _check_range(n, 0, self.space.N, "step")
        return self.rows[self._start(n) : self._start(n + 1)]

    @staticmethod
    def from_steps(space: PathSpace, steps: Sequence, defect: float = 0.0) -> "PredictableProcess":
        """Process from the (atoms of F_{n-1}, width) rows of each step n = 0..N."""
        rows = np.concatenate(steps)
        rows.setflags(write=False)
        return PredictableProcess(space, rows, defect)

    @staticmethod
    def from_paths(space: PathSpace, values: np.ndarray) -> "PredictableProcess":
        """Process from (N+1, num_paths, width) values on paths.

        Keeps the first path of each atom of F_{n-1} at step n and records
        the largest deviation from it within the atom, NaN if any entry is
        NaN, as the defect.
        """
        values = np.asarray(values, dtype=float)
        defect = np.max([atom_deviation(u, space, n - 1) for n, u in enumerate(values)])
        steps = [u[:: space.atom_size(n - 1)] for n, u in enumerate(values)]
        return PredictableProcess.from_steps(space, steps, defect)

    def on_paths(self) -> np.ndarray:
        """(N+1, num_paths, width) values: each row repeated over its atom's paths."""
        out = np.empty((self.space.N + 1, self.space.num_paths, self.rows.shape[1]))
        for n, u in enumerate(out):
            rows = self.at(n)
            u.reshape(len(rows), -1, rows.shape[1])[...] = rows[:, None]
        return out


def integrate_predictable(walk: WalkSpec, process: PredictableProcess | VectorProcess) -> PathTable:
    """Stochastic integral sum_n <U_n, Y_n> of a predictable process.

    A VectorProcess comes in through PredictableProcess.from_paths, and a
    defect above PREDICTABLE_TOL times the largest |entry| of the rows
    raises (omega._negligible), so scaling the process leaves the verdict
    as it is. Each atom of F_{n-1} and outcome i at n gives one sum
    <U_n, v_n^i>, repeated on the atom_size(n) paths of both.
    """
    _check_space(walk.space, process, "process")
    if isinstance(process, VectorProcess):
        process = PredictableProcess.from_paths(process.space, process.values)
    if process.rows.shape[1] != walk.d:
        raise ValueError(f"process rows have width {process.rows.shape[1]}, expected {walk.d}")
    if not _negligible(process.defect, PREDICTABLE_TOL, process.rows):
        raise PredictabilityError(
            f"process is not predictable (atom deviation {process.defect:.3e} "
            f"> {PREDICTABLE_TOL:.0e} times its largest entry)"
        )
    total = np.zeros(walk.space.num_paths)
    for n, step in enumerate(walk.steps):
        sums = np.einsum("aj,ij->ai", process.at(n), step.v).ravel()
        total += np.repeat(sums, walk.space.atom_size(n))
    return PathTable(walk.space, total)
