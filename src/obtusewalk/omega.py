"""Finite path space, path tables, and exact (conditional) expectations.

The outcome space {0,...,d}^(N+1) is enumerated in lexicographic order, so
a path is an index and the atoms of the natural filtration are contiguous
index blocks. Expectations are probability-weighted sums in that fixed
order and conditional expectations are means over atoms: dense tables, no
sampling, the same bits on every run.

The module also owns the four input rules every operator applies, one
helper and one wording each: an input on another path space
(_check_space), an index outside its range (_check_range), arrays larger
than the cap (_check_cap) and a table that is not finite (_check_finite).
Beside them is the one verdict rule (_negligible): a computed defect
passes iff it is at most eps times the largest |entry| of what it judges,
so no verdict changes when its input is scaled; _within is its test,
elementwise, for verdicts taken on several levels at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import SizeCapError

if TYPE_CHECKING:
    from .walk import WalkSpec

#: Default cap on the number of enumerated paths.
DEFAULT_CAP = 10_000_000

#: A path is the tuple of outcomes (w_0, ..., w_N), each in {0, ..., d}.
Path = tuple[int, ...]


@dataclass(frozen=True)
class PathSpace:
    """All paths of length N+1 over outcomes {0,...,d}, lexicographically ordered.

    The enumeration identifies a path with its base-(d+1) integer whose most
    significant digit is the outcome at time 0, so atoms of the natural
    filtration (paths sharing a prefix) are contiguous index blocks.
    """

    d: int
    N: int
    cap: int = field(default=DEFAULT_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.N < 0:
            raise ValueError(f"last time index must be >= 0, got {self.N}")
        # exact while it can be within the cap; never a huge power for a huge N
        count = (self.d + 1) ** min(self.N + 1, self.cap.bit_length() + 1)
        _check_cap(count, self.cap, "path space would need at least")

    @property
    def num_paths(self) -> int:
        return (self.d + 1) ** (self.N + 1)

    @cached_property
    def outcomes(self) -> np.ndarray:
        """(num_paths, N+1) matrix of outcomes in canonical order."""
        idx = np.arange(self.num_paths, dtype=np.int64)
        out = np.empty((self.num_paths, self.N + 1), dtype=np.int32)
        for n in range(self.N + 1):
            np.remainder(idx // self.atom_size(n), self.d + 1, out=out[:, n], casting="unsafe")
        out.setflags(write=False)
        return out

    def atom_count(self, n: int) -> int:
        """Number of atoms of F_n (n = -1 gives the trivial single atom)."""
        return (self.d + 1) ** (n + 1)

    def atom_size(self, n: int) -> int:
        """Paths in an atom of F_n: the index distance between paths differing only in outcome n."""
        return self.num_paths // self.atom_count(n)

    def path_at(self, index: int) -> Path:
        """Outcomes of the path at the index: its base-(d+1) digits, time 0 first."""
        index = _check_range(_as_int(index, "path index"), 0, self.num_paths - 1, "path index")
        digits = []
        for _ in range(self.N + 1):
            index, w = divmod(index, self.d + 1)
            digits.append(w)
        return tuple(reversed(digits))

    def axis_view(self, values: np.ndarray, k: int) -> np.ndarray:
        """The (num_paths, ...) array as (atoms of F_{k-1}, d+1, atom_size(k), ...); axis 1 is w_k."""
        _check_range(k, 0, self.N, "time index")
        shape = (self.atom_count(k - 1), self.d + 1, self.atom_size(k))
        return np.reshape(values, shape + np.shape(values)[1:])


def _as_int(value, field: str) -> int:
    """A count or index from outside the program: an integer, or a float of integral value."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if integral or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _frozen_float(values) -> np.ndarray:
    """Read-only float64 array holding the values, copied only when needed.

    An array is reused as is when it and every array it views are read-only,
    so nothing can write to it later; anything else is copied, and the
    caller's own array keeps its flags.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        arr = values
        while isinstance(arr, np.ndarray) and not arr.flags.writeable:
            if arr.base is None:
                return values
            arr = arr.base
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PathTable:
    """A real-valued table indexed by the canonical path enumeration.

    The concrete carrier for a random variable on the finite path space.
    Values are frozen after construction; arithmetic returns new tables.
    """

    space: PathSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.space.num_paths,):
            raise ValueError(
                f"table has shape {vals.shape}, expected ({self.space.num_paths},)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def constant(space: PathSpace, value: float) -> "PathTable":
        return PathTable(space, np.full(space.num_paths, float(value)))

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, PathTable):
            _check_space(self.space, other, "operand", "table")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other) -> "PathTable":
        return PathTable(self.space, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "PathTable":
        return PathTable(self.space, self.values - self._coerce(other))

    def __rsub__(self, other) -> "PathTable":
        return PathTable(self.space, self._coerce(other) - self.values)

    def __mul__(self, other) -> "PathTable":
        return PathTable(self.space, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "PathTable":
        return PathTable(self.space, -self.values)


def expectation(walk: "WalkSpec", table: PathTable) -> float:
    """Exact expectation: probability-weighted sum in canonical path order.

    numpy's pairwise reduction is a fixed-shape tree, so repeated runs are
    bit-identical.
    """
    _check_space(walk.space, table)
    return float(np.add.reduce(walk.measure * table.values))


def atom_means(walk: "WalkSpec", values: np.ndarray, n: int) -> np.ndarray:
    """Probability-weighted mean of the values on each F_n-atom, one row per atom.

    Works on arrays of shape (num_paths, ...); row a averages the contiguous
    block of paths of atom a. At n = N every path is an atom and the values
    are returned unchanged.
    """
    space = walk.space
    _check_range(n, -1, space.N, "conditioning time")
    if n == space.N:
        return np.asarray(values, dtype=float)
    atoms = space.atom_count(n)
    trailing = values.shape[1:]
    w = walk.measure.reshape(atoms, -1, *(1,) * len(trailing))
    v = values.reshape(atoms, -1, *trailing)
    return (w * v).sum(axis=1) / w.sum(axis=1)


def _tree_offset(d: int, n: int) -> int:
    """Index of the first atom of F_n when the atoms of F_{-1}, F_0, ..., F_N
    stand in level order: the atoms of F_{-1}..F_{n-1} come before it.

    In that order, which is the tree order of the filtration, atom k > 0 has
    the parent (k - 1) // (d + 1) and atom k the children k*(d+1) + 1 + i.
    """
    return ((d + 1) ** (n + 1) - 1) // d


def level_means(walk: "WalkSpec", values: np.ndarray) -> np.ndarray:
    """Atom means of the (num_paths,) values on F_0, ..., F_{N-1}, in level order.

    Entry k - 1 is the mean on atom k of the tree order (_tree_offset), so the
    (-1, d+1) rows are the sub-atom means of the atoms of F_{-1}..F_{N-2}.
    One product measure * values serves every level; level n sums the same
    contiguous blocks of it as atom_means(walk, values, n), so every entry has
    the bits atom_means gives it. The means on F_N are the values themselves.
    """
    space = walk.space
    weighted = walk.measure * values
    out = np.empty(_tree_offset(space.d, space.N) - 1)
    for n in range(space.N):
        means = out[_tree_offset(space.d, n) - 1 : _tree_offset(space.d, n + 1) - 1]
        np.add.reduce(weighted.reshape(len(means), -1), axis=1, out=means)
        means /= np.add.reduce(walk.measure.reshape(len(means), -1), axis=1)
    return out


def conditional_expectation(walk: "WalkSpec", table: PathTable, n: int) -> PathTable:
    """E[F | F_n] as a table, constant on each prefix atom.

    n = -1 yields the constant E[F]; n = N yields F itself.
    """
    _check_space(walk.space, table)
    means = atom_means(walk, table.values, n)
    return PathTable(walk.space, np.repeat(means, walk.space.atom_size(n)))


def covariance(walk: "WalkSpec", f: PathTable, g: PathTable) -> float:
    """Cov(F, G) = E[FG] - E[F]E[G], computed by enumeration."""
    _check_space(walk.space, f, "table f")
    _check_space(walk.space, g, "table g")
    return expectation(walk, f * g) - expectation(walk, f) * expectation(walk, g)


def atom_deviation(values: np.ndarray, space: PathSpace, n: int) -> float:
    """Largest deviation of the array from being constant on F_n-atoms.

    The deviation max|v - v0| from each atom's first row v0, NaN if any entry
    is NaN. The first rows are repeated over their atoms into one buffer, so
    the subtraction, absolute value and maximum run in place over contiguous
    memory rather than broadcasting a short row per atom.
    """
    if n >= space.N:
        return 0.0
    size = space.atom_size(n)
    rows = np.repeat(values[::size], size, axis=0)
    np.subtract(values, rows, out=rows)
    return float(np.max(np.abs(rows, out=rows)))


def is_measurable(table: PathTable, n: int) -> bool:
    """Whether the table is F_n-measurable (constant on prefix atoms).

    Its atom deviation must be at most 1e-10 times its largest |entry|
    (_negligible), so the verdict is the same for the table scaled.
    """
    values = table.values
    return _negligible(atom_deviation(values, table.space, max(n, -1)), 1e-10, values)


def _negligible(defect: float, eps: float, *judged: np.ndarray) -> bool:
    """The verdict rule: whether the defect is at most eps times the largest
    |entry| of the judged arrays, NaN entries aside.

    Scaling the input scales the defect and the entries alike, so the
    verdict does not depend on the unit. There is no absolute floor: an
    all-zero input passes only with an exact-zero defect. A NaN or infinite
    defect fails, so a NaN entry fails the verdict wherever it makes the
    defect NaN, and only there.
    """
    scale = max(float(np.fmax.reduce(np.abs(v), axis=None, initial=0.0)) for v in judged)
    return bool(_within(defect, eps * scale))


def _within(defect, bound):
    """The test of _negligible, elementwise on arrays: the defect is finite
    and at most the bound. A NaN defect is neither."""
    return (defect < np.inf) & (defect <= bound)


def _check_space(space: PathSpace, obj, name: str = "table", owner: str = "walk") -> None:
    """Refuse a table, process, walk or strategy whose path space is not the given one."""
    if obj.space != space:
        raise ValueError(f"{name} is not defined on the {owner}'s path space")


def _check_range(value, low, high, what: str):
    """The value, if it lies in [low, high]; else one line naming it and the range."""
    if not low <= value <= high:
        raise ValueError(f"{what} {value} outside [{low}, {high}]")
    return value


def _check_cap(entries: int, cap: int, lead: str) -> None:
    """Refuse an allocation of more entries than the cap; lead says what needs them."""
    if entries > cap:
        raise SizeCapError(f"{lead} {entries} entries, above the cap of {cap}")


def _check_finite(table: PathTable, name: str, error: type[Exception] = ValueError) -> None:
    """Raise one line naming the first path on which the table is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(table.values))
    if bad.size:
        idx = int(bad[0])
        path = table.space.path_at(idx)
        raise error(f"{name} is {table.values[idx]} at path {idx} = {path}")
