"""Finite path space, exact measure, and expectation oracles.

Everything here enumerates the full outcome space {0,...,d}^(N+1) and
computes probabilities, (conditional) expectations and path surgery by
brute force. These routines are the ground truth the rest of the library
is tested against, so they stay deliberately simple: dense tables, fixed
lexicographic summation order, no sampling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

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
        if count > self.cap:
            raise SizeCapError(
                f"path space would need at least {count} entries, above the cap of {self.cap}"
            )

    @property
    def num_paths(self) -> int:
        return (self.d + 1) ** (self.N + 1)

    @cached_property
    def outcomes(self) -> np.ndarray:
        """(num_paths, N+1) matrix of outcomes in canonical order."""
        idx = np.arange(self.num_paths, dtype=np.int64)
        out = np.empty((self.num_paths, self.N + 1), dtype=np.int32)
        for n in range(self.N + 1):
            np.remainder(idx // self.stride(n), self.d + 1, out=out[:, n], casting="unsafe")
        out.setflags(write=False)
        return out

    def stride(self, k: int) -> int:
        """Index distance between paths differing only in outcome k."""
        return (self.d + 1) ** (self.N - k)

    def atom_count(self, n: int) -> int:
        """Number of atoms of F_n (n = -1 gives the trivial single atom)."""
        return (self.d + 1) ** (n + 1)

    def atom_size(self, n: int) -> int:
        return self.num_paths // self.atom_count(n)

    def index_of(self, path: Sequence[int]) -> int:
        if len(path) != self.N + 1:
            raise ValueError(f"path length {len(path)} != horizon {self.N + 1}")
        idx = 0
        for w in path:
            if not 0 <= w <= self.d:
                raise ValueError(f"outcome {w} outside [0, {self.d}]")
            idx = idx * (self.d + 1) + int(w)
        return idx

    def path_at(self, index: int) -> Path:
        return tuple(int(w) for w in self.outcomes[index])

    def mutated_indices(self, k: int) -> np.ndarray:
        """(num_paths, d+1) indices of each path with outcome k forced to i."""
        if not 0 <= k <= self.N:
            raise ValueError(f"time index {k} outside [0, {self.N}]")
        stride = self.stride(k)
        base = np.arange(self.num_paths, dtype=np.int64)
        # outcome k of each path from its index, without the (P, N+1) outcomes table
        base = base - (base // stride) % (self.d + 1) * stride
        return base[:, None] + np.arange(self.d + 1, dtype=np.int64) * stride


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

    def __call__(self, path: Sequence[int]) -> float:
        return float(self.values[self.space.index_of(path)])

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, PathTable):
            if other.space != self.space:
                raise ValueError("tables live on different path spaces")
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

    def max_abs_diff(self, other: "PathTable") -> float:
        return float(np.max(np.abs(self.values - self._coerce(other))))

    def allclose(self, other, atol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values - self._coerce(other))) <= atol)


def enumerate_paths(d: int, N: int, cap: int = DEFAULT_CAP) -> list[Path]:
    """All paths over {0,...,d}^(N+1) in lexicographic order."""
    space = PathSpace(d, N, cap)
    return [tuple(int(w) for w in row) for row in space.outcomes]


def mutate_path(path: Sequence[int], k: int, i: int, d: int | None = None) -> Path:
    """Copy of the path with the outcome at time k replaced by i."""
    if not 0 <= k < len(path):
        raise ValueError(f"time index {k} outside [0, {len(path) - 1}]")
    if i < 0 or (d is not None and i > d):
        raise ValueError(f"outcome {i} outside [0, {d}]")
    out = list(path)
    out[k] = int(i)
    return tuple(out)


def path_probability(walk: "WalkSpec", path: Sequence[int]) -> float:
    """Product of per-step outcome probabilities along the path."""
    space = walk.space
    if len(path) != space.N + 1:
        raise ValueError(f"path length {len(path)} != horizon {space.N + 1}")
    prob = 1.0
    for n, w in enumerate(path):
        if not 0 <= w <= space.d:
            raise ValueError(f"outcome {w} outside [0, {space.d}]")
        prob *= float(walk.steps[n].p[w])
    return prob


def expectation(walk: "WalkSpec", table: PathTable) -> float:
    """Exact expectation: probability-weighted sum in canonical path order.

    numpy's pairwise reduction is a fixed-shape tree, so repeated runs are
    bit-identical.
    """
    _check_space(walk, table)
    return float(np.add.reduce(walk.measure * table.values))


def atom_average(walk: "WalkSpec", values: np.ndarray, n: int) -> np.ndarray:
    """Probability-weighted average over F_n-atoms, broadcast back to paths.

    Works on arrays of shape (num_paths, ...); averaging is applied along
    the path axis within each contiguous atom block.
    """
    space = walk.space
    if not -1 <= n <= space.N:
        raise ValueError(f"conditioning time {n} outside [-1, {space.N}]")
    if n == space.N:
        return np.array(values, dtype=float)
    atoms = space.atom_count(n)
    block = space.atom_size(n)
    trailing = values.shape[1:]
    w = walk.measure.reshape(atoms, block, *(1,) * len(trailing))
    v = values.reshape(atoms, block, *trailing)
    means = (w * v).sum(axis=1) / w.sum(axis=1)
    out = np.repeat(means, block, axis=0)
    return out.reshape(values.shape)


def conditional_expectation(walk: "WalkSpec", table: PathTable, n: int) -> PathTable:
    """E[F | F_n] as a table, constant on each prefix atom.

    n = -1 yields the constant E[F]; n = N yields F itself.
    """
    _check_space(walk, table)
    return PathTable(walk.space, atom_average(walk, table.values, n))


def covariance(walk: "WalkSpec", f: PathTable, g: PathTable) -> float:
    """Cov(F, G) = E[FG] - E[F]E[G], computed by enumeration."""
    return expectation(walk, f * g) - expectation(walk, f) * expectation(walk, g)


def atom_deviation(values: np.ndarray, space: PathSpace, n: int) -> float:
    """Largest deviation of the array from being constant on F_n-atoms."""
    if n >= space.N:
        return 0.0
    atoms = space.atom_count(n)
    trailing = values.shape[1:]
    v = values.reshape(atoms, -1, *trailing)
    return float(np.max(np.abs(v - v[:, :1])))


def is_measurable(table: PathTable, n: int, tol: float = 1e-10) -> bool:
    """Whether the table is F_n-measurable (constant on prefix atoms)."""
    if n <= -1:
        return atom_deviation(table.values, table.space, -1) <= tol
    return atom_deviation(table.values, table.space, n) <= tol


def _check_space(walk: "WalkSpec", table: PathTable) -> None:
    if table.space != walk.space:
        raise ValueError("table is not defined on the walk's path space")
