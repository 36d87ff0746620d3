"""Shared fixture walks and random-input generators for the test suite."""
import numpy as np
from itertools import combinations

from obtusewalk import Kernel, StepLaw, VectorProcess, WalkSpec, construct_obtuse
from obtusewalk.omega import PathTable, _check_range

SQ2 = np.sqrt(2.0)


def bernoulli(N: int = 1) -> WalkSpec:
    """Symmetric one-dimensional walk with exact +-1 increments."""
    step = StepLaw(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))
    return WalkSpec(d=1, N=N, steps=(step,) * (N + 1))


def biased(N: int = 1, p: float = 1 / 3) -> WalkSpec:
    """One-dimensional walk with P(up) = p and the closed-form increments."""
    q = 1.0 - p
    step = StepLaw(
        np.array([p, q]), np.array([[np.sqrt(q / p)], [-np.sqrt(p / q)]])
    )
    return WalkSpec(d=1, N=N, steps=(step,) * (N + 1))


def d2_fixture(N: int = 1) -> WalkSpec:
    """Two-dimensional three-outcome walk with probabilities (1/4, 1/4, 1/2)."""
    step = StepLaw(
        np.array([0.25, 0.25, 0.5]),
        np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]]),
    )
    return WalkSpec(d=2, N=N, steps=(step,) * (N + 1))


def random_walk(rng: np.random.Generator, d: int, N: int) -> WalkSpec:
    """Constructed walk from probabilities bounded away from zero."""
    ps = []
    for _ in range(N + 1):
        raw = rng.uniform(0.2, 1.0, size=d + 1)
        ps.append(raw / raw.sum())
    return construct_obtuse(ps)


def atom_means(walk: WalkSpec, values: np.ndarray, n: int) -> np.ndarray:
    """Probability-weighted mean of the (num_paths, ...) values on each F_n-atom,
    one row per atom; at n = N every path is an atom and the values are returned."""
    space = walk.space
    _check_range(n, -1, space.N, "conditioning time")
    if n == space.N:
        return np.asarray(values, dtype=float)
    atoms = space.atom_count(n)
    trailing = values.shape[1:]
    w = walk.measure.reshape(atoms, -1, *(1,) * len(trailing))
    v = values.reshape(atoms, -1, *trailing)
    return (w * v).sum(axis=1) / w.sum(axis=1)


def atom_average(walk: WalkSpec, values: np.ndarray, n: int) -> np.ndarray:
    """Probability-weighted average over F_n-atoms, broadcast back to paths."""
    return np.repeat(atom_means(walk, values, n), walk.space.atom_size(n), axis=0)


def random_table(rng: np.random.Generator, space) -> PathTable:
    return PathTable(space, rng.uniform(-1.0, 1.0, size=space.num_paths))


def random_kernel(rng: np.random.Generator, d: int, N: int, order: int) -> Kernel:
    entries = {
        times: rng.uniform(-1.0, 1.0, size=(d,) * order)
        for times in combinations(range(N + 1), order)
    }
    return Kernel.from_entries(order, d, entries)


def random_predictable(rng: np.random.Generator, walk: WalkSpec) -> VectorProcess:
    """Process with U_n drawn per prior atom, hence exactly predictable."""
    space = walk.space
    vals = np.empty((walk.N + 1, space.num_paths, walk.d))
    for n in range(walk.N + 1):
        per_atom = rng.uniform(-1.0, 1.0, size=(space.atom_count(n - 1), walk.d))
        vals[n] = np.repeat(per_atom, space.atom_size(n - 1), axis=0)
    return VectorProcess(space, vals)


def random_process(rng: np.random.Generator, walk: WalkSpec) -> VectorProcess:
    return VectorProcess(
        walk.space,
        rng.uniform(-1.0, 1.0, size=(walk.N + 1, walk.space.num_paths, walk.d)),
    )


def max_abs_diff(table: PathTable, other) -> float:
    """Largest |table - other| over the paths; other is a table on the same space or a number."""
    return float(np.max(np.abs((table - other).values)))


def allclose(table: PathTable, other, *, atol: float) -> bool:
    """Whether max_abs_diff(table, other) is at most atol."""
    return max_abs_diff(table, other) <= atol
