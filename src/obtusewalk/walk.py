"""Obtuse random walk specifications, validation, and canonical construction.

A walk is given per step by d+1 strictly positive outcome probabilities and
d+1 outcome vectors in R^d. The defining identities are

    sum_i c_i^j(n) = 0         and      sum_i c_i^j(n) v_i^l(n) = delta^{jl},

with c_i^j(n) = p_i(n) v_i^j(n): the normalized increments are centered with
identity conditional covariance. Increments are independent across steps
(values and probabilities deterministic per step, possibly step-varying).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .omega import DEFAULT_CAP, PathSpace, PathTable, _check_cap, _check_range


@dataclass(frozen=True, eq=False)
class StepLaw:
    """One step of a walk: outcome probabilities p_i and vectors v_i."""

    p: np.ndarray  # (d+1,)
    v: np.ndarray  # (d+1, d); row i is the outcome vector v_i

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        v = np.array(self.v, dtype=float, order="C")  # one layout however v was built
        if p.ndim != 1 or v.ndim != 2:
            raise ValueError("step law needs a probability vector and a vector matrix")
        if v.shape != (p.shape[0], p.shape[0] - 1):
            raise ValueError(
                f"outcome matrix has shape {v.shape}, expected ({len(p)}, {len(p) - 1})"
            )
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise ValueError("step law needs finite probabilities and outcome vectors")
        p.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.v.shape[1]

    @cached_property
    def c(self) -> np.ndarray:
        """(d+1, d) matrix c_i^j = p_i v_i^j."""
        out = self.p[:, None] * self.v
        out.setflags(write=False)
        return out

    @cached_property
    def basis(self) -> np.ndarray:
        """(d+1, d+1) matrix [1 | v]: the constant and Y^1..Y^d, orthonormal under p if obtuse."""
        out = np.hstack([np.ones((self.d + 1, 1)), self.v])
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A d-dimensional obtuse walk over times 0..N with independent steps."""

    d: int
    N: int
    steps: tuple[StepLaw, ...]
    cap: int = field(default=DEFAULT_CAP, compare=False, repr=False)
    space: PathSpace = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.steps) != self.N + 1:
            raise ValueError(f"expected {self.N + 1} steps, got {len(self.steps)}")
        for n, step in enumerate(self.steps):
            if step.d != self.d:
                raise ValueError(f"step {n} has dimension {step.d}, expected {self.d}")
        object.__setattr__(self, "steps", tuple(self.steps))
        # the path space enforces the enumeration cap
        object.__setattr__(self, "space", PathSpace(self.d, self.N, self.cap))

    @cached_property
    def measure(self) -> np.ndarray:
        """(num_paths,) product probabilities in canonical order."""
        out = np.ones(1)
        for step in self.steps:
            # prefix products times each outcome of the next step, left to right
            out = np.multiply.outer(out, step.p).ravel()
        out.setflags(write=False)
        return out

    @cached_property
    def increments(self) -> np.ndarray:
        """(N+1, num_paths, d) array of increment vectors Y_n along each path."""
        out = np.stack(
            [step.v[self.space.outcomes[:, n]] for n, step in enumerate(self.steps)]
        )
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the walk identities, with worst residual locations."""

    passed: bool
    errors: tuple[str, ...]
    max_mean_residual: float
    worst_mean: tuple[int, int] | None  # (step, coordinate j)
    max_moment_residual: float
    worst_moment: tuple[int, int, int] | None  # (step, j, l)


IDENTITY_TOL = 1e-10  # the bound on the residuals of the walk identities


@np.errstate(over="ignore", invalid="ignore")
def validate(walk: WalkSpec) -> ValidationReport:
    """Check the centering and covariance identities at every step.

    Structural defects (non-positive probabilities, probability sums away
    from one) fail the report outright; otherwise the report carries the
    worst residual of each identity and passes iff both stay within
    IDENTITY_TOL. A residual that overflows reads inf or NaN and counts as
    the worst. The identities are dimensionless, so the bound is absolute,
    and it is fixed: every reader of a walk judges it alike.
    """
    errors: list[str] = []
    max_mean = 0.0
    worst_mean: tuple[int, int] | None = None
    max_moment = 0.0
    worst_moment: tuple[int, int, int] | None = None
    eye = np.eye(walk.d)
    # array methods, not np.any/np.argmax: the command line validates every walk it reads
    for n, step in enumerate(walk.steps):
        if (step.p <= 0.0).any():
            errors.append(f"step {n}: non-positive probability")
        psum = float(np.add.reduce(step.p))
        if abs(psum - 1.0) > 1e-12:
            errors.append(f"step {n}: probabilities sum to {psum!r}, not 1")
        mean_res = np.abs(step.c.sum(axis=0))  # (d,)
        j = int(mean_res.argmax())
        if not mean_res[j] < max_mean:
            max_mean = float(mean_res[j])
            worst_mean = (n, j + 1)
        moment_res = np.abs(step.c.T @ step.v - eye)  # (d, d)
        jl = divmod(int(moment_res.argmax()), walk.d)
        if not moment_res[jl] < max_moment:
            max_moment = float(moment_res[jl])
            worst_moment = (n, jl[0] + 1, jl[1] + 1)

    passed = not errors and max_mean <= IDENTITY_TOL and max_moment <= IDENTITY_TOL
    return ValidationReport(
        passed=passed,
        errors=tuple(errors),
        max_mean_residual=max_mean,
        worst_mean=worst_mean,
        max_moment_residual=max_moment,
        worst_moment=worst_moment,
    )


def require_obtuse(walk: WalkSpec) -> WalkSpec:
    """The walk, if validate passes it; else ValueError naming the defect.

    The message is the first structural error of the report, word for word,
    or else the worse failing identity with its step and coordinates.
    """
    report = validate(walk)
    if report.passed:
        return walk
    if report.errors:
        raise ValueError(report.errors[0])
    mean, moment = report.max_mean_residual, report.max_moment_residual
    if not mean <= IDENTITY_TOL and not mean < moment:
        n, j = report.worst_mean
        raise ValueError(
            f"step {n}: centering residual {mean:.3g} at coordinate {j}"
            f" exceeds {IDENTITY_TOL:g}"
        )
    n, j, l = report.worst_moment
    raise ValueError(
        f"step {n}: covariance residual {moment:.3g} at coordinates ({j}, {l})"
        f" exceeds {IDENTITY_TOL:g}"
    )


def _complete_orthogonal(sqrt_p: np.ndarray) -> np.ndarray:
    """Orthogonal matrix with first row sqrt_p, completed deterministically.

    Rows d..1 are obtained by orthonormalizing the standard basis vectors
    e_d, ..., e_1 (in that order) against the rows already fixed, with the
    first nonzero entry of each completed row made positive. Only p_0 + ...
    + p_{j-1} below about 1e-24 p_j, as for p = (1e-30, 1), degenerates e_j;
    row j then starts from e_0, which cannot degenerate.
    """
    dd = len(sqrt_p)
    rows = np.zeros((dd, dd))
    rows[0] = sqrt_p
    done = [0]
    for j in range(dd - 1, 0, -1):
        for start in (j, 0):
            u = np.zeros(dd)
            u[start] = 1.0
            for _ in range(2):  # re-orthogonalize once for numerical hygiene
                for r in done:
                    u -= (u @ rows[r]) * rows[r]
            norm = float(np.linalg.norm(u))
            if norm >= 1e-12:
                break
        u /= norm
        nz = int(np.nonzero(np.abs(u) > 1e-12)[0][0])
        if u[nz] < 0:
            u = -u
        rows[j] = u
        done.append(j)
    return rows


def canonical_step(p: Sequence[float], n: int = 0, cap: int = DEFAULT_CAP) -> StepLaw:
    """Step n of the canonical construction for the outcome probabilities p.

    p must lie in (0, 1] and sum to one within 1e-9; it is then
    renormalized. An orthogonal (d+1)x(d+1) matrix U with first row
    (sqrt p_0, ..., sqrt p_d) is completed, and the outcome vectors are
    v_i^j = U[j, i] / sqrt(p_i). A U of more entries than the cap is
    refused before anything else is checked, and a probability outside
    (0, 1] before the sum, which it could overflow.
    """
    p = np.asarray(p, dtype=float)
    _check_cap(p.size**2, cap, f"step {n}: completing {p.size} outcomes would need")
    if p.ndim != 1 or len(p) < 2:
        raise ValueError(f"step {n}: need at least two outcome probabilities")
    if np.any(p <= 0.0):
        raise ValueError(f"step {n}: probabilities must be strictly positive")
    if np.any(p > 1.0):
        raise ValueError(f"step {n}: probabilities must not exceed 1")
    total = float(np.add.reduce(p))
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
        raise ValueError(f"step {n}: probabilities sum to {total!r}, not 1")
    p = p / total
    u = _complete_orthogonal(np.sqrt(p))
    return StepLaw(p, (u[1:] / np.sqrt(p)).T)


def construct_obtuse(
    probabilities: Sequence[Sequence[float]], cap: int = DEFAULT_CAP
) -> WalkSpec:
    """Build a walk carrying the given per-step outcome probabilities.

    Every step is the canonical step of its probabilities, so the result
    always validates. Steps with the same probabilities share one StepLaw,
    built (and checked) at the first of them.
    """
    steps = []
    laws: dict[tuple, StepLaw] = {}
    for n, p in enumerate(probabilities):
        row = np.asarray(p, dtype=float)
        key = (row.shape, row.tobytes())
        if key not in laws:
            laws[key] = canonical_step(row, n, cap)
        steps.append(laws[key])
    if not steps:
        raise ValueError("need at least one step")
    return WalkSpec(d=steps[0].d, N=len(steps) - 1, steps=tuple(steps), cap=cap)


def structure_tensor(walk: WalkSpec, n: int) -> np.ndarray:
    """(d, d, d) tensor phi[i,j,k] = sum_m p_m v_m^i v_m^j v_m^k of the given step.

    phi[i, j, k] multiplies the k-th increment coordinate in the pointwise
    identity Y^i Y^j = delta^{ij} + sum_k phi[i, j, k] Y^k.
    """
    step = walk.steps[_check_range(n, 0, walk.N, "step")]
    return np.einsum("m,mi,mj,mk->ijk", step.p, step.v, step.v, step.v)


def structure_residual(walk: WalkSpec, n: int) -> float:
    """Worst pointwise defect of Y^i Y^j = delta^{ij} + sum_k phi[i,j,k] Y^k."""
    phi = structure_tensor(walk, n)  # checks n before any step is read
    step = walk.steps[n]
    lhs = np.einsum("mi,mj->mij", step.v, step.v)
    rhs = np.eye(walk.d)[None] + np.einsum("ijk,mk->mij", phi, step.v)
    return float(np.max(np.abs(lhs - rhs)))


def increment_rv(walk: WalkSpec, n: int, j: int) -> PathTable:
    """The j-th coordinate of the step-n increment as a path table."""
    _check_range(n, 0, walk.N, "step")
    _check_range(j, 1, walk.d, "coordinate")
    space = walk.space
    column = np.repeat(walk.steps[n].v[:, j - 1], space.atom_size(n))
    return PathTable(space, np.tile(column, space.atom_count(n - 1)))

