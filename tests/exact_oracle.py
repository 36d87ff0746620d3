"""Exact rational results of the Clark-Ocone operators on their float inputs.

Every float input (the step probabilities p_k, the outcome vectors v_k and
the table values) is read as the exact dyadic rational it stores
(`fractions.Fraction`), and everything after that is computed without
rounding. `exact_means` gives E[F | F_n] on the atoms of F_n, one backward
sweep from time N; in exact arithmetic the tower property holds, so the
sweep is the conditional mean itself. `exact_integrand` gives the
Clark-Ocone integrand sum_i p_i v_i E[F | F_{k-1}, w_k = i] on the atoms of
F_{k-1}, for every k. `exact_emm_weights` gives the risk-neutral weights of
a diagonal market step, sum_i q_i lambda_i^j = r for every asset j and
sum_i q_i = 1, by Gauss-Jordan elimination on the rationals.

`Comparison` applies the rule for replacing one float form by another: on
a fixed corpus, the new form's largest error against the exact result is
no larger, and it is the farther from exact on fewer entries. An error is
scaled by the largest exact entry of the same result (one walk, all k).
Sizes stay small (d <= 3, N <= 5): the rationals grow with every step.
"""
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _exact(values) -> list[Fraction]:
    return [Fraction(float(x)) for x in np.ravel(values)]


def exact_means(walk, values, n: int) -> list[Fraction]:
    """E[F | F_n] on each atom of F_n, in atom order, for the path-indexed values."""
    level = _exact(values)
    for step in reversed(walk.steps[n + 1:]):
        p = _exact(step.p)
        total = sum(p)
        level = [
            sum(pi * x for pi, x in zip(p, level[a:a + len(p)])) / total
            for a in range(0, len(level), len(p))
        ]
    return level


def exact_integrand(walk, tables) -> list[list[Fraction]]:
    """E[D_k F_k | F_{k-1}] for k = 0..N, F_k the k-th path-indexed table.

    Entry k lists the d coordinates of each atom of F_{k-1} in turn.
    """
    out = []
    for k, (step, values) in enumerate(zip(walk.steps, tables)):
        c = [[pi * vij for vij in _exact(vi)] for pi, vi in zip(_exact(step.p), step.v)]
        means = exact_means(walk, values, k)
        out.append([
            sum(c[i][j] * means[a + i] for i in range(walk.d + 1))
            for a in range(0, len(means), walk.d + 1)
            for j in range(walk.d)
        ])
    return out


def exact_emm_weights(lams, rate) -> list[Fraction]:
    """The q of one diagonal step, from its (d+1, d) returns lambda_i^j and its rate."""
    size = len(lams)
    rows = [_exact(column) + _exact([rate]) for column in np.transpose(lams)]
    rows.append([Fraction(1)] * (size + 1))
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[size] / row[col] for col, row in enumerate(rows)]


def atom_entries(xi) -> list[np.ndarray]:
    """The rows of a PredictableProcess laid out as exact_integrand's result."""
    return [xi.at(k).ravel() for k in range(xi.space.N + 1)]


def scaled_errors(got, exact) -> np.ndarray:
    """|got - exact| entry by entry over the largest exact entry (1 if all are 0).

    Both arguments are laid out k by k as exact_integrand's result.
    """
    exact = [e for row in exact for e in row]
    scale = max(abs(e) for e in exact) or 1
    got = np.concatenate([np.ravel(row) for row in got])
    return np.array([float(abs(Fraction(float(g)) - e) / scale) for g, e in zip(got, exact)])


@dataclass
class Comparison:
    """Two float forms against the exact results of one corpus."""

    max_new: float = 0.0
    max_old: float = 0.0
    farther_new: int = 0  # entries where the new form is strictly farther from exact
    farther_old: int = 0
    entries: int = 0

    def add(self, new, old, exact) -> None:
        err_new, err_old = scaled_errors(new, exact), scaled_errors(old, exact)
        self.max_new = max(self.max_new, float(err_new.max()))
        self.max_old = max(self.max_old, float(err_old.max()))
        self.farther_new += int(np.sum(err_new > err_old))
        self.farther_old += int(np.sum(err_old > err_new))
        self.entries += len(err_new)

    @property
    def passes(self) -> bool:
        """The rule: no larger max error, and farther from exact on fewer entries."""
        return self.max_new <= self.max_old and self.farther_new < self.farther_old
