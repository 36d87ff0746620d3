#!/usr/bin/env python3
"""Compare the exponential tail bounds against exact enumerated tails.

Sweeps a threshold grid for a few functionals on small walks and prints
the enumerated tail next to the two bounds (the Bennett form always
undercuts the logarithmic weakening).
"""
import numpy as np

from obtusewalk import PathTable, StepLaw, WalkSpec, deviation_bound, increment_rv
from obtusewalk.walk import construct_obtuse


def exact_bernoulli(N):
    step = StepLaw(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))
    return WalkSpec(d=1, N=N, steps=(step,) * (N + 1))


def sweep(name, walk, table, grid):
    print(f"=== {name}")
    print(f"{'x':>6}  {'tail':>10}  {'bennett':>10}  {'log':>10}")
    for x in grid:
        b = deviation_bound(walk, table, x)
        print(
            f"{x:6.2f}  {b.oracle_tail:10.6f}  {b.bound_bennett:10.6f}  {b.bound_log:10.6f}"
        )
    b = deviation_bound(walk, table, grid[0])
    print(
        f"constants: spread={b.spread:.4f} coeff_max={b.coeff_max:.4f} "
        f"grad_norm={b.grad_norm:.4f} scale={b.scale:.4f}\n"
    )


def main():
    walk = exact_bernoulli(3)
    total = sum(increment_rv(walk, n, 1) for n in range(walk.N + 1))
    sweep("sum of four symmetric steps", walk, total, [0.5, 1.0, 2.0, 3.0, 4.0])

    walk = exact_bernoulli(1)
    sweep("single symmetric step", walk, increment_rv(walk, 0, 1), [0.5, 1.0])

    walk = construct_obtuse([[0.25, 0.25, 0.5]] * 2)
    rng = np.random.default_rng(0)
    bounded = PathTable(walk.space, rng.uniform(-1.0, 1.0, walk.space.num_paths))
    sweep("random bounded functional on a 2-d walk", walk, bounded, [0.25, 0.5, 1.0])


if __name__ == "__main__":
    main()
