"""Per-axis chaos and OU operators against the per-tuple and dense-row oracles."""
import numpy as np
import pytest

from obtusewalk import (
    cov_semigroup,
    decompose,
    multiple_integral,
    ou_apply_chaos,
    ou_apply_kernel,
    ou_kernel_matrix,
    reconstruct,
)
from chaos_oracle import (
    oracle_cov_semigroup,
    oracle_decompose,
    oracle_kernel_rows,
    oracle_multiple_integral,
    oracle_ou_apply_chaos,
    oracle_ou_apply_kernel,
    oracle_reconstruct,
)
from helpers import random_kernel, random_table, random_walk

TOL = 1e-12

#: (d, N) of the small random walks: every d from 1 to 3
SIZES = [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2)]


def _scaled_gap(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _assert_coefficients_match(got, want):
    assert (got.d, got.N, len(got.kernels)) == (want.d, want.N, len(want.kernels))
    assert got.mean == want.mean
    for k_got, k_want in zip(got.kernels, want.kernels):
        assert set(k_got.entries) == set(k_want.entries)
        for times, tensor in k_want.entries.items():
            assert _scaled_gap(k_got.entries[times], tensor) <= TOL


@pytest.mark.parametrize("d,N", SIZES)
def test_decompose_and_reconstruct_match_the_oracle(rng, d, N):
    walk = random_walk(rng, d, N)
    for _ in range(3):
        table = random_table(rng, walk.space)
        coeffs = decompose(walk, table)
        _assert_coefficients_match(coeffs, oracle_decompose(walk, table))
        back = reconstruct(walk, coeffs).values
        assert _scaled_gap(back, oracle_reconstruct(walk, coeffs)) <= TOL


@pytest.mark.parametrize("d,N", SIZES)
def test_multiple_integral_matches_the_oracle(rng, d, N):
    walk = random_walk(rng, d, N)
    for order in range(N + 3):  # includes order 0 and orders beyond N + 1
        kernel = random_kernel(rng, d, N, order)
        got = multiple_integral(walk, kernel).values
        assert _scaled_gap(got, oracle_multiple_integral(walk, kernel)) <= TOL


@pytest.mark.parametrize("d,N", SIZES)
def test_ou_routes_match_the_oracle(rng, d, N):
    walk = random_walk(rng, d, N)
    table = random_table(rng, walk.space)
    for t in (0.0, 0.3, 2.0):
        via_chaos = ou_apply_chaos(walk, table, t).values
        assert _scaled_gap(via_chaos, oracle_ou_apply_chaos(walk, table, t)) <= TOL
        via_kernel = ou_apply_kernel(walk, table, t).values
        assert _scaled_gap(via_kernel, oracle_ou_apply_kernel(walk, table, t)) <= TOL
        full = oracle_kernel_rows(walk, t, 0, walk.space.num_paths)
        assert _scaled_gap(ou_kernel_matrix(walk, t).values, full) <= TOL


@pytest.mark.parametrize("d,N", SIZES)
def test_cov_semigroup_matches_the_oracle(rng, d, N):
    walk = random_walk(rng, d, N)
    f, g = random_table(rng, walk.space), random_table(rng, walk.space)
    assert _scaled_gap(cov_semigroup(walk, f, g), oracle_cov_semigroup(walk, f, g)) <= TOL


@pytest.mark.parametrize("N", [10, 11, 12])
def test_long_walks_match_the_oracle(rng, N):
    walk = random_walk(rng, 1, N)
    table = random_table(rng, walk.space)
    coeffs = decompose(walk, table)
    _assert_coefficients_match(coeffs, oracle_decompose(walk, table))
    assert _scaled_gap(reconstruct(walk, coeffs).values, oracle_reconstruct(walk, coeffs)) <= TOL
    assert reconstruct(walk, coeffs).max_abs_diff(table) <= TOL


def test_operators_never_build_the_increment_table(rng):
    walk = random_walk(rng, 2, 3)
    f, g = random_table(rng, walk.space), random_table(rng, walk.space)
    reconstruct(walk, decompose(walk, f))
    ou_apply_chaos(walk, f, 0.4)
    ou_apply_kernel(walk, f, 0.4)
    ou_kernel_matrix(walk, 0.4)
    cov_semigroup(walk, f, g)
    assert "increments" not in walk.__dict__
