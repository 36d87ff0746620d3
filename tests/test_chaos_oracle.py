"""Per-axis chaos and OU operators against the per-tuple and dense-row oracles."""
import numpy as np
import pytest

from obtusewalk import (
    Kernel,
    cov_semigroup,
    decompose,
    gradient,
    gradient_chaos,
    multiple_integral,
    ou_apply_chaos,
    ou_apply_kernel,
    ou_kernel_matrix,
    parseval_energy,
    project_horizon,
    reconstruct,
)
from obtusewalk.serialize import chaos_to_json, dump_json, kernel_to_json
from chaos_oracle import (
    oracle_cov_semigroup,
    oracle_decompose,
    oracle_gradient_chaos,
    oracle_kernel_rows,
    oracle_multiple_integral,
    oracle_ou_apply_chaos,
    oracle_ou_apply_kernel,
    oracle_kernel_view,
    oracle_reconstruct,
)
from helpers import max_abs_diff, random_kernel, random_table, random_walk

TOL = 1e-12

#: (d, N) of the small random walks: every d from 1 to 3
SIZES = [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2)]


def _scaled_gap(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _kernels(coeffs):
    return [coeffs.kernel(r) for r in range(1, coeffs.N + 2)]


def _assert_coefficients_match(got, want):
    mean, kernels = want
    assert got.mean == mean
    for k_got, k_want in zip(_kernels(got), kernels, strict=True):
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
        assert _scaled_gap(back, oracle_reconstruct(walk, coeffs.mean, _kernels(coeffs))) <= TOL


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
        assert _scaled_gap(ou_kernel_matrix(walk, t), full) <= TOL


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
    want = oracle_reconstruct(walk, coeffs.mean, _kernels(coeffs))
    assert _scaled_gap(reconstruct(walk, coeffs).values, want) <= TOL
    assert max_abs_diff(reconstruct(walk, coeffs), table) <= TOL


def test_operators_never_build_the_increment_table(rng):
    walk = random_walk(rng, 2, 3)
    f, g = random_table(rng, walk.space), random_table(rng, walk.space)
    reconstruct(walk, decompose(walk, f))
    ou_apply_chaos(walk, f, 0.4)
    ou_apply_kernel(walk, f, 0.4)
    ou_kernel_matrix(walk, 0.4)
    cov_semigroup(walk, f, g)
    assert "increments" not in walk.__dict__


@pytest.mark.parametrize("d,N", SIZES)
def test_gradient_chaos_matches_the_oracle(rng, d, N):
    walk = random_walk(rng, d, N)
    coeffs = decompose(walk, random_table(rng, walk.space))
    kernels = _kernels(coeffs)
    for k in range(N + 1):
        for j in range(1, d + 1):
            got = gradient_chaos(walk, coeffs, k, j).values
            assert _scaled_gap(got, oracle_gradient_chaos(walk, kernels, k, j)) <= TOL


@pytest.mark.parametrize("d,N", [(1, 12), (2, 7), (4, 3)])
def test_chaos_json_text_matches_the_kernel_view(rng, d, N):
    # orders up to N + 1 >= 4, where r! * (block / r!) is not the block itself
    walk = random_walk(rng, d, N)
    table = random_table(rng, walk.space)
    mean, kernels = oracle_kernel_view(walk, table)
    want = {
        "d": d,
        "N": N,
        "mean": mean,
        "kernels": {str(k.order): kernel_to_json(k) for k in kernels},
    }
    assert dump_json(chaos_to_json(decompose(walk, table))) == dump_json(want)


def test_kernel_view_matches_the_per_tuple_oracle_bit_for_bit(rng):
    walk = random_walk(rng, 1, 12)
    table = random_table(rng, walk.space)
    coeffs = decompose(walk, table)
    for want in oracle_kernel_view(walk, table)[1]:
        got = coeffs.kernel(want.order)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.tensors.view(np.uint64), want.tensors.view(np.uint64))


def test_tensor_operators_build_no_kernel_and_no_path_tables(rng, monkeypatch):
    def refuse(self):
        raise AssertionError("a Kernel was built")

    monkeypatch.setattr(Kernel, "__post_init__", refuse)
    walk = random_walk(rng, 2, 3)
    table = random_table(rng, walk.space)
    coeffs = decompose(walk, table)
    assert max_abs_diff(reconstruct(walk, coeffs), table) <= TOL
    gradient_chaos(walk, coeffs, 1, 2)
    project_horizon(coeffs, 1)
    parseval_energy(coeffs)
    assert "increments" not in walk.__dict__
    assert "outcomes" not in walk.space.__dict__
