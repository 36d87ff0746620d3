"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from obtusewalk import (
    PathTable,
    VectorProcess,
    clark_ocone,
    clark_ocone_from,
    construct_obtuse,
    cov_gradient,
    cov_semigroup,
    covariance,
    crr_market,
    decompose,
    deviation_bound,
    divergence,
    expectation,
    find_emm,
    gradient,
    gradient_chaos,
    hedge_clark_ocone,
    hedge_replicate,
    integrate_predictable,
    is_measurable,
    multiple_integral,
    ou_apply_chaos,
    ou_apply_kernel,
    parse_payoff,
    parseval_energy,
    poincare_check,
    price_claim,
    reconstruct,
    to_source,
    validate,
    verify_strategy,
)
from obtusewalk.cli import main as cli_main
from obtusewalk.payoff import (
    BinOp,
    BondRef,
    FuncCall,
    Neg,
    Num,
    PriceRef,
    eval_payoff,
)
from obtusewalk.walk import increment_rv, structure_residual
from chaos_oracle import kernel_dot, kernel_head_slice
from helpers import (
    bernoulli,
    d2_fixture,
    max_abs_diff,
    random_kernel,
    random_predictable,
    random_process,
    random_table,
    random_walk,
)
from market_oracle import oracle_strategy_values

HERE = os.path.dirname(__file__)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_walk_identities():
    with criterion(1, "constructed walks validate; structure equation pointwise"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for d in (1, 2, 3):
            for _ in range(50):
                raw = rng.uniform(0.05, 1.0, size=d + 1)
                walk = construct_obtuse([raw / raw.sum()])
                report = validate(walk)
                assert report.passed
                assert report.max_mean_residual < 1e-10
                assert report.max_moment_residual < 1e-10
                assert structure_residual(walk, 0) < 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_isometry_and_recurrence():
    with criterion(2, "multiple-integral isometry and order recurrence"):
        rng = np.random.default_rng(2)
        start = time.perf_counter()
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            kernels = {r: [random_kernel(rng, d, N, r) for _ in range(3)] for r in (1, 2, 3)}
            for r, fs in kernels.items():
                for s, gs in kernels.items():
                    for f in fs:
                        for g in gs:
                            lhs = expectation(
                                walk,
                                multiple_integral(walk, f) * multiple_integral(walk, g),
                            )
                            rhs = math.factorial(r) * kernel_dot(f, g) if r == s else 0.0
                            assert abs(lhs - rhs) < 1e-9
            for r, fs in kernels.items():
                for f in fs:
                    direct = multiple_integral(walk, f)
                    total = np.zeros(walk.space.num_paths)
                    for k in range(1, d + 1):
                        for last in range(N + 1):
                            inner = multiple_integral(walk, kernel_head_slice(f, k, last))
                            total += r * inner.values * increment_rv(walk, last, k).values
                    assert np.max(np.abs(direct.values - total)) < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_3_chaos_round_trip():
    with criterion(3, "chaos decomposition round trip and energy identity"):
        rng = np.random.default_rng(3)
        walk = d2_fixture(2)
        assert walk.space.num_paths == 27
        for _ in range(100):
            table = random_table(rng, walk.space)
            coeffs = decompose(walk, table)
            assert max_abs_diff(reconstruct(walk, coeffs), table) < 1e-10
            energy = expectation(walk, table * table)
            assert abs(parseval_energy(coeffs) - energy) <= 1e-9 * max(1.0, energy)


def test_criterion_4_gradient_equivalence():
    with criterion(4, "finite-difference and chaos gradients agree; vanishing iff measurable"):
        rng = np.random.default_rng(3)  # same corpus as the round-trip criterion
        walk = d2_fixture(2)
        for _ in range(100):
            table = random_table(rng, walk.space)
            coeffs = decompose(walk, table)
            grad = gradient(walk, table)
            for k in range(3):
                for j in (1, 2):
                    assert max_abs_diff(
                        gradient_chaos(walk, coeffs, k, j), grad.table(k, j)
                    ) < 1e-9
        for n in range(-1, 3):
            table = PathTable(
                walk.space,
                np.repeat(
                    rng.uniform(-1, 1, walk.space.atom_count(n)),
                    walk.space.atom_size(n),
                ),
            )
            grad = gradient(walk, table)
            tail = grad.values[n + 1 :]
            assert tail.size == 0 or np.max(np.abs(tail)) < 1e-10
        # converse: vanishing gradient beyond n forces measurability at n
        for _ in range(10):
            table = random_table(rng, walk.space)
            grad = gradient(walk, table)
            for n in range(-1, 3):
                tail = grad.values[n + 1 :]
                if tail.size == 0 or np.max(np.abs(tail)) < 1e-10:
                    assert is_measurable(table, n)


def test_criterion_5_adjointness_and_divergence():
    with criterion(5, "divergence is adjoint to the gradient and extends the integral"):
        rng = np.random.default_rng(5)
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for _ in range(10):
                f = random_table(rng, walk.space)
                x = random_process(rng, walk)
                pairing = np.einsum(
                    "kpj,kpj->p", gradient(walk, f).values, x.values
                )
                lhs = float(np.add.reduce(walk.measure * pairing))
                rhs = expectation(walk, f * divergence(walk, x))
                assert abs(lhs - rhs) < 1e-9
            for _ in range(10):
                u = random_predictable(rng, walk)
                assert np.array_equal(
                    divergence(walk, u).values,
                    integrate_predictable(walk, u).values,
                )


def test_criterion_6_clark_ocone():
    with criterion(6, "predictable representation reconstructs with exact energy split"):
        rng = np.random.default_rng(6)
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for _ in range(10):
                table = random_table(rng, walk.space)
                mean, xi = clark_ocone(walk, table)
                recon = integrate_predictable(walk, xi) + mean
                assert max_abs_diff(recon, table) < 1e-10
                for n in range(-1, N + 1):
                    head, tail = clark_ocone_from(walk, table, n)
                    recon = integrate_predictable(walk, tail) + head
                    assert max_abs_diff(recon, table) < 1e-10
                    energy = expectation(walk, head * head) + float(
                        np.add.reduce(
                            walk.measure
                            * np.einsum("kpj,kpj->p", tail.on_paths(), tail.on_paths())
                        )
                    )
                    assert abs(energy - expectation(walk, table * table)) < 1e-9
                variance, bound = poincare_check(walk, table)
                assert variance <= bound + 1e-12


def test_criterion_7_ou_semigroup_and_covariance():
    with criterion(7, "kernel and chaos semigroups agree; covariance identities hold"):
        rng = np.random.default_rng(7)
        for d, N in [(1, 2), (2, 2)]:
            walk = random_walk(rng, d, N)
            for _ in range(5):
                table = random_table(rng, walk.space)
                for t in (0.0, 0.3, 1.0, 5.0):
                    via_chaos = ou_apply_chaos(walk, table, t)
                    via_kernel = ou_apply_kernel(walk, table, t)
                    assert max_abs_diff(via_chaos, via_kernel) < 1e-9
                for s, t in [(0.2, 0.3), (1.0, 0.5)]:
                    once = ou_apply_chaos(walk, table, s + t)
                    twice = ou_apply_chaos(walk, ou_apply_chaos(walk, table, t), s)
                    assert max_abs_diff(once, twice) < 1e-10
                other = random_table(rng, walk.space)
                oracle = covariance(walk, table, other)
                assert abs(cov_gradient(walk, table, other) - oracle) < 1e-9
                assert abs(cov_semigroup(walk, table, other) - oracle) < 1e-9


def test_criterion_8_deviation_bound():
    with criterion(8, "tail bounds dominate the enumerated tails"):
        walk = bernoulli(1)
        bound = deviation_bound(walk, increment_rv(walk, 0, 1), 1.0)
        assert abs(bound.bound_log - 3.0 ** (-0.25)) < 1e-12
        assert abs(bound.bound_log - 0.759836) < 1e-6
        assert bound.oracle_tail == 0.5
        assert bound.oracle_tail <= bound.bound_bennett <= bound.bound_log
        rng = np.random.default_rng(8)
        count = 0
        for d, N in [(1, 2), (2, 2)]:
            w = random_walk(rng, d, N)
            for _ in range(50):
                table = random_table(rng, w.space)
                count += 1
                for x in (0.25, 0.5, 1.0, 2.0, 4.0):
                    b = deviation_bound(w, table, x)
                    assert b.bound_bennett <= b.bound_log + 1e-15
                    assert b.oracle_tail <= b.bound_bennett + 1e-12
        assert count == 100


def test_criterion_9_market():
    with criterion(9, "CRR prices and hedges; closed-form equals replication; basket"):
        start = time.perf_counter()
        one = crr_market(100.0, 0.1, -0.1, 0.0, 1)
        wq = find_emm(one)
        claim = eval_payoff(parse_payoff("max(S(1)-100,0)", 1, 0), one)
        assert abs(price_claim(one, wq, claim) - 5.0) < 1e-10
        strategy = hedge_replicate(one, wq, claim)
        assert np.max(np.abs(strategy.gamma[0] - 0.5)) < 1e-10
        assert np.max(np.abs(strategy.beta[0] + 45.0)) < 1e-8

        two = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        wq2 = find_emm(two)
        claim2 = eval_payoff(parse_payoff("max(S(1)-100,0)", 1, 1), two)
        assert abs(price_claim(two, wq2, claim2) - 5.25) < 1e-10
        a = hedge_replicate(two, wq2, claim2)
        b = hedge_clark_ocone(two, wq2, claim2)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8
        report = verify_strategy(two, a, claim2)
        assert report.passed

        from test_market import d2_market

        basket = d2_market()
        wq3 = find_emm(basket)
        claim3 = eval_payoff(
            parse_payoff("max(0.5*(S(1)+S(2))-100,0)", 2, 1), basket
        )
        s3 = hedge_replicate(basket, wq3, claim3)
        values, _ = oracle_strategy_values(basket, s3)
        assert np.max(np.abs(values[basket.N] - claim3.values)) < 1e-8
        s3c = hedge_clark_ocone(basket, wq3, claim3)
        assert np.max(np.abs(s3.gamma - s3c.gamma)) < 1e-8
        assert verify_strategy(basket, s3, claim3).passed
        assert time.perf_counter() - start < 2.0


def _random_expr(rng: np.random.Generator, depth: int = 0):
    leaf_kind = rng.integers(0, 3)
    if depth >= 4 or rng.random() < 0.35:
        if leaf_kind == 0:
            return Num(float(np.round(rng.uniform(0, 100), 4)))
        if leaf_kind == 1:
            time_idx = None if rng.random() < 0.5 else int(rng.integers(0, 2))
            return PriceRef(int(rng.integers(1, 3)), time_idx)
        return BondRef(int(rng.integers(0, 2)))
    kind = rng.integers(0, 4)
    if kind == 0:
        return Neg(_random_expr(rng, depth + 1))
    if kind == 1:
        op = ["+", "-", "*", "/"][rng.integers(0, 4)]
        return BinOp(op, _random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if kind == 2:
        name = ["max", "min"][rng.integers(0, 2)]
        args = tuple(_random_expr(rng, depth + 1) for _ in range(int(rng.integers(2, 4))))
        return FuncCall(name, args)
    return FuncCall("abs", (_random_expr(rng, depth + 1),))


def test_criterion_10_cli(capsys):
    with criterion(10, "golden CLI outputs, byte-identical reruns, parser round trip"):
        from test_cli import COMMANDS, GOLD

        for name, argv in sorted(COMMANDS.items()):
            code = cli_main(argv)
            first = capsys.readouterr().out
            assert code == 0
            with open(os.path.join(GOLD, f"{name}.txt"), "r", encoding="utf-8") as fh:
                assert first == fh.read()
            cli_main(argv)
            assert capsys.readouterr().out == first
        rng = np.random.default_rng(10)
        for _ in range(100):
            tree = _random_expr(rng)
            assert parse_payoff(to_source(tree), 2, 1) == tree
