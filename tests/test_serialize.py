"""JSON/CSV interchange: round trips, raw-kernel semantics, formatting."""
import numpy as np
import pytest

from obtusewalk import decompose, eval_payoff, find_emm, parse_payoff, price_claim, reconstruct
from obtusewalk.serialize import (
    chaos_from_json,
    chaos_to_json,
    dump_json,
    fmt_float,
    kernel_from_json,
    kernel_to_json,
    market_from_json,
    process_from_json,
    table_from_json,
    table_to_csv,
    walk_from_json,
    walk_to_json,
)
from chaos_oracle import kernel_allclose
from helpers import bernoulli, d2_fixture, max_abs_diff, random_process, random_table


class TestFormatting:
    def test_float_digits(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(-45.0) == "-45"
        assert fmt_float(3.0 ** -0.25) == "0.75983568565159254"

    def test_round_trip_through_text(self, rng):
        for x in rng.uniform(-1e6, 1e6, size=50):
            assert float(fmt_float(float(x))) == float(x)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fmt_float(float("nan"))

    def test_dump_json_deterministic(self):
        payload = {"a": [1.0, 2.5], "b": {"c": True, "d": None}}
        assert dump_json(payload) == dump_json(payload)


class TestWalkJSON:
    def test_round_trip(self):
        walk = d2_fixture(1)
        again = walk_from_json(walk_to_json(walk))
        for a, b in zip(walk.steps, again.steps):
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.v, b.v)

    def test_construction_request(self):
        obj = {"d": 1, "N": 1, "steps": [{"p": [0.5, 0.5]}, {"p": [0.25, 0.75]}]}
        walk = walk_from_json(obj)
        assert walk.steps[1].v[0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_step_count_mismatch(self):
        with pytest.raises(ValueError):
            walk_from_json({"d": 1, "N": 1, "steps": [{"p": [0.5, 0.5]}]})


class TestKernelJSON:
    def test_raw_entries_are_symmetrized(self):
        obj = {
            "order": 2,
            "entries": [{"times": [1, 0], "coords": [2, 1], "value": 1.0}],
        }
        kernel = kernel_from_json(obj, 2)
        assert kernel.tensor((0, 1))[0, 1] == pytest.approx(0.5)

    def test_round_trip_of_symmetric_kernel(self, rng):
        walk = d2_fixture(1)
        coeffs = decompose(walk, random_table(rng, walk.space))
        for order in (1, 2):
            kernel = coeffs.kernel(order)
            again = kernel_from_json(kernel_to_json(kernel), 2)
            assert kernel_allclose(kernel, again, atol=1e-14)


class TestChaosJSON:
    def test_full_round_trip(self, rng):
        walk = d2_fixture(1)
        table = random_table(rng, walk.space)
        coeffs = decompose(walk, table)
        again = chaos_from_json(chaos_to_json(coeffs))
        recon = reconstruct(walk, again)
        assert max_abs_diff(recon, table) < 1e-10


class TestTableAndProcessJSON:
    def test_table_round_trip(self, rng):
        walk = bernoulli(1)
        table = random_table(rng, walk.space)
        again = table_from_json(table.values.tolist(), walk.space)
        assert np.array_equal(again.values, table.values)

    def test_table_csv(self):
        walk = bernoulli(0)
        table = table_from_json([1.0, -0.5], walk.space)
        assert table_to_csv(table.values) == "path,value\n0,1\n1,-0.5\n"

    def test_wrong_length_rejected(self):
        walk = bernoulli(1)
        with pytest.raises(ValueError):
            table_from_json([1.0, 2.0], walk.space)

    def test_nested_table_names_its_shape(self):
        with pytest.raises(ValueError, match=r"^table has shape \(2, 2\), expected \(4,\)$"):
            table_from_json([[0, 1], [2, 3]], bernoulli(1).space)

    def test_process_round_trip(self, rng):
        walk = d2_fixture(1)
        proc = random_process(rng, walk)
        again = process_from_json({"values": proc.values.tolist()}, walk.space)
        assert np.array_equal(again.values, proc.values)


class TestMarketJSON:
    def test_scalar_rate_broadcast(self):
        obj = {
            "d": 1,
            "N": 1,
            "S0": [100.0],
            "r": 0.05,
            "scenarios": [
                [{"lambda": [0.1]}, {"lambda": [-0.1]}],
                [{"M": [[0.1]]}, {"M": [[-0.1]]}],
            ],
        }
        market = market_from_json(obj)
        assert np.allclose(market.rates, 0.05)
        assert market.scenarios[0, 0, 0, 0] == 0.1
        assert market.scenarios[1, 1, 0, 0] == -0.1

    def test_per_step_rates(self):
        obj = {
            "d": 1,
            "N": 1,
            "S0": [100.0],
            "r": [0.01, 0.02],
            "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.1]}]] * 2,
        }
        market = market_from_json(obj)
        assert market.rates.tolist() == [0.01, 0.02]
        claim = eval_payoff(parse_payoff("max(S(1)-100,0)", 1, 1), market)
        # up probabilities (r_n + 0.1) / 0.2 are 0.55 and 0.6; only up-up pays, 121 - 100
        price = price_claim(market, find_emm(market), claim)
        assert price == pytest.approx(0.55 * 0.6 * 21.0 / (1.01 * 1.02), rel=1e-13)

    def test_missing_scenario_kind(self):
        obj = {
            "d": 1,
            "N": 0,
            "S0": [100.0],
            "r": 0.0,
            "scenarios": [[{"lambda": [0.1]}, {"up": 1.0}]],
        }
        with pytest.raises(ValueError):
            market_from_json(obj)
