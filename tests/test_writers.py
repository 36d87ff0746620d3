"""Single-pass JSON and CSV writers against the reference writers in
serialize_oracle.py: byte-equal output, each number formatted once."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obtusewalk import (
    MarketSpec,
    PathTable,
    Strategy,
    clark_ocone,
    crr_market,
    decompose,
    find_emm,
    gradient,
    hedge_clark_ocone,
    hedge_replicate,
)
from obtusewalk import serialize
from obtusewalk.ou import ou_kernel_matrix
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2, random_table, random_walk
from serialize_oracle import (
    oracle_dump_json,
    oracle_gradient_to_csv,
    oracle_matrix_to_csv,
    oracle_strategy_to_csv,
    oracle_table_to_csv,
)

_LEAF = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-999, 999),
    st.integers(-2**70, 2**70),
    st.integers(-10**9, 10**9).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
# short items in lists of 20 to 40 land on both sides of the 100-character flat limit
_SHORT = st.one_of(st.integers(-99, 99), st.booleans(), st.none())


def _json_value(depth: int):
    if depth == 0:
        return _LEAF
    inner = _json_value(depth - 1)
    return st.one_of(
        _LEAF,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=7),
        st.lists(_SHORT, min_size=20, max_size=40),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(_json_value(5), st.sampled_from([0, 2, 6]))
def test_dump_json_matches_recursive_renderer(obj, indent):
    assert serialize.dump_json(obj, indent) == oracle_dump_json(obj, indent)


def _floats_in(obj) -> list:
    if isinstance(obj, dict):
        return [x for val in obj.values() for x in _floats_in(val)]
    if isinstance(obj, (list, tuple)):
        return [x for val in obj for x in _floats_in(val)]
    return [obj] if isinstance(obj, float) else []


def test_each_float_is_formatted_once(rng, monkeypatch):
    walk = random_walk(rng, 2, 3)
    table = random_table(rng, walk.space)
    mean, xi = clark_ocone(walk, table)
    payloads = [
        {"mean": mean, "integrand": serialize.process_to_json(xi)["values"]},
        serialize.chaos_to_json(decompose(walk, table)),
        gradient(walk, table).values.tolist(),
        [[[[0.25] * 6] * 2] * 2] * 2,  # four list levels, every one expanded
    ]
    seen = Counter()
    format_once = serialize.fmt_float

    def counting(x):
        seen[x] += 1
        return format_once(x)

    monkeypatch.setattr(serialize, "fmt_float", counting)
    for payload in payloads:
        seen.clear()
        text = serialize.dump_json(payload)
        assert seen == Counter(_floats_in(payload))
        assert text == oracle_dump_json(payload)


def _basket_market(rng, periods: int) -> MarketSpec:
    v = np.array([[SQ2, 1.0], [-SQ2, 1.0], [0.0, -1.0]])
    rate = 0.01
    sigmas = rng.uniform(0.02, 0.08, size=(periods, 2))
    steps = [np.array([np.diag(rate + sig * v[i]) for i in range(3)]) for sig in sigmas]
    return MarketSpec(
        d=2,
        N=periods - 1,
        s_init=rng.uniform(90.0, 110.0, size=2),
        rates=np.full(periods, rate),
        scenarios=np.array(steps),
    )


@pytest.mark.parametrize("method", [hedge_replicate, hedge_clark_ocone])
@pytest.mark.parametrize("kind", ["crr8", "basket4"])
def test_strategy_csv_matches_atom_loop(rng, kind, method):
    if kind == "crr8":
        market = crr_market(100.0, 0.1, -0.08, 0.01, 8)
        source = "max(S(1)-100,0)"
    else:
        market = _basket_market(rng, 4)
        source = "max(0.5*(S(1)+S(2))-100,0)"
    claim = eval_payoff(parse_payoff(source, market.d, market.N), market)
    strategy = method(market, find_emm(market), claim)
    assert serialize.strategy_to_csv(market, strategy) == oracle_strategy_to_csv(
        market, strategy
    )


def test_strategy_csv_prefixes_with_multi_digit_outcomes(rng):
    d, N = 10, 2
    market = MarketSpec(
        d=d,
        N=N,
        s_init=rng.uniform(50.0, 150.0, size=d),
        rates=np.full(N + 1, 0.01),
        scenarios=np.array(
            [[np.diag(rng.uniform(-0.2, 0.2, size=d)) for _ in range(d + 1)]] * (N + 1)
        ),
    )
    paths = market.space.num_paths
    strategy = Strategy.from_paths(
        market.space,
        rng.uniform(-1.0, 1.0, size=(N + 1, paths)),
        rng.uniform(-1.0, 1.0, size=(N + 1, paths, d)),
    )
    text = serialize.strategy_to_csv(market, strategy)
    assert text == oracle_strategy_to_csv(market, strategy)
    atoms = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert atoms[:13] == ["", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "00"]
    assert atoms[-1] == "1010"


@pytest.mark.parametrize("d, N", [(1, 7), (2, 4)])
def test_table_gradient_and_matrix_csv_match_loops(rng, d, N):
    walk = random_walk(rng, d, N)
    table = random_table(rng, walk.space)
    assert serialize.table_to_csv(table.values) == oracle_table_to_csv(table.values)
    grad = gradient(walk, table).values
    assert serialize.gradient_to_csv(grad) == oracle_gradient_to_csv(grad)
    small = random_walk(rng, d, 2)
    matrix = ou_kernel_matrix(small, 0.5).values
    assert serialize.matrix_to_csv(matrix) == oracle_matrix_to_csv(matrix)


def test_json_views_equal_per_element_conversion(rng):
    walk = random_walk(rng, 2, 3)
    table = PathTable(walk.space, rng.standard_normal(walk.space.num_paths))
    xi = clark_ocone(walk, table)[1]
    assert serialize.table_to_json(table) == [float(x) for x in table.values]
    assert serialize.process_to_json(xi)["values"] == [
        [list(map(float, row)) for row in t] for t in xi.values
    ]
