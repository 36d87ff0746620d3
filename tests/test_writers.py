"""Single-pass JSON and CSV writers and array-based kernel reading against
the reference code in serialize_oracle.py: byte-equal output at realistic
sizes, each distinct number formatted once, bit-equal kernels."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from obtusewalk import (
    ChaosCoefficients,
    MarketSpec,
    PathTable,
    clark_ocone,
    clark_ocone_from,
    crr_market,
    decompose,
    divergence,
    find_emm,
    gradient,
    hedge_clark_ocone,
    hedge_replicate,
    ou_apply_chaos,
    reconstruct,
    symmetrize,
)
from obtusewalk import serialize
from obtusewalk.cli import main
from obtusewalk.ou import ou_kernel_matrix
from obtusewalk.payoff import eval_payoff, parse_payoff
from helpers import SQ2, random_process, random_table, random_walk
from market_oracle import path_strategy
from serialize_oracle import (
    oracle_chaos_coef,
    oracle_chaos_to_json,
    oracle_dump_json,
    oracle_gradient_to_csv,
    oracle_kernel_entries,
    oracle_matrix_to_csv,
    oracle_strategy_to_csv,
    oracle_symmetrize,
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
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# lists of same-keyed dicts, rendered one key at a time; int lists past 100 characters
_RECORDS = st.lists(
    st.fixed_dictionaries(
        {"times": st.lists(st.integers(0, 40), max_size=40), "%s": _FINITE, "coords": _SHORT}
    ),
    min_size=1,
    max_size=4,
)
_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6), elements=_FINITE
)


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
        _RECORDS,
        _ARRAYS,
    )


@settings(max_examples=300, deadline=None)
@given(_json_value(5), st.sampled_from([0, 2, 6]))
def test_dump_json_matches_recursive_renderer(obj, indent):
    assert serialize.dump_json(obj, indent) == oracle_dump_json(_lists(obj), indent)


def _lists(obj):
    """The payload with every ndarray replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _lists(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(val) for val in obj]
    return obj


def _float_bits(obj) -> list:
    """Bytes (as uint64) of every float in the payload, arrays included."""
    if isinstance(obj, np.ndarray):
        return obj.ravel().view(np.uint64).tolist()
    if isinstance(obj, dict):
        return [x for val in obj.values() for x in _float_bits(val)]
    if isinstance(obj, (list, tuple)):
        return [x for val in obj for x in _float_bits(val)]
    if isinstance(obj, float):
        return np.array([obj]).view(np.uint64).tolist()
    return []


def _formatted_once_each(obj) -> list:
    """Bytes of the values dump_json should format for a payload: each
    distinct value once per float array, nest of float lists or column of
    same-keyed dicts, and each lone float once."""
    if isinstance(obj, dict):
        return [x for val in obj.values() for x in _formatted_once_each(val)]
    if isinstance(obj, list) and obj and all(isinstance(item, dict) for item in obj):
        return [x for key in obj[0] for x in _formatted_once_each([item[key] for item in obj])]
    return sorted(set(_float_bits(obj))) if isinstance(obj, (list, np.ndarray)) else _float_bits(obj)


def test_each_float_is_formatted_once(rng, monkeypatch):
    walk = random_walk(rng, 2, 3)
    table = random_table(rng, walk.space)
    mean, xi = clark_ocone(walk, table)
    xi = xi.on_paths()
    payloads = [
        {"mean": mean, "integrand": xi},
        {"mean": float(xi[1, 0, 0]), "integrand": xi},  # a value in two places
        serialize.chaos_to_json(decompose(walk, table)),
        gradient(walk, table).values,
        np.full((2, 2, 2, 16), 0.25),  # four axes, the outer two expanded
        [[[[0.25] * 16] * 2] * 2] * 2,  # the same as nested lists
        [{"p": [0.5, 0.25], "v": [[1.0], [-1.0]]}] * 3,  # walk steps: one key at a time
    ]
    formatted = []
    format_distinct = serialize._format_distinct

    def counting(values):
        values = list(values)
        formatted.extend(np.array(values, dtype=float).view(np.uint64).tolist())
        return format_distinct(values)

    monkeypatch.setattr(serialize, "_format_distinct", counting)
    for payload in payloads:
        formatted.clear()
        text = serialize.dump_json(payload)
        # once per array or column, and nothing else: no per-entry or per-indent repeats
        assert sorted(formatted) == sorted(_formatted_once_each(payload))
        assert text == oracle_dump_json(_lists(payload))


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


def _nested_heads(d: int, N: int) -> list[str]:
    """The CSV row heads built as before: each time's prefixes grown again from the empty one."""
    heads = []
    for n in range(N + 1):
        prefixes = [""]
        for _ in range(n):
            prefixes = [prefix + str(i) for prefix in prefixes for i in range(d + 1)]
        heads += [f"{n},{prefix}," for prefix in prefixes]
    return heads


def test_strategy_csv_heads_extend_the_last_time(rng):
    """Row heads built in one pass equal the per-time construction, and the
    text equals the atom loop's."""
    for _ in range(16):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(0, {1: 7, 2: 5, 3: 4}[d]))
        assert serialize._row_heads(d, N) == _nested_heads(d, N)
        lam = rng.uniform(-0.2, 0.2, size=(N + 1, d + 1, d))
        scenarios = np.zeros((N + 1, d + 1, d, d))
        scenarios[..., np.arange(d), np.arange(d)] = lam
        market = MarketSpec(
            d=d, N=N, s_init=rng.uniform(50.0, 150.0, size=d), rates=np.full(N + 1, 0.01),
            scenarios=scenarios,
        )
        paths = market.space.num_paths
        strategy = path_strategy(
            market.space,
            rng.uniform(-1.0, 1.0, size=(N + 1, paths)),
            rng.uniform(-1.0, 1.0, size=(N + 1, paths, d)),
            float(rng.uniform(-1.0, 1.0)),
        )
        text = serialize.strategy_to_csv(market, strategy)
        assert text == oracle_strategy_to_csv(market, strategy)


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
    strategy = path_strategy(
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
    matrix = ou_kernel_matrix(small, 0.5)
    assert serialize.matrix_to_csv(matrix) == oracle_matrix_to_csv(matrix)


# -- realistic sizes: every writer and every CLI form against the reference writers

#: 0.0 next to -0.0, subnormals and the far ends of the exponent range
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300]


def _special_values(rng, shape) -> np.ndarray:
    """Values drawn with repeats from the special ones and a few random ones."""
    pool = np.concatenate([_SPECIAL, rng.uniform(-1.0, 1.0, size=12)])
    return pool[rng.integers(0, len(pool), size=shape)]


@pytest.mark.parametrize("shape", [(7,), (5, 4), (3, 40), (3, 4, 2), (2, 3, 2, 5), (6, 729, 2)])
def test_arrays_render_as_their_lists(rng, shape):
    values = _special_values(rng, shape)
    for indent in (0, 2, 6):
        text = serialize.dump_json(values, indent)
        assert text == serialize.dump_json(values.tolist(), indent)
        assert text == oracle_dump_json(values.tolist(), indent)


def test_strided_arrays_render_as_their_lists(rng):
    values = _special_values(rng, (7, 30, 4))
    for view in (values.transpose(2, 0, 1), values[:, ::3, 1:], values[::-1, :, ::2]):
        assert serialize.dump_json(view) == oracle_dump_json(view.tolist())


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (0, 3)])
def test_scalar_and_empty_arrays_render_as_their_lists(shape):
    values = np.full(shape, -0.0)
    assert serialize.dump_json(values) == oracle_dump_json(values.tolist())


def test_rows_at_the_flat_limit():
    # flat forms of exactly 100 and 101 characters: 20 items of "0.5", then one "0.25"
    rows = np.array([[0.5] * 20, [0.5] * 19 + [0.25]])
    flat = ["[" + ", ".join(["0.5"] * 20) + "]", "[" + ", ".join(["0.5"] * 19 + ["0.25"]) + "]"]
    assert [len(row) for row in flat] == [100, 101]
    assert serialize.dump_json(rows[0]) == flat[0]
    assert serialize.dump_json(rows[1]) == oracle_dump_json(rows[1].tolist())
    assert "\n" in serialize.dump_json(rows[1])
    text = serialize.dump_json(rows)
    assert text == oracle_dump_json(rows.tolist())
    assert f"  {flat[0]},\n" in text and flat[1] not in text
    assert serialize.dump_json(rows.tolist()) == text
    many = np.tile(rows, (3, 2, 1))  # three axes, flat and one-item-per-line rows together
    text = serialize.dump_json(many)
    assert text == oracle_dump_json(many.tolist())
    assert text.count(flat[0]) == 6 and flat[1] not in text


def test_special_values_in_csv_writers(rng):
    table = _special_values(rng, 729)
    assert serialize.table_to_csv(table) == oracle_table_to_csv(table)
    matrix = _special_values(rng, (81, 81))
    assert serialize.matrix_to_csv(matrix) == oracle_matrix_to_csv(matrix)
    grad = _special_values(rng, (6, 729, 2))
    assert serialize.gradient_to_csv(grad) == oracle_gradient_to_csv(grad)


def _message(write, values) -> str:
    with pytest.raises(ValueError) as info:
        write(values)
    return str(info.value)


def test_non_finite_raises_for_the_first_entry_in_writing_order():
    values = np.zeros((2, 3, 2))
    values[0, 1, 1] = np.inf  # first in C order
    values[0, 2, 0] = np.nan  # first in the gradient CSV's (k, j, path) order
    assert _message(serialize.dump_json, values) == "cannot serialize non-finite number inf"
    assert _message(serialize.dump_json, values) == _message(oracle_dump_json, values.tolist())
    assert _message(serialize.gradient_to_csv, values) == "cannot serialize non-finite number nan"
    assert _message(serialize.gradient_to_csv, values) == _message(oracle_gradient_to_csv, values)
    flat = values.reshape(3, 4)
    assert _message(serialize.matrix_to_csv, flat) == _message(oracle_matrix_to_csv, flat)
    assert _message(serialize.table_to_csv, flat[1]) == "cannot serialize non-finite number nan"
    assert _message(serialize.dump_json, {"mean": -np.inf, "values": flat}) == (
        "cannot serialize non-finite number -inf"
    )


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _run(tmp_path, argv) -> str:
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("d, N", [(1, 8), (2, 5), (3, 3)])
def test_cli_forms_match_reference_writers(rng, tmp_path, d, N):
    walk = random_walk(rng, d, N)
    w = _write(tmp_path, "walk", serialize.walk_to_json(walk))
    values = rng.uniform(-1.0, 1.0, size=walk.space.num_paths)
    values[:4] = [1e-300, -1e-300, 1e300, -1e300]
    table = PathTable(walk.space, values)
    process = random_process(rng, walk)
    tab = _write(tmp_path, "table", values.tolist())
    proc = _write(tmp_path, "process", {"values": process.values.tolist()})

    mean, xi = clark_ocone(walk, table)
    expected = {"mean": mean, "integrand": xi.on_paths().tolist()}
    assert _run(tmp_path, ["clark-ocone", w, "--table", tab]) == oracle_dump_json(expected) + "\n"
    head, xi = clark_ocone_from(walk, table, 1)
    expected = {"head": head.values.tolist(), "integrand": xi.on_paths().tolist()}
    text = _run(tmp_path, ["clark-ocone", w, "--table", tab, "--from", "1"])
    assert text == oracle_dump_json(expected) + "\n"

    grad = gradient(walk, table).values
    assert _run(tmp_path, ["gradient", w, "--table", tab]) == oracle_gradient_to_csv(grad)
    text = _run(tmp_path, ["gradient", w, "--table", tab, "--format", "json"])
    assert text == oracle_dump_json(grad.tolist()) + "\n"

    coeffs = decompose(walk, table)
    text = _run(tmp_path, ["chaos", "decompose", w, "--table", tab])
    assert text == oracle_dump_json(oracle_chaos_to_json(coeffs)) + "\n"
    coeffs_file = tmp_path / "coeffs.json"
    coeffs_file.write_text(text, encoding="utf-8")
    coef = oracle_chaos_coef(json.loads(text))
    assert np.array_equal(
        serialize.chaos_from_json(json.loads(text)).coef.view(np.uint64), coef.view(np.uint64)
    )
    rebuilt = reconstruct(walk, ChaosCoefficients(d, N, coef)).values
    text = _run(tmp_path, ["chaos", "reconstruct", w, "--coeffs", str(coeffs_file)])
    assert text == oracle_dump_json(rebuilt.tolist()) + "\n"

    text = _run(tmp_path, ["divergence", w, "--process", proc])
    assert text == oracle_dump_json(divergence(walk, process).values.tolist()) + "\n"
    text = _run(tmp_path, ["ou", w, "--table", tab, "--t", "0.5"])
    assert text == oracle_dump_json(ou_apply_chaos(walk, table, 0.5).values.tolist()) + "\n"
    text = _run(tmp_path, ["ou-kernel", w, "--t", "0.5"])
    assert text == oracle_matrix_to_csv(ou_kernel_matrix(walk, 0.5))


@pytest.mark.parametrize("method", ["replicate", "clark-ocone"])
def test_cli_market_hedge_matches_reference_writer(tmp_path, method):
    basket = _basket_market(np.random.default_rng(7), 6)
    spec = {
        "d": 2,
        "N": 5,
        "S0": basket.s_init.tolist(),
        "r": 0.01,
        "scenarios": [
            [{"lambda": np.diag(scenario).tolist()} for scenario in step]
            for step in basket.scenarios
        ],
    }
    market = serialize.market_from_json(spec)
    payoff = "max(0.5*(S(1)+S(2))-100,0)"
    claim = eval_payoff(parse_payoff(payoff, market.d, market.N), market)
    hedge = hedge_replicate if method == "replicate" else hedge_clark_ocone
    strategy = hedge(market, find_emm(market), claim)
    market_file = _write(tmp_path, "market", spec)
    text = _run(tmp_path, ["market", "hedge", market_file, "--payoff", payoff, "--method", method])
    assert text == oracle_strategy_to_csv(market, strategy)


@pytest.mark.parametrize("d, N", [(1, 8), (2, 5), (3, 3)])
def test_kernel_entries_match_component_loop(rng, d, N):
    coef = _special_values(rng, (d + 1,) * (N + 1))
    coef[rng.random(coef.shape) < 0.3] = 0.0  # zero components are left out, -0.0 too
    coeffs = ChaosCoefficients(d, N, coef)
    assert serialize.dump_json(serialize.chaos_to_json(coeffs)) == oracle_dump_json(
        oracle_chaos_to_json(coeffs)
    )
    for r in range(N + 2):
        expected = {"order": r, "entries": oracle_kernel_entries(coeffs, r)}
        if r == 0:
            expected["entries"] = [{"times": [], "coords": [], "value": coeffs.mean}]
        text = serialize.dump_json(serialize.kernel_to_json(coeffs.kernel(r)))
        assert text == oracle_dump_json(expected)


def _raw_entries(rng, d: int, N: int, order: int, count: int) -> list:
    """Entries on shuffled distinct times, with repeats, as a JSON file gives them."""
    raw = []
    for _ in range(count):
        times = rng.permutation(N + 1)[:order].tolist()
        coords = rng.integers(1, d + 1, size=order).tolist()
        raw.append((tuple(times), tuple(coords), float(rng.uniform(-1.0, 1.0))))
    return raw


@pytest.mark.parametrize("d, N, order", [(1, 8, 3), (2, 5, 2), (3, 3, 4)])
def test_symmetrize_matches_entry_loop(rng, d, N, order):
    raw = _raw_entries(rng, d, N, order, 300)
    expected = oracle_symmetrize(raw, order, d)
    kernel = symmetrize(raw, order, d)
    assert sorted(kernel.entries) == sorted(expected)
    for times, tensor in expected.items():
        assert np.array_equal(kernel.entries[times].view(np.uint64), tensor.view(np.uint64))


@pytest.mark.parametrize(
    "bad",
    [
        ((0, 1, 2), (1, 1), 1.0),
        ((1, 1), (1, 2), 1.0),
        ((0, 3), (1, 3), 1.0),
        ((0, 3), (0, 1), 1.0),
        ((0, "x"), (1, 1), 1.0),
        ((0, 1), (1, None), 1.0),
        ((0, 1), (1, 1), "abc"),
        ((0, 1), (1, 1)),
        (5, (1, 1), 1.0),
    ],
)
def test_symmetrize_reports_the_first_bad_entry(rng, bad):
    raw = _raw_entries(rng, 2, 4, 2, 5) + [bad] + [((0, 0), (3, 3), 1.0)]
    with pytest.raises((ValueError, TypeError)) as expected:
        oracle_symmetrize(raw, 2, 2)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        symmetrize(raw, 2, 2)
