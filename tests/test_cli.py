"""Golden-file CLI tests: byte-identical output, exit codes, library parity."""
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obtusewalk
from obtusewalk import price_claim, find_emm
from obtusewalk.cli import main
from obtusewalk.payoff import eval_payoff, parse_payoff
from obtusewalk.serialize import market_from_json

HERE = os.path.dirname(__file__)
FIX = os.path.join(HERE, "fixtures")
GOLD = os.path.join(HERE, "golden")

COMMANDS = {
    "walk-validate": ["walk", "validate", f"{FIX}/bernoulli.json"],
    "walk-construct": ["walk", "construct", f"{FIX}/construct_d2.json"],
    "chaos-decompose": [
        "chaos", "decompose", f"{FIX}/bernoulli.json",
        "--table", f"{FIX}/indicator_table.json",
    ],
    "chaos-reconstruct": [
        "chaos", "reconstruct", f"{FIX}/bernoulli.json",
        "--coeffs", f"{FIX}/indicator_coeffs.json",
    ],
    "gradient": [
        "gradient", f"{FIX}/bernoulli.json", "--table", f"{FIX}/indicator_table.json",
    ],
    "clark-ocone": [
        "clark-ocone", f"{FIX}/bernoulli.json",
        "--table", f"{FIX}/indicator_table.json",
    ],
    "divergence": [
        "divergence", f"{FIX}/bernoulli.json", "--process", f"{FIX}/unit_process.json",
    ],
    "ou": [
        "ou", f"{FIX}/bernoulli.json", "--table", f"{FIX}/y0_table.json", "--t", "0.5",
    ],
    "deviation": [
        "deviation", f"{FIX}/bernoulli.json",
        "--payoff-table", f"{FIX}/y0_table.json", "--x", "1",
    ],
    "market-emm": ["market", "emm", f"{FIX}/crr25.json"],
    "market-price": [
        "market", "price", f"{FIX}/crr25.json", "--payoff", "max(S(1)-100,0)",
    ],
    "market-hedge": [
        "market", "hedge", f"{FIX}/crr25.json", "--payoff", "max(S(1)-100,0)",
    ],
    "market-verify": [
        "market", "verify", f"{FIX}/crr10_two_period.json",
        "--payoff", "max(S(1)-100,0)", "--method", "clark-ocone",
    ],
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, capsys):
    code, out = run_cli(COMMANDS[name], capsys)
    assert code == 0
    with open(os.path.join(GOLD, f"{name}.txt"), "r", encoding="utf-8") as handle:
        assert out == handle.read()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reruns_are_byte_identical(name, capsys):
    _, first = run_cli(COMMANDS[name], capsys)
    _, second = run_cli(COMMANDS[name], capsys)
    assert first == second


class TestSemantics:
    def test_hedge_columns(self, capsys):
        _, out = run_cli(COMMANDS["market-hedge"], capsys)
        header, row = out.strip().split("\n")
        assert header == "time,atom,beta,gamma_1,V"
        fields = row.split(",")
        assert fields[0] == "0" and fields[1] == ""
        assert float(fields[2]) == -37.5
        assert float(fields[3]) == 0.5
        assert float(fields[4]) == 12.5

    def test_price_equals_library_call(self, capsys):
        _, out = run_cli(COMMANDS["market-price"], capsys)
        with open(f"{FIX}/crr25.json", "r", encoding="utf-8") as handle:
            market = market_from_json(json.load(handle))
        claim = eval_payoff(parse_payoff("max(S(1)-100,0)", 1, 0), market)
        expected = price_claim(market, find_emm(market), claim)
        assert json.loads(out)["price"] == expected

    def test_deviation_log_bound_value(self, capsys):
        _, out = run_cli(COMMANDS["deviation"], capsys)
        assert json.loads(out)["bound_log"] == pytest.approx(3.0 ** -0.25, abs=1e-15)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            COMMANDS["walk-validate"] + ["--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        with open(os.path.join(GOLD, "walk-validate.txt"), "r", encoding="utf-8") as handle:
            assert target.read_text() == handle.read()


class TestFormatsAndFlags:
    def test_decompose_reconstruct_interop(self, capsys, tmp_path):
        coeffs_file = tmp_path / "coeffs.json"
        code, _ = run_cli(
            COMMANDS["chaos-decompose"] + ["--out", str(coeffs_file)], capsys
        )
        assert code == 0
        code, out = run_cli(
            [
                "chaos", "reconstruct", f"{FIX}/bernoulli.json",
                "--coeffs", str(coeffs_file),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == [1, 0, 0, 0]

    def test_table_csv_format(self, capsys):
        code, out = run_cli(COMMANDS["ou"] + ["--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "path,value"
        assert len(lines) == 5

    def test_kernel_matrix_export(self, capsys):
        code, out = run_cli(
            ["ou", f"{FIX}/bernoulli.json", "--t", "0.5", "--kernel-matrix"],
            capsys,
        )
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")]
        matrix = [[round(x, 12) for x in row] for row in rows]
        assert len(matrix) == 4 and len(matrix[0]) == 4
        # probability-weighted rows sum to one
        for row in rows:
            assert sum(row) / 4.0 == pytest.approx(1.0, abs=1e-10)

    def test_gradient_json_format(self, capsys):
        code, out = run_cli(COMMANDS["gradient"] + ["--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data[0][0] == [0.5] and data[1][0] == [0.5]


class TestExitCodes:
    def test_bad_tolerance_is_one(self, capsys):
        code, _ = run_cli(COMMANDS["walk-validate"] + ["--tol", "0"], capsys)
        assert code == 1

    def test_bad_cap_is_one(self, capsys):
        code, _ = run_cli(COMMANDS["walk-validate"] + ["--cap", "0"], capsys)
        assert code == 1

    def test_validation_failure_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1.0], [1.0]]}]}'
        )
        code, out = run_cli(["walk", "validate", str(bad)], capsys)
        assert code == 1
        assert '"passed": false' in out

    def test_arbitrage_is_one(self, capsys, tmp_path):
        bad = tmp_path / "market.json"
        bad.write_text(
            '{"d": 1, "N": 0, "S0": [100.0], "r": 0.0,'
            ' "scenarios": [[{"lambda": [0.1]}, {"lambda": [0.05]}]]}'
        )
        code, _ = run_cli(["market", "emm", str(bad)], capsys)
        assert code == 1

    def test_payoff_syntax_error_is_one(self, capsys):
        code, _ = run_cli(
            ["market", "price", f"{FIX}/crr25.json", "--payoff", "max(S(1)-,0)"],
            capsys,
        )
        assert code == 1

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["market", "nonsense"])
        assert info.value.code == 2

    def test_cap_flag_enforced(self, capsys):
        code, _ = run_cli(
            COMMANDS["walk-validate"] + ["--cap", "2"], capsys
        )
        assert code == 1

    def test_cap_env_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv("OBTUSE_CAP", "2")
        code, _ = run_cli(COMMANDS["walk-validate"], capsys)
        assert code == 1

    def test_malformed_cap_env_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("OBTUSE_CAP", "abc")
        with pytest.raises(SystemExit) as info:
            main(COMMANDS["walk-validate"])
        assert info.value.code == 2
        assert "OBTUSE_CAP" in capsys.readouterr().err

    def test_cap_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OBTUSE_CAP", "abc")
        code, _ = run_cli(COMMANDS["walk-validate"] + ["--cap", "100"], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "p, message",
        [
            ("[0.5, 0.4]", "step 0: probabilities sum to 0.9, not 1"),
            ("[1.5, -0.5]", "step 0: probabilities must be strictly positive"),
        ],
    )
    def test_construct_rejects_non_obtuse_input(self, capsys, tmp_path, p, message):
        bad = tmp_path / "walk.json"
        bad.write_text(f'{{"d": 1, "N": 0, "steps": [{{"p": {p}}}]}}')
        code = main(["walk", "construct", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "argv, content, field",
        [
            (["walk", "validate", "{file}"], '{"d": 1, "N": 1}', "steps"),
            (["walk", "construct", "{file}"], '{"d": 1, "N": 0, "steps": [{}]}', "p"),
            (
                ["market", "emm", "{file}"],
                '{"d": 1, "N": 0, "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.1]}]]}',
                "S0",
            ),
            (["market", "emm", "{file}"], '{"d": 1, "N": 0, "S0": [100.0]}', "scenarios"),
            (
                ["divergence", f"{FIX}/bernoulli.json", "--process", "{file}"],
                "{}",
                "values",
            ),
            (
                ["chaos", "reconstruct", f"{FIX}/bernoulli.json", "--coeffs", "{file}"],
                '{"d": 1, "N": 1}',
                "mean",
            ),
        ],
    )
    def test_missing_field_names_field_and_file(self, capsys, tmp_path, argv, content, field):
        bad = tmp_path / "input.json"
        bad.write_text(content)
        code = main([arg.replace("{file}", str(bad)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}: missing field {field!r}\n"

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (
                ["deviation", f"{FIX}/bernoulli.json", "--payoff-table", "{file}", "--x", "1"],
                "[0.5, NaN, 1.0, 2.0]",
                "table entry at path 1 is not finite: nan",
            ),
            (
                ["gradient", f"{FIX}/bernoulli.json", "--table", "{file}"],
                "[0.5, 1.0, 2.0, -Infinity]",
                "table entry at path 3 is not finite: -inf",
            ),
            (
                ["divergence", f"{FIX}/bernoulli.json", "--process", "{file}"],
                '{"values": [[[1.0], [2.0], [3.0], [4.0]], [[1.0], [Infinity], [3.0], [NaN]]]}',
                "process value at time 1, path 1, coordinate 1 is not finite: inf",
            ),
        ],
    )
    def test_non_finite_input_is_rejected_at_load(self, capsys, tmp_path, argv, content, message):
        bad = tmp_path / "input.json"
        bad.write_text(content)
        code = main([arg.replace("{file}", str(bad)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


#: one command per input loader, with the input file as "{file}"
LOADER_COMMANDS = {
    "walk": ["walk", "validate", "{file}"],
    "market": ["market", "emm", "{file}"],
    "table": ["gradient", f"{FIX}/bernoulli.json", "--table", "{file}"],
    "process": ["divergence", f"{FIX}/bernoulli.json", "--process", "{file}"],
    "chaos": ["chaos", "reconstruct", f"{FIX}/bernoulli.json", "--coeffs", "{file}"],
}


def _run_on_file(loader, content, tmp_path, capsys):
    bad = tmp_path / "input.json"
    bad.write_text(content)
    code = main([arg.replace("{file}", str(bad)) for arg in LOADER_COMMANDS[loader]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, bad


@pytest.mark.parametrize(
    "loader, content",
    [
        ("walk", "[1]"),
        ("walk", '{"d": 1, "N": 1, "steps": 5}'),
        ("market", '{"d": 1, "N": 0, "S0": [100.0], "scenarios": 3}'),
        ("table", '{"a": 1}'),
        ("process", '{"values": {"a": 1}}'),
        ("chaos", "[1, 2, 3, 4]"),
    ],
)
def test_wrong_shape_is_one_error_line(capsys, tmp_path, loader, content):
    code, out, err, bad = _run_on_file(loader, content, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line outside pytest
@pytest.mark.parametrize(
    "loader, content",
    [
        ("walk", '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[NaN], [-1.0]]}]}'),
        ("walk", '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1e308], [-1e308]]}]}'),
        ("walk", '{"d": 1e400, "N": 0, "steps": []}'),
        ("market", '{"d": 1, "N": 0, "S0": [NaN], "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.1]}]]}'),
        ("table", "[1, 2, 3, 1" + "0" * 400 + "]"),
        ("chaos", '{"d": 1, "N": 100000000000, "mean": 0}'),
        ("chaos", '{"d": 1, "N": 1, "mean": 0, "kernels": []}'),
        (
            "chaos",
            '{"d": 2, "N": 1, "mean": 0, "kernels": {"1": {"order": 40, "entries": '
            f'[{{"times": {list(range(40))}, "coords": {[1] * 40}, "value": 1}}]}}}}}}',
        ),
    ],
)
def test_numeric_trouble_is_one_error_line(capsys, tmp_path, loader, content):
    code, out, err, _ = _run_on_file(loader, content, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


#: JSON values whose objects mostly use the loaders' own field names
_JSON_FIELDS = st.sampled_from(
    ["d", "N", "steps", "p", "v", "S0", "r", "scenarios", "lambda", "M",
     "values", "mean", "kernels", "order", "entries", "times", "coords", "value", "1", "2"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_FIELDS | st.text(max_size=2), inner, max_size=5),
    max_leaves=20,
)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line outside pytest
@pytest.mark.parametrize("loader", sorted(LOADER_COMMANDS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_JSON_VALUES)
def test_fuzzed_input_never_ends_in_a_traceback(capsys, tmp_path, loader, value):
    """Any JSON value exits 0, 1 or 2 with at most one stderr line.

    A random value is sometimes a valid input (a table of four numbers) or
    a walk that fails validation, which reports on stdout; a rejected input
    prints nothing but its one error line.
    """
    code, out, err, _ = _run_on_file(loader, json.dumps(value), tmp_path, capsys)
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if code != 0 and not out:
        assert err.startswith("error: ") and err.endswith("\n")


def _in_process(argv, env, capsys, monkeypatch):
    monkeypatch.delenv("OBTUSE_CAP", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv, env):
    src = os.path.dirname(os.path.dirname(obtusewalk.__file__))
    full_env = {k: v for k, v in os.environ.items() if k != "OBTUSE_CAP"}
    full_env.update(env, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "obtusewalk.cli", *argv],
        env=full_env, capture_output=True, text=True, timeout=120, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    """One process running many command lines behaves like one process per line."""
    runs = [
        (COMMANDS["gradient"] + ["--format", "json"], {}),
        (["market", "nonsense"], {}),
        (COMMANDS["gradient"], {}),
        (COMMANDS["walk-validate"], {"OBTUSE_CAP": "2"}),
        (COMMANDS["deviation"], {"OBTUSE_CAP": "abc"}),
        (COMMANDS["market-hedge"], {}),
        (COMMANDS["ou"] + ["--format", "csv"], {}),
        (COMMANDS["walk-validate"], {}),
    ]
    seen = [_in_process(argv, env, capsys, monkeypatch) for argv, env in runs]
    assert [code for code, _, _ in seen] == [0, 2, 0, 1, 2, 0, 0, 0]
    assert seen == [_fresh_process(argv, env) for argv, env in runs]


def test_output_is_independent_of_the_blas_thread_count(rng, tmp_path):
    """The per-axis contractions give the same bytes on one and two BLAS threads."""
    probs = rng.uniform(0.2, 1.0, size=(7, 4))
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps({"d": 3, "N": 6, "steps": [{"p": (p / p.sum()).tolist()} for p in probs]}))
    table = tmp_path / "table.json"
    table.write_text(json.dumps(rng.uniform(-1.0, 1.0, size=4**7).tolist()))
    for argv in (
        ["chaos", "decompose", str(walk), "--table", str(table)],
        ["ou", str(walk), "--table", str(table), "--t", "0.3", "--method", "kernel"],
    ):
        runs = [_fresh_process(argv, {"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2")]
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[0] == runs[1]
