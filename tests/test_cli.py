"""Golden-file CLI tests: byte-identical output, exit codes, library parity."""
import copy
import functools
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obtusewalk
from obtusewalk import cli, crr_market, find_emm, price_claim, serialize
from obtusewalk import market as market_mod
from obtusewalk.cli import main
from obtusewalk.payoff import eval_payoff, parse_payoff
from obtusewalk.serialize import market_from_json
from exact_oracle import exact_emm_weights

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


#: construct_obtuse([[0.5, 0.5], [0.3, 0.7]]) with step 1's v[0][0] scaled by 1 + 2e-6
NEAR_OBTUSE = f"{FIX}/near_obtuse.json"

#: `ou-kernel` of bernoulli.json at t = 0.5
KERNEL_MATRIX_T05 = (
    "2.5809407605967092,0.63212055882855767,0.63212055882855767,0.15481812174617549\n"
    "0.63212055882855767,2.5809407605967092,0.15481812174617549,0.63212055882855767\n"
    "0.63212055882855767,0.15481812174617549,2.5809407605967092,0.63212055882855767\n"
    "0.15481812174617549,0.63212055882855767,0.63212055882855767,2.5809407605967092\n"
)


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

    def test_printed_q_is_the_pricing_measure(self, capsys, monkeypatch, tmp_path):
        """`market emm` prints the step probabilities of the walk that prices the claim."""
        spec = {
            "d": 1, "N": 2, "S0": [100.0], "r": 0.02,
            "scenarios": [[{"lambda": [0.12]}, {"lambda": [-0.05]}]] * 3,
        }
        path = tmp_path / "crr3.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(["market", "emm", str(path)], capsys)
        assert code == 0
        printed = json.loads(out)["q"]
        seen = []
        price = market_mod.price_claim
        monkeypatch.setattr(
            market_mod, "price_claim", lambda m, wq, c: seen.append(wq) or price(m, wq, c)
        )
        code, _ = run_cli(["market", "price", str(path), "--payoff", "max(S(1)-100,0)"], capsys)
        assert code == 0 and len(seen) == 1
        assert printed == [step.p.tolist() for step in seen[0].steps]
        # one solve per diagonal step gives weights that sum to one, so renormalizing
        # keeps them; solving at the node's prices gave [0.41176470588235287, ...]
        assert printed[0] == [0.411764705882353, 0.5882352941176471]
        exact = exact_emm_weights([[0.12], [-0.05]], 0.02)
        node_prices = [0.41176470588235287, 0.5882352941176471]
        for new, old, e in zip(printed[0], node_prices, exact):
            assert abs(Fraction(new) - e) <= abs(Fraction(old) - e)
        assert abs(Fraction(printed[0][0]) - exact[0]) < abs(Fraction(node_prices[0]) - exact[0])
        walk = find_emm(crr_market(100, 0.12, -0.05, 0.02, 3))
        assert printed == [step.p.tolist() for step in walk.steps]

    def test_exact_hedge_of_a_large_claim_passes(self, capsys):
        """The verify bound grows with the claim: rounding at 1e14 is not a failure."""
        argv = ["market", "verify", f"{FIX}/crr25.json", "--payoff", "1e12*S(1)",
                "--method", "clark-ocone"]
        code, out = run_cli(argv, capsys)
        report = json.loads(out)
        assert (code, report["passed"]) == (0, True)
        assert 0.0 < report["discounted_increment"] <= 1e-8 * 1.25e14

    def test_non_diagonal_first_and_third_steps(self, capsys):
        """Step 2 of nondiag4.json is non-diagonal, so it solves one system per
        distinct price row of F_1; its weights agree across them within 1e-9."""
        code, out = run_cli(["market", "emm", f"{FIX}/nondiag4.json"], capsys)
        assert code == 0 and len(json.loads(out)["q"]) == 4
        argv = ["market", "verify", f"{FIX}/nondiag4.json", "--payoff",
                "max(0.5*(S(1)+S(2))-75,0)", "--method", "replicate"]
        code, out = run_cli(argv, capsys)
        assert (code, json.loads(out)["passed"]) == (0, True)

    def test_deviation_log_bound_value(self, capsys):
        _, out = run_cli(COMMANDS["deviation"], capsys)
        assert json.loads(out)["bound_log"] == pytest.approx(3.0 ** -0.25, abs=1e-15)

    @pytest.mark.parametrize("method", ["chaos", "kernel"])
    def test_ou_at_infinite_time_prints_the_mean(self, capsys, method):
        argv = ["ou", f"{FIX}/bernoulli.json", "--table", f"{FIX}/indicator_table.json"]
        code, out = run_cli(argv + ["--t", "inf", "--method", method], capsys)
        assert code == 0
        assert json.loads(out) == [0.25] * 4

    def test_deviation_at_an_overflowing_threshold(self, capsys):
        code, out = run_cli(COMMANDS["deviation"][:-1] + ["1e308"], capsys)
        assert code == 0
        assert json.loads(out)["bound_bennett"] == 0.0
        assert main(COMMANDS["deviation"][:-1] + ["inf"]) == 1
        assert capsys.readouterr().err == (
            "error: deviation threshold must be finite and > 0, got inf\n"
        )

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_out_flag_writes_file(self, capsys, tmp_path, name):
        target = tmp_path / "out.txt"
        code, out = run_cli(COMMANDS[name] + ["--out", str(target)], capsys)
        assert (code, out) == (0, "")
        with open(os.path.join(GOLD, f"{name}.txt"), "r", encoding="utf-8") as handle:
            assert target.read_text(encoding="utf-8") == handle.read()

    def test_failed_report_is_written_and_exits_one(self, capsys, tmp_path):
        walk, target = tmp_path / "walk.json", tmp_path / "report.json"
        walk.write_text(_NOT_OBTUSE)
        code, out = run_cli(["walk", "validate", str(walk), "--out", str(target)], capsys)
        assert (code, out) == (1, "")
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert report["errors"][0] == "step 0: non-positive probability"


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
        code, out = run_cli(["ou-kernel", f"{FIX}/bernoulli.json", "--t", "0.5"], capsys)
        assert code == 0
        assert out == KERNEL_MATRIX_T05
        rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")]
        matrix = [[round(x, 12) for x in row] for row in rows]
        assert len(matrix) == 4 and len(matrix[0]) == 4
        # probability-weighted rows sum to one
        for row in rows:
            assert sum(row) / 4.0 == pytest.approx(1.0, abs=1e-10)

    def test_ou_kernel_takes_only_its_flags(self, capsys, tmp_path):
        out = tmp_path / "kernel.csv"
        code, _ = run_cli(
            ["ou-kernel", f"{FIX}/bernoulli.json", "--t", "0.5", "--out", str(out), "--cap", "16"],
            capsys,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == KERNEL_MATRIX_T05
        for flags in (["--table", f"{FIX}/y0_table.json"], ["--method", "kernel"],
                      ["--format", "csv"], ["--tol", "1e-3"]):
            with pytest.raises(SystemExit) as info:
                main(["ou-kernel", f"{FIX}/bernoulli.json", "--t", "0.5"] + flags)
            assert info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_ou_requires_a_table(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ou", f"{FIX}/bernoulli.json", "--t", "0.5"])
        assert info.value.code == 2
        assert "the following arguments are required: --table" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_tol_only_where_it_is_read(self, capsys, name):
        """No form reads --tol: a walk is judged at walk.IDENTITY_TOL alone."""
        argv = COMMANDS[name] + ["--tol", "1e-3"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    def test_verify_takes_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(COMMANDS["market-verify"] + ["--tol-verify", "1e-3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tol-verify 1e-3" in capsys.readouterr().err

    def test_validate_takes_no_tolerance(self, capsys):
        """No bound set on the command line passes the walk that the operator forms refuse."""
        with pytest.raises(SystemExit) as info:
            main(["walk", "validate", NEAR_OBTUSE, "--tol", "1e-3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["price", "hedge", "verify"])
    def test_one_claim_source(self, capsys, monkeypatch, action):
        """--payoff and --payoff-table exclude each other, and one is required."""
        monkeypatch.setattr(cli, "_load_json", lambda path: pytest.fail(f"read {path}"))
        market = ["market", action, f"{FIX}/crr25.json"]
        for flags, message in (
            (["--payoff", "S(1)", "--payoff-table", "missing.json"],
             "argument --payoff-table: not allowed with argument --payoff"),
            ([], "one of the arguments --payoff --payoff-table is required"),
        ):
            with pytest.raises(SystemExit) as info:
                main(market + flags)
            assert info.value.code == 2
            assert message in capsys.readouterr().err

    def test_payoff_table_is_the_claim(self, capsys, tmp_path):
        table = tmp_path / "claim.json"
        table.write_text("[25.0, 0.0]")
        code, out = run_cli(
            ["market", "price", f"{FIX}/crr25.json", "--payoff-table", str(table)], capsys
        )
        assert code == 0
        assert out == run_cli(COMMANDS["market-price"], capsys)[1]

    def test_help_lists_only_the_flags_read(self, capsys):
        forms = [argv[: 2 if argv[0] in ("walk", "chaos", "market") else 1]
                 for argv in COMMANDS.values()] + [["ou-kernel"]]
        for form in forms:
            with pytest.raises(SystemExit):
                main(form + ["--help"])
            text = capsys.readouterr().out
            assert "--tol" not in text, form
            assert "--kernel-matrix" not in text

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_format_only_where_it_changes_the_output(self, capsys, name):
        argv = COMMANDS[name] + ["--format", "csv"]
        if name in ("chaos-reconstruct", "gradient", "divergence", "ou"):
            assert run_cli(argv, capsys)[0] == 0
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_gradient_json_format(self, capsys):
        code, out = run_cli(COMMANDS["gradient"] + ["--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data[0][0] == [0.5] and data[1][0] == [0.5]


class TestClarkOconeFrom:
    def test_output_equals_the_library_call(self, capsys, rng, tmp_path):
        """Every start time, --from N included, prints what the library writer prints."""
        probs = rng.uniform(0.2, 1.0, size=(4, 3))
        walk_file = tmp_path / "walk.json"
        steps = [{"p": (p / p.sum()).tolist()} for p in probs]
        walk_file.write_text(json.dumps({"d": 2, "N": 3, "steps": steps}))
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(rng.uniform(-1.0, 1.0, size=3**4).tolist()))
        for walk_path, table_path in (
            (f"{FIX}/bernoulli.json", f"{FIX}/indicator_table.json"),
            (str(walk_file), str(table_file)),
        ):
            with open(walk_path, "r", encoding="utf-8") as handle:
                walk = serialize.walk_from_json(json.load(handle))
            with open(table_path, "r", encoding="utf-8") as handle:
                table = serialize.table_from_json(json.load(handle), walk.space)
            for start in range(-1, walk.N + 1):
                argv = ["clark-ocone", walk_path, "--table", table_path, "--from", str(start)]
                code, out = run_cli(argv, capsys)
                assert code == 0
                head, xi = obtusewalk.clark_ocone_from(walk, table, start)
                payload = {
                    "head": head.values.tolist(),
                    "integrand": xi.on_paths().tolist(),
                }
                assert out == serialize.dump_json(payload) + "\n"
                if start == walk.N:
                    assert not np.any(np.array(json.loads(out)["integrand"]))

    def test_time_past_the_horizon_is_one_error_line(self, capsys):
        code = main(COMMANDS["clark-ocone"] + ["--from", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: conditioning time 3 outside [-1, 1]\n"


class TestExitCodes:
    def test_bad_cap_is_one(self, capsys, monkeypatch):
        """Every form exits 1 with the one-line message and reads no file."""
        monkeypatch.setattr(cli, "_load_json", lambda path: pytest.fail(f"read {path}"))
        for name in COMMANDS:
            code = main(COMMANDS[name] + ["--cap", "0"])
            captured = capsys.readouterr()
            assert (name, code, captured.out, captured.err) == (
                name, 1, "", "error: enumeration cap must be >= 1, got 0\n"
            )

    def test_validation_failure_is_one(self, capsys, tmp_path):
        """Also for the walk that the operator forms refuse: `walk validate` reports on it."""
        bad = tmp_path / "bad.json"
        for content in ('{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1.0], [1.0]]}]}',
                        _NOT_OBTUSE):
            bad.write_text(content)
            code, out = run_cli(["walk", "validate", str(bad)], capsys)
            assert code == 1
            assert '"passed": false' in out

    def test_near_obtuse_walk_has_one_verdict(self, capsys):
        """A covariance residual of 2.8e-6 fails `walk validate` and every form that reads a walk."""
        code, out = run_cli(["walk", "validate", NEAR_OBTUSE], capsys)
        report = json.loads(out)
        assert (code, report["passed"], report["worst_moment"]) == (1, False, [1, 1, 1])
        line = (f"error: {NEAR_OBTUSE}: step 1: covariance residual 2.8e-06"
                " at coordinates (1, 1) exceeds 1e-10\n")
        walks = (f"{FIX}/bernoulli.json", f"{FIX}/construct_d2.json")
        forms = [[NEAR_OBTUSE if arg in walks else arg for arg in argv]
                 for name, argv in COMMANDS.items()
                 if name != "walk-validate" and not name.startswith("market-")]
        for argv in forms + [["ou-kernel", NEAR_OBTUSE, "--t", "0.5"]]:
            code = main(argv)
            captured = capsys.readouterr()
            assert (argv[0], code, captured.out, captured.err) == (argv[0], 1, "", line)

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 1.03 GiB for an array"),
         "Unable to allocate 1.03 GiB for an array"),
        (MemoryError(), "out of memory"),
        (ValueError(), ""),  # only a MemoryError reads "out of memory" when it says nothing
    ])
    def test_memory_error_is_one_line(self, capsys, monkeypatch, exc, line):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli.malliavin, "clark_ocone", exhausted)
        code = main(COMMANDS["clark-ocone"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {line}\n")

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

    def test_market_size_checked_against_cap(self, capsys, tmp_path):
        """The d^3 scenario array is refused before it is sized, though the 11 paths fit."""
        big = tmp_path / "market.json"
        big.write_text(
            json.dumps({"d": 10, "N": 0, "S0": [100.0] * 10, "scenarios": [[{"M": 0}] * 11]})
        )
        code = main(["market", "emm", str(big), "--cap", "500"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: {big}: market scenarios would need 1100 entries, above the cap of 500\n"
        )

    def test_emm_paths_checked_against_cap(self, capsys, tmp_path):
        """`market emm` builds the risk-neutral walk, so its paths must fit the cap
        as they must for a price."""
        spec = tmp_path / "market.json"
        spec.write_text(
            json.dumps({"d": 1, "N": 11, "S0": [100.0], "r": 0.01,
                        "scenarios": [[{"lambda": [0.1]}, {"lambda": [-0.08]}]] * 12})
        )
        for argv in (["market", "emm", str(spec)],
                     ["market", "price", str(spec), "--payoff", "S(1)"]):
            code = main(argv + ["--cap", "100"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err.endswith("above the cap of 100\n")

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
        assert captured.err == f"error: {bad}: {message}\n"


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
                "table is nan at path 1 = (0, 1)",
            ),
            (
                ["gradient", f"{FIX}/bernoulli.json", "--table", "{file}"],
                "[0.5, 1.0, 2.0, -Infinity]",
                "table is -inf at path 3 = (1, 1)",
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
        assert captured.err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (
                ["walk", "validate", "{file}"],
                '{"d": "x", "N": 0, "steps": [{"p": [0.5, 0.5]}]}',
                "d must be an integer, got 'x'",
            ),
            (
                ["market", "emm", "{file}"],
                '{"d": 1, "N": 0, "S0": [100.0], "scenarios": [[{"M": "x"}, {"lambda": [-0.1]}]]}',
                "could not convert string to float: 'x'",
            ),
        ],
    )
    def test_bad_value_names_the_file(self, capsys, tmp_path, argv, content, message):
        bad = tmp_path / "input.json"
        bad.write_text(content)
        code = main([arg.replace("{file}", str(bad)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {message}\n"


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


#: one-asset markets from S0 = 1e300 whose prices overflow: at step 0 itself,
#: or only after a step 0 that is singular on its own
_OVERFLOWING = {
    "overflow at step 0": [[{"lambda": [1e20]}, {"lambda": [-0.5]}]] * 10,
    "overflow after a singular step 0": [[{"lambda": [0.5]}, {"lambda": [0.5]}]]
    + [[{"lambda": [1e20]}, {"lambda": [-0.5]}]] * 9,
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
@pytest.mark.parametrize("command", [["emm"], ["price", "--payoff", "S(1)"]])
def test_overflowing_market_is_one_error_line(tmp_path, name, command):
    """No overflow warning joins the error line, outside pytest's warning capture too."""
    path = tmp_path / "market.json"
    path.write_text(json.dumps(
        {"d": 1, "N": 9, "S0": [1e300], "r": 0.0, "scenarios": _OVERFLOWING[name]}
    ))
    code, out, err = _fresh_process(["market", command[0], str(path), *command[1:]], {})
    assert (code, out) == (1, "")
    assert err == "error: incomplete market: scenario system at step 0 is singular\n"


@pytest.mark.parametrize("payoff,message", [
    ("S(1)*1e308*1e308-S(1)*1e308*1e308", "error: payoff is nan at path 0 = (0,)\n"),
    ("(" * 1200 + "S(1)" + ")" * 1200,
     "error: 1:102: expression nested more than 100 levels deep, found '('\n"),
    ("S(1e999)", "error: 1:3: asset index must be an integer, got 1e999\n"),
    ("S(1,1e999)", "error: 1:5: time index must be an integer, got 1e999\n"),
    ("B(1e999)", "error: 1:3: time index must be an integer, got 1e999\n"),
], ids=["overflow", "deep nesting", "asset index 1e999", "time index 1e999", "bond time 1e999"])
def test_bad_payoff_is_one_error_line(payoff, message):
    """No numpy warning or traceback joins the error line, outside pytest's capture too."""
    argv = ["market", "price", f"{FIX}/crr25.json", f"--payoff={payoff}"]
    assert _fresh_process(argv, {}) == (1, "", message)


def test_long_payoff_sum_is_priced(capsys):
    argv = ["market", "price", f"{FIX}/crr25.json", "--payoff", "+".join(["S(1)"] * 3000)]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out) == {"price": 300000}


def test_output_is_independent_of_the_blas_thread_count(rng, tmp_path):
    """The per-axis and per-atom contractions give the same bytes on one and two BLAS threads."""
    probs = rng.uniform(0.2, 1.0, size=(7, 4))
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps({"d": 3, "N": 6, "steps": [{"p": (p / p.sum()).tolist()} for p in probs]}))
    table = tmp_path / "table.json"
    table.write_text(json.dumps(rng.uniform(-1.0, 1.0, size=4**7).tolist()))
    crr = tmp_path / "crr12.json"
    crr.write_text(json.dumps({
        "d": 1, "N": 11, "S0": [100.0], "r": 0.01,
        "scenarios": [[{"lambda": [0.09]}, {"lambda": [-0.07]}]] * 12,
    }))
    sq2 = 2.0 ** 0.5
    basket = tmp_path / "basket7.json"
    basket.write_text(json.dumps({
        "d": 2, "N": 6, "S0": [100.0, 95.0], "r": 0.01,
        "scenarios": [[
            {"lambda": [0.01 + 0.05 * sq2, 0.01 + 0.04]},
            {"lambda": [0.01 - 0.05 * sq2, 0.01 + 0.04]},
            {"lambda": [0.01, 0.01 - 0.04]},
        ]] * 7,
    }))
    hedges = [
        [command, str(market), "--payoff", payoff, "--method", "clark-ocone"]
        for command in ("hedge", "verify")
        for market, payoff in ((crr, "max(S(1)-100,0)"), (basket, "max(0.5*(S(1)+S(2))-97,0)"))
    ]
    process = tmp_path / "process.json"
    process.write_text(json.dumps({"values": rng.uniform(-1.0, 1.0, size=(7, 4**7, 3)).tolist()}))
    for argv in (
        ["chaos", "decompose", str(walk), "--table", str(table)],
        ["ou", str(walk), "--table", str(table), "--t", "0.3", "--method", "kernel"],
        ["gradient", str(walk), "--table", str(table)],
        ["clark-ocone", str(walk), "--table", str(table)],
        ["divergence", str(walk), "--process", str(process)],
        ["deviation", str(walk), "--payoff-table", str(table), "--x", "0.5"],
        *(["market", *args] for args in hedges),
    ):
        runs = [_fresh_process(argv, {"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2")]
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[0] == runs[1]


#: two Bernoulli steps as in bernoulli.json
_STEPS = '"steps": [{"p": [0.5, 0.5], "v": [[1.0], [-1.0]]}, {"p": [0.5, 0.5], "v": [[1.0], [-1.0]]}]'
_ENTRY = '{"d": 1, "N": 1, "mean": 0.5, "kernels": {"1": {"order": %s, "entries": [%s]}}}'
_CRR = '"S0": [100.0], "r": 0.0, "scenarios": [[{"lambda": [0.25]}, {"lambda": [-0.25]}]]'
_MARKET = '{"d": 1, "N": %s, "S0": %s, "r": %s, "scenarios": %s}'
_SCENARIOS = '[[{"lambda": [0.25]}, {"lambda": [-0.25]}]]'
_EMM = ["market", "emm", "{file}"]
#: bernoulli.json with a zero probability at step 0: well formed, but not obtuse
_NOT_OBTUSE = (
    '{"d": 1, "N": 1, "steps": [{"p": [0, 0.5], "v": [[1], [-1]]}, {"p": [0.5, 0.5], "v": [[1.0], [-1.0]]}]}'
)
_REFUSED = "{file}: step 0: non-positive probability"
_TABLE = ["--table", f"{FIX}/indicator_table.json"]

#: malformed input that exits 1 with one stderr line, and no output:
#: name -> (argv, content of "{file}" or None, the line after "error: ")
MALFORMED = {
    "walk-d-1.5": (["walk", "validate", "{file}"], '{"d": 1.5, "N": 1, %s}' % _STEPS,
                   "{file}: d must be an integer, got 1.5"),
    "walk-N-1.9": (["walk", "validate", "{file}"], '{"d": 1, "N": 1.9, %s}' % _STEPS,
                   "{file}: N must be an integer, got 1.9"),
    "walk-d-true": (["walk", "validate", "{file}"], '{"d": true, "N": 1, %s}' % _STEPS,
                    "{file}: d must be an integer, got True"),
    "walk-N-string": (["walk", "validate", "{file}"], '{"d": 1, "N": "1", %s}' % _STEPS,
                      "{file}: N must be an integer, got '1'"),
    "chaos-order-1.2": (
        ["chaos", "reconstruct", f"{FIX}/bernoulli.json", "--coeffs", "{file}"],
        _ENTRY % ("1.2", '{"times": [0], "coords": [1], "value": 1.0}'),
        "{file}: order must be an integer, got 1.2",
    ),
    "chaos-times-0.9": (
        ["chaos", "reconstruct", f"{FIX}/bernoulli.json", "--coeffs", "{file}"],
        _ENTRY % ("1", '{"times": [0.9], "coords": [1], "value": 1.0}'),
        "{file}: times entry must be an integer, got 0.9",
    ),
    "chaos-coords-1.6": (
        ["chaos", "reconstruct", f"{FIX}/bernoulli.json", "--coeffs", "{file}"],
        _ENTRY % ("1", '{"times": [0], "coords": [1.6], "value": 1.0}'),
        "{file}: coords entry must be an integer, got 1.6",
    ),
    "market-d-1.9": (["market", "emm", "{file}"], '{"d": 1.9, "N": 0, %s}' % _CRR,
                     "{file}: d must be an integer, got 1.9"),
    "walk-residual-inf": (
        ["walk", "validate", "{file}"],
        '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1e300], [-1e300]]}]}',
        "{file}: step 0: covariance residual inf at coordinates (1, 1) exceeds 1e-10",
    ),
    "payoff-index-1e300": (["market", "price", f"{FIX}/crr25.json", "--payoff", "S(1e300)"], None,
                           "1:1: asset index 1e300 outside [1, 1]"),
    "payoff-time-1e20": (["market", "price", f"{FIX}/crr25.json", "--payoff", "S(1,1e20)"], None,
                         "1:1: time index 1e20 outside [0, 0]"),
    "completion-over-cap": (
        ["walk", "construct", "{file}", "--cap", "8"],
        '{"d": 2, "N": 0, "steps": [{"p": [0.2, 0.3, 0.5]}]}',
        "{file}: step 0: completing 3 outcomes would need 9 entries, above the cap of 8",
    ),
    "walk-one-outcome": (
        ["walk", "construct", "{file}"], '{"d": 1, "N": 0, "steps": [{"p": [1.0]}]}',
        "{file}: step 0: need at least two outcome probabilities",
    ),
    "walk-p-matrix": (
        ["walk", "validate", "{file}"],
        '{"d": 1, "N": 0, "steps": [{"p": [[0.5, 0.5]], "v": [[1.0], [-1.0]]}]}',
        "{file}: step law needs a probability vector and a vector matrix",
    ),
    "walk-v-shape": (
        ["walk", "validate", "{file}"],
        '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1.0, 0.0], [-1.0, 0.0]]}]}',
        "{file}: outcome matrix has shape (2, 2), expected (2, 1)",
    ),
    "market-S0-shape": (_EMM, _MARKET % (0, "[100.0, 100.0]", 0.0, _SCENARIOS),
                        "{file}: initial prices have shape (2,), expected (1,)"),
    "market-S0-negative": (_EMM, _MARKET % (0, "[-100.0]", 0.0, _SCENARIOS),
                           "{file}: initial prices must be strictly positive"),
    "market-r-shape": (_EMM, _MARKET % (0, "[100.0]", "[0.0, 0.0]", _SCENARIOS),
                       "{file}: rates have shape (2,), expected (1,)"),
    "market-r-minus-1": (_EMM, _MARKET % (0, "[100.0]", -1.0, _SCENARIOS),
                         "{file}: every rate must exceed -1"),
    "market-step-count": (_EMM, _MARKET % (1, "[100.0]", 0.0, _SCENARIOS),
                          "{file}: market declares N=1 but has 1 scenario steps"),
    "market-scenario-count": (_EMM, _MARKET % (0, "[100.0]", 0.0, '[[{"lambda": [0.25]}]]'),
                              "{file}: step 0: expected 2 scenarios, got 1"),
    "market-lambda-length": (
        _EMM, _MARKET % (0, "[100.0]", 0.0, '[[{"lambda": [0.25, 0.1]}, {"lambda": [-0.25]}]]'),
        "{file}: step 0 scenario 0: lambda needs 1 entries",
    ),
    "market-M-shape": (
        _EMM, _MARKET % (0, "[100.0]", 0.0, '[[{"M": [[0.25, 1.0]]}, {"lambda": [-0.25]}]]'),
        "{file}: step 0 scenario 0: M needs shape (1, 1)",
    ),
    "market-rates-not-uniform": (
        ["market", "hedge", "{file}", "--payoff", "S(1)", "--method", "clark-ocone"],
        _MARKET % (1, "[100.0]", "[0.0, 0.01]", _SCENARIOS[:-1] + ", " + _SCENARIOS[1:]),
        "rates are not uniform",
    ),
    "walk-p-1e308": (
        ["walk", "construct", "{file}"], '{"d": 2, "N": 0, "steps": [{"p": [1e308, 0.25, 1e308]}]}',
        "{file}: step 0: probabilities must not exceed 1",
    ),
    "gradient-not-obtuse": (["gradient", "{file}", *_TABLE], _NOT_OBTUSE, _REFUSED),
    "ou-not-obtuse": (["ou", "{file}", *_TABLE, "--t", "0.5"], _NOT_OBTUSE, _REFUSED),
    "deviation-not-obtuse": (
        ["deviation", "{file}", "--payoff-table", _TABLE[1], "--x", "1"], _NOT_OBTUSE, _REFUSED
    ),
    "chaos-decompose-not-obtuse": (["chaos", "decompose", "{file}", *_TABLE], _NOT_OBTUSE, _REFUSED),
    "clark-ocone-not-obtuse": (["clark-ocone", "{file}", *_TABLE], _NOT_OBTUSE, _REFUSED),
    "walk-centering-fails": (
        ["ou-kernel", "{file}", "--t", "1"],
        '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[1.5], [-0.5]]}]}',
        "{file}: step 0: centering residual 0.5 at coordinate 1 exceeds 1e-10",
    ),
    "walk-covariance-fails": (
        ["ou-kernel", "{file}", "--t", "1"],
        '{"d": 1, "N": 0, "steps": [{"p": [0.5, 0.5], "v": [[2.0], [-1.0]]}]}',
        "{file}: step 0: covariance residual 1.5 at coordinates (1, 1) exceeds 1e-10",
    ),
}


def malformed_argv(name: str, directory: str) -> list[str]:
    """The command line of MALFORMED[name], its input file written to the directory."""
    argv, content, _ = MALFORMED[name]
    path = os.path.join(directory, f"{name}.json")
    if content is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    return [arg.replace("{file}", path) for arg in argv]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(capsys, tmp_path, name):
    argv = malformed_argv(name, str(tmp_path))
    code = main(argv)
    captured = capsys.readouterr()
    message = MALFORMED[name][2].replace("{file}", str(tmp_path / f"{name}.json"))
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("case", ["passed", "failed", "walk-residual-inf", "walk-d-1.5"])
def test_walk_validate_reads_its_file_once(capsys, monkeypatch, tmp_path, case):
    """Passed, failed, refused for an overflowing residual or malformed: one read of the walk."""
    files = {"passed": f"{FIX}/bernoulli.json", "failed": NEAR_OBTUSE}
    if case in files:
        argv = ["walk", "validate", files[case]]
    else:
        argv = malformed_argv(case, str(tmp_path))
    reads = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or load(path))
    code = main(argv)
    capsys.readouterr()
    assert (code, reads) == (0 if case == "passed" else 1, [argv[2]])


@pytest.mark.parametrize("name", ["payoff-index-1e300", "payoff-time-1e20"])
def test_out_of_range_payoff_index_is_quoted_as_written(name):
    code, out, err = _fresh_process(MALFORMED[name][0], {})
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert len(err) < 100


def _counts_as_floats(path: str) -> dict:
    """The JSON object of a walk, chaos or market file with every count and index a float."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    obj["d"], obj["N"] = float(obj["d"]), float(obj["N"])
    for kernel in obj.get("kernels", {}).values():
        kernel["order"] = float(kernel["order"])
        for entry in kernel["entries"]:
            entry["times"] = [float(t) for t in entry["times"]]
            entry["coords"] = [float(k) for k in entry["coords"]]
    return obj


@pytest.mark.parametrize("name", ["walk-validate", "walk-construct", "chaos-reconstruct", "market-emm"])
def test_integral_floats_print_the_golden_bytes(capsys, tmp_path, name):
    """Counts and indices written as 1.0 read as the integers they equal."""
    argv = []
    for arg in COMMANDS[name]:
        if arg.endswith(".json"):
            path = tmp_path / os.path.basename(arg)
            path.write_text(json.dumps(_counts_as_floats(arg)))
            arg = str(path)
        argv.append(arg)
    with open(os.path.join(GOLD, f"{name}.txt"), encoding="utf-8") as handle:
        assert run_cli(argv, capsys) == (0, handle.read())


def test_completion_that_fits_the_cap_is_unchanged(capsys, tmp_path):
    """A step given without v is completed when its (d+1)^2 entries fit the cap."""
    argv = malformed_argv("completion-over-cap", str(tmp_path))
    fits = run_cli(argv[:-1] + ["9"], capsys)
    assert fits[0] == 0
    assert fits == run_cli(argv[:-2], capsys)


@pytest.mark.parametrize("name", ["walk-p-1e308"] + [n for n in MALFORMED if n.endswith("-not-obtuse")])
def test_refused_walk_is_one_line_in_a_fresh_process(tmp_path, name):
    """No numpy warning joins the line when RuntimeWarning is an error."""
    message = MALFORMED[name][2].replace("{file}", str(tmp_path / f"{name}.json"))
    argv = malformed_argv(name, str(tmp_path))
    done = _fresh_process(argv, {"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert done == (1, "", f"error: {message}\n")


#: values a mutation writes into a fixture field
_MUTANTS = [0, -0.0, 1e308, float("nan"), True, "1", [], 10**30]

#: the forms whose failed report is written like a passed one
_REPORT_FORMS = ("walk-validate", "market-verify")


def _fields(obj, at=()):
    """The location of every field of a JSON value, as its keys and indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _fields(value, at + (key,))


def _mutated(obj, where, action, value):
    """A copy of obj with the field at where replaced by value, deleted or duplicated.

    A list item is duplicated in place; an object field is copied over the
    next field of its object.
    """
    obj = copy.deepcopy(obj)
    *outer, key = where
    parent = functools.reduce(operator.getitem, outer, obj)
    if action == "replace":
        parent[key] = value
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        keys = list(parent)
        parent[keys[(keys.index(key) + 1) % len(keys)]] = parent[key]
    return obj


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as the CI entry-point steps run
@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_is_refused_or_obtuse(capsys, tmp_path, name, data):
    """One field of one fixture replaced, deleted or duplicated: the form exits 0, 1 or 2;
    a refusal is one stderr line and no output, and exit 0 means the walk is obtuse."""
    argv = COMMANDS[name]
    files = [i for i, arg in enumerate(argv) if arg.endswith(".json")]
    i = data.draw(st.sampled_from(files))
    with open(argv[i], encoding="utf-8") as handle:
        original = json.load(handle)
    spec = _mutated(
        original,
        data.draw(st.sampled_from(list(_fields(original)))),
        data.draw(st.sampled_from(["replace", "delete", "duplicate"])),
        data.draw(st.sampled_from(_MUTANTS)),
    )
    path = tmp_path / os.path.basename(argv[i])
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [*argv[:i], str(path), *argv[i + 1:]]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1 and name in _REPORT_FORMS and captured.out:
        assert json.loads(captured.out)["passed"] is False and captured.err == ""
    elif code == 1:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if code == 0 and argv[0] != "market":
        with open(argv[2 if argv[0] in ("walk", "chaos") else 1], encoding="utf-8") as handle:
            assert obtusewalk.validate(serialize.walk_from_json(json.load(handle))).passed
