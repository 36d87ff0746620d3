"""Payoff expression parsing, printing round trips, and evaluation."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obtusewalk import crr_market, eval_payoff, parse_payoff, to_source
from obtusewalk.payoff import (
    BinOp,
    BondRef,
    FuncCall,
    Neg,
    Num,
    PayoffEvalError,
    PayoffSyntaxError,
    PriceRef,
)
from market_oracle import oracle_prices


class TestParse:
    def test_canonical_call(self):
        tree = parse_payoff("max(S(1) - 100, 0)", 1, 1)
        assert tree == FuncCall(
            "max", (BinOp("-", PriceRef(1, None), Num(100.0)), Num(0.0))
        )

    def test_scaled_basket(self):
        tree = parse_payoff("0.5*(S(1)+S(2))", 2, 1)
        assert tree == BinOp(
            "*", Num(0.5), BinOp("+", PriceRef(1, None), PriceRef(2, None))
        )

    def test_asset_index_out_of_range(self):
        with pytest.raises(PayoffSyntaxError, match=r"\[1, 2\]"):
            parse_payoff("S(3)", 2, 1)

    def test_time_index_out_of_range(self):
        with pytest.raises(PayoffSyntaxError, match=r"\[0, 1\]"):
            parse_payoff("S(1, 2)", 2, 1)
        with pytest.raises(PayoffSyntaxError):
            parse_payoff("B(5)", 2, 1)

    def test_precedence_and_associativity(self):
        tree = parse_payoff("1 - 2 - 3", 1, 0)
        assert tree == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
        tree = parse_payoff("1 + 2 * 3", 1, 0)
        assert tree == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))

    def test_unary_minus(self):
        assert parse_payoff("-3", 1, 0) == Neg(Num(3.0))
        assert parse_payoff("--3", 1, 0) == Neg(Neg(Num(3.0)))
        assert parse_payoff("-S(1)*2", 1, 0) == BinOp(
            "*", Neg(PriceRef(1, None)), Num(2.0)
        )

    def test_error_carries_position(self):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff("max(S(1) - , 0)", 1, 1)
        assert info.value.line == 1
        assert info.value.col == 12

    def test_unknown_identifier(self):
        with pytest.raises(PayoffSyntaxError, match="unknown identifier"):
            parse_payoff("price(1)", 1, 1)

    def test_trailing_input(self):
        with pytest.raises(PayoffSyntaxError, match="trailing"):
            parse_payoff("1 2", 1, 0)

    def test_arity_checks(self):
        with pytest.raises(PayoffSyntaxError, match="abs"):
            parse_payoff("abs(1, 2)", 1, 0)
        with pytest.raises(PayoffSyntaxError, match="max"):
            parse_payoff("max(1)", 1, 0)

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""), ("abs(", ")")])
    def test_nesting_is_bounded(self, opener, closer):
        deepest = opener * 100 + "S(1)" + closer * 100
        parse_payoff(deepest, 1, 0)
        with pytest.raises(PayoffSyntaxError, match="nested more than 100 levels deep"):
            parse_payoff(opener + deepest + closer, 1, 0)
        with pytest.raises(PayoffSyntaxError, match=r"^1:\d+: expression nested"):
            parse_payoff(opener * 1200 + "S(1)" + closer * 1200, 1, 0)

    def test_fractional_index_rejected(self):
        with pytest.raises(PayoffSyntaxError, match="integer"):
            parse_payoff("S(1.5)", 2, 1)

    _ANY_ATOM = "a number, S(...), B(...), or '('"

    @pytest.mark.parametrize("text, message, line, col, expected", [
        ("1.2.3", "bad number '1.2.3'", 1, 1, None),
        ("S(1) # x", "unexpected character '#'", 1, 6, None),
        ("abs", "unexpected token, found 'end of input'", 1, 4, "'('"),
        ("max(S(1), 0", "unexpected token, found 'end of input'", 1, 12, "')'"),
        ("S(1, 0", "unexpected token, found 'end of input'", 1, 7, "')'"),
        ("1 2", "trailing input, found '2'", 1, 3, "end of input"),
        ("", "unexpected token, found 'end of input'", 1, 1, _ANY_ATOM),
        ("max(S(1) - , 0)", "unexpected token, found ','", 1, 12, _ANY_ATOM),
        ("S(-1)", "unexpected token, found '-'", 1, 3, "an integer asset index"),
        ("3 * price(1)", "unknown identifier 'price'", 1, 5,
         "a number, S(...), B(...), max, min, abs, or '('"),
        ("1 + S(3)", "asset index 3 outside [1, 2]", 1, 5, None),
        ("S(2, 2)", "time index 2 outside [0, 1]", 1, 1, None),
        ("B(5)", "time index 5 outside [0, 1]", 1, 1, None),
        ("S(1.5)", "asset index must be an integer, got 1.5", 1, 3, None),
        ("abs(1, 2)", "abs takes exactly one argument, got 2", 1, 1, None),
        ("min(1)", "min needs at least two arguments", 1, 1, None),
        ("S(1) +\n  #", "unexpected character '#'", 2, 3, None),
        ("S(1) +\n  1 2", "trailing input, found '2'", 2, 5, "end of input"),
        # every lexical error comes before any parse error
        ("1 2 #", "unexpected character '#'", 1, 5, None),
    ])
    def test_each_error_names_its_position(self, text, message, line, col, expected):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff(text, 2, 1)
        suffix = f" (expected {expected})" if expected else ""
        assert str(info.value) == f"{line}:{col}: {message}{suffix}"
        assert (info.value.line, info.value.col, info.value.expected) == (line, col, expected)

    @pytest.mark.parametrize("text, what", [
        ("S(1e999)", "asset index"), ("S(1,1e999)", "time index"), ("B(1e999)", "time index")
    ])
    def test_overflowing_index_is_a_syntax_error(self, text, what):
        with pytest.raises(PayoffSyntaxError, match=rf"^1:\d+: {what} must be an integer, got 1e999$"):
            parse_payoff(text, 2, 1)

    @pytest.mark.parametrize("text, message", [
        ("S(1e300)", "1:1: asset index 1e300 outside [1, 2]"),
        ("S(1,1e20)", "1:1: time index 1e20 outside [0, 1]"),
        ("B(3.0)", "1:1: time index 3.0 outside [0, 1]"),
    ])
    def test_out_of_range_index_is_quoted_as_written(self, text, message):
        with pytest.raises(PayoffSyntaxError) as info:
            parse_payoff(text, 2, 1)
        assert str(info.value) == message


def _expressions(d: int = 2, N: int = 1):
    numbers = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(Num)
    prices = st.builds(
        PriceRef, st.integers(1, d), st.one_of(st.none(), st.integers(0, N))
    )
    bonds = st.builds(BondRef, st.integers(0, N))
    leaves = st.one_of(numbers, prices, bonds)

    def compound(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(
                lambda name, args: FuncCall(name, tuple(args)),
                st.sampled_from(["max", "min"]),
                st.lists(children, min_size=2, max_size=3),
            ),
            st.builds(lambda a: FuncCall("abs", (a,)), children),
        )

    return st.recursive(leaves, compound, max_leaves=25)


class TestRoundTrip:
    @given(_expressions())
    @settings(max_examples=200, deadline=None)
    def test_print_parse_identity(self, tree):
        assert parse_payoff(to_source(tree), 2, 1) == tree

    def test_examples(self):
        for text in [
            "max(S(1) - 100, 0)",
            "-(S(1) + S(2)) / (1 + B(1))",
            "min(abs(S(1,0) - S(2,1)), 3.5, B(0))",
        ]:
            tree = parse_payoff(text, 2, 1)
            assert parse_payoff(to_source(tree), 2, 1) == tree


    def test_long_sum(self):
        tree = parse_payoff("+".join(["S(1)"] * 3000), 1, 2)
        assert parse_payoff(to_source(tree), 1, 2) == tree
        assert hash(parse_payoff(to_source(tree), 1, 2)) == hash(tree)
        assert tree != parse_payoff("+".join(["S(1)"] * 2999) + "-S(1)", 1, 2)
        want = "PriceRef(asset=1, time=None)"
        for _ in range(2999):
            want = f"BinOp(op='+', left={want}, right=PriceRef(asset=1, time=None))"
        assert repr(tree) == want


class TestEval:
    def test_call_payoff(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 1)
        table = eval_payoff(parse_payoff("max(S(1)-100,0)", 1, 0), market)
        assert np.allclose(table.values, [10.0, 0.0])

    def test_bond_reference(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 1)
        table = eval_payoff(parse_payoff("B(0)", 1, 0), market)
        assert np.all(table.values == 1.0)

    def test_intermediate_price(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        table = eval_payoff(parse_payoff("S(1,0)", 1, 1), market)
        assert np.allclose(table.values, [110.0, 110.0, 90.0, 90.0])

    def test_division_by_zero_names_path(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        with pytest.raises(PayoffEvalError, match=r"path 0 = \(0, 0\)"):
            eval_payoff(parse_payoff("1/(B(0)-1)", 1, 1), market)

    def test_overflow_names_the_first_path(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PayoffEvalError, match=r"^payoff is nan at path 0 = \(0, 0\)$"):
                eval_payoff(parse_payoff("S(1)*1e308*1e308-S(1)*1e308*1e308", 1, 1), market)
            with pytest.raises(PayoffEvalError, match=r"^payoff is inf at path 0 = \(0, 0\)$"):
                eval_payoff(parse_payoff("max(S(1)*1e308, 0) * 10", 1, 1), market)

    def test_long_sum_evaluates(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        tree = parse_payoff("+".join(["S(1)"] * 3000), 1, 1)
        want = eval_payoff(parse_payoff("3000*S(1)", 1, 1), market)
        assert np.array_equal(eval_payoff(tree, market).values, want.values)

    def test_terminal_default(self):
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        explicit = eval_payoff(parse_payoff("S(1,1)", 1, 1), market)
        default = eval_payoff(parse_payoff("S(1)", 1, 1), market)
        assert np.array_equal(explicit.values, default.values)

    def test_negation_and_abs_evaluate(self):
        market = crr_market(100.0, 0.1, -0.1, 0.02, 2)
        final = oracle_prices(market)[-1][:, 0]
        for text, want in [
            ("-S(1)", -final),
            ("abs(S(1)-100)", np.abs(final - 100.0)),
            ("-(S(1)-B(0))", 1.02 - final),
        ]:
            got = eval_payoff(parse_payoff(text, 1, 1), market).values
            assert np.allclose(got, want, rtol=1e-14, atol=0.0), text

    @pytest.mark.parametrize(
        "tree, message",
        [
            (parse_payoff("S(2)", 2, 1), "asset index 2 outside [1, 1]"),
            (parse_payoff("S(1, 5)", 1, 5), "time index 5 outside [0, 1]"),
            (parse_payoff("B(5)", 1, 5), "time index 5 outside [0, 1]"),
            (PriceRef(1, -1), "time index -1 outside [0, 1]"),
        ],
    )
    def test_index_beyond_the_market_is_refused(self, tree, message):
        """A tree parsed for another shape, or built by hand, is checked against
        the market it is evaluated on, not read past its prices or before S0."""
        market = crr_market(100.0, 0.1, -0.1, 0.0, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eval_payoff(tree, market)
