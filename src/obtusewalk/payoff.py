"""Payoff expression language: parsing, printing, and pathwise evaluation.

Grammar (standard precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | 'S' '(' INT [',' INT] ')' | 'B' '(' INT ')'
            | ('max' | 'min' | 'abs') '(' expr (',' expr)* ')'
            | '(' expr ')'

Tokens: a NUMBER starts with a decimal digit, or with '.' and a digit; it
takes digits and dots, then an exponent only where a digit follows e[+-],
and with a second dot it is a bad number (float() rejects it). A name
starts with a word character that is not a decimal digit (a letter or '_')
and takes word characters. Any other character that is not whitespace must
be one of + - * / ( ) ,. A newline starts the next line at column 1, and
every lexical error is raised before any parse error.

S(i) is the terminal price of asset i, S(i, n) the price at time n, B(n)
the bond price at time n. Indices are integer literals, validated against
the market shape at parse time. Printing a tree and reparsing it reproduces
the tree exactly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Union

import numpy as np

from .errors import ObtuseWalkError
from .market import MarketSpec
from .omega import PathTable, _check_finite, _check_range, _tree_offset


class PayoffSyntaxError(ObtuseWalkError):
    """Parse failure with source position and the tokens that were expected."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = expected


class PayoffEvalError(ObtuseWalkError):
    """Evaluation failure, naming the offending path."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class PriceRef:
    asset: int
    time: int | None  # None means the terminal time


@dataclass(frozen=True)
class BondRef:
    time: int


@dataclass(frozen=True)
class Neg:
    operand: "PayoffExpr"


@dataclass(frozen=True, eq=False)
class BinOp:
    """A binary operation; a chain of them is compared, hashed, printed and
    evaluated along its left spine without recursion, so a long sum costs no stack."""

    op: str  # one of + - * /
    left: "PayoffExpr"
    right: "PayoffExpr"

    def _spine(self) -> tuple["PayoffExpr", list[tuple[str, "PayoffExpr"]]]:
        """The first non-BinOp left operand and the (op, right) pairs above it, top first."""
        node, pairs = self, []
        while isinstance(node, BinOp):
            pairs.append((node.op, node.right))
            node = node.left
        return node, pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinOp):
            return NotImplemented
        return self._spine() == other._spine()

    def __hash__(self) -> int:
        leaf, pairs = self._spine()
        return hash((leaf, tuple(pairs)))

    def __repr__(self) -> str:
        leaf, pairs = self._spine()
        text = repr(leaf)
        for op, right in reversed(pairs):
            text = f"BinOp(op={op!r}, left={text}, right={right!r})"
        return text


@dataclass(frozen=True)
class FuncCall:
    name: str  # max, min, abs
    args: tuple["PayoffExpr", ...]


PayoffExpr = Union[Num, PriceRef, BondRef, Neg, BinOp, FuncCall]

_FUNCTIONS = ("max", "min", "abs")

#: Binary operators by precedence level, loosest first
_LEVELS = ("+-", "*/")
_BINDING = {op: level + 1 for level, ops in enumerate(_LEVELS) for op in ops}

#: Deepest nesting of parentheses, function calls and unary minus a payoff may use
_MAX_NESTING = 100

_TOKEN = re.compile(
    r"(?P<SPACE>\s+)|(?P<NUMBER>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<IDENT>[^\W\d]\w*)"
    r"|(?P<PUNCT>[-+*/(),])|(?P<OTHER>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) tuples ending with END; punctuation is its own kind."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word, col = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "SPACE":
            if "\n" in word:
                line += word.count("\n")
                line_start = match.start() + word.rindex("\n") + 1
            continue
        if kind == "OTHER":
            raise PayoffSyntaxError(f"unexpected character {word!r}", line, col)
        if kind == "NUMBER" and word.count(".") > 1:  # float() takes at most one dot
            raise PayoffSyntaxError(f"bad number {word!r}", line, col)
        tokens.append((word if kind == "PUNCT" else kind, word, line, col))
    tokens.append(("END", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]], d: int, N: int):
        self.tokens = tokens
        self.pos = 0
        self.d = d
        self.N = N
        self.depth = 0

    def fail(self, message: str, expected: str | None = None) -> PayoffSyntaxError:
        _, text, line, col = self.tokens[self.pos]
        found = text or "end of input"
        return PayoffSyntaxError(f"{message}, found {found!r}", line, col, expected)

    def take(self, kinds: str, expected: str | None = None) -> str | None:
        """The text of the next token, consumed, if its kind is `kinds` (or one
        of several one-character kinds); else None, or raise naming `expected`."""
        kind, text = self.tokens[self.pos][:2]
        if kind in kinds:
            self.pos += 1
            return text
        if expected:
            raise self.fail("unexpected token", expected)
        return None

    def nested(self, parse) -> PayoffExpr:
        """Run the sub-parse one nesting level deeper; too deep is a syntax error."""
        if self.depth == _MAX_NESTING:
            raise self.fail(f"expression nested more than {_MAX_NESTING} levels deep")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> PayoffExpr:
        expr = self.expr()
        if self.tokens[self.pos][0] != "END":
            raise self.fail("trailing input", "end of input")
        return expr

    def expr(self, level: int = 0) -> PayoffExpr:
        """Operands joined left to right by the operators of _LEVELS[level]."""
        operand = partial(self.expr, level + 1) if level + 1 < len(_LEVELS) else self.unary
        node = operand()
        while op := self.take(_LEVELS[level]):
            node = BinOp(op, node, operand())
        return node

    def unary(self) -> PayoffExpr:
        if self.take("-"):
            return Neg(self.nested(self.unary))
        return self.atom()

    def index(self, what: str, low: int, high: int, at: tuple[int, int]) -> int:
        """An integer literal in [low, high]; a range error points at `at`, the S or B."""
        _, text, line, col = self.tokens[self.pos]
        value = float(self.take("NUMBER", f"an integer {what}"))
        if not value.is_integer():
            raise PayoffSyntaxError(f"{what} must be an integer, got {text}", line, col)
        if not low <= value <= high:
            raise PayoffSyntaxError(f"{what} {text} outside [{low}, {high}]", *at)
        return int(value)

    def atom(self) -> PayoffExpr:
        _, text, line, col = self.tokens[self.pos]
        if self.take("NUMBER"):
            return Num(float(text))
        if self.take("("):
            inner = self.nested(self.expr)
            self.take(")", "')'")
            return inner
        if not self.take("IDENT"):
            raise self.fail("unexpected token", "a number, S(...), B(...), or '('")
        if text not in ("S", "B") + _FUNCTIONS:
            raise PayoffSyntaxError(
                f"unknown identifier {text!r}", line, col,
                "a number, S(...), B(...), max, min, abs, or '('",
            )
        self.take("(", "'('")
        at = (line, col)
        if text == "S":
            asset = self.index("asset index", 1, self.d, at)
            node = PriceRef(asset, self.index("time index", 0, self.N, at) if self.take(",") else None)
        elif text == "B":
            node = BondRef(self.index("time index", 0, self.N, at))
        else:
            args = [self.nested(self.expr)]
            while self.take(","):
                args.append(self.nested(self.expr))
            node = FuncCall(text, tuple(args))
        self.take(")", "')'")
        if text == "abs" and len(node.args) != 1:
            raise PayoffSyntaxError(f"abs takes exactly one argument, got {len(node.args)}", *at)
        if text in ("max", "min") and len(node.args) < 2:
            raise PayoffSyntaxError(f"{text} needs at least two arguments", *at)
        return node


def parse_payoff(text: str, d: int, N: int) -> PayoffExpr:
    """Parse a payoff expression, validating indices against (d, N)."""
    return _Parser(_tokenize(text), d, N).parse()


def _precedence(node: PayoffExpr) -> int:
    if isinstance(node, BinOp):
        return _BINDING[node.op]
    if isinstance(node, Neg):
        return 3
    return 4


def to_source(node: PayoffExpr) -> str:
    """Render a tree so that reparsing reproduces it exactly."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, PriceRef):
        if node.time is None:
            return f"S({node.asset})"
        return f"S({node.asset},{node.time})"
    if isinstance(node, BondRef):
        return f"B({node.time})"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _precedence(node.operand) < _precedence(node):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        leaf, pairs = node._spine()
        text, below = to_source(leaf), _precedence(leaf)
        for op, right in reversed(pairs):
            here = _BINDING[op]
            if below < here:
                text = f"({text})"
            right_text = to_source(right)
            if _precedence(right) <= here:
                right_text = f"({right_text})"
            text, below = f"{text} {op} {right_text}", here
        return text
    if isinstance(node, FuncCall):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not a payoff expression: {node!r}")


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def eval_payoff(expr: PayoffExpr, market: MarketSpec) -> PathTable:
    """Evaluate the expression pointwise over the market's price paths.

    A chain of binary operators is evaluated along its left spine without
    recursion, so a long sum costs no stack; the parser bounds the rest of
    the depth. A division by zero, or a payoff that is not finite on some
    path (an overflow, say), raises PayoffEvalError naming the first such path;
    an asset or time index outside the market raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = PathTable(market.space, _evaluate(expr, market))
    _check_finite(table, "payoff", PayoffEvalError)
    return table


def _evaluate(node: PayoffExpr, market: MarketSpec) -> np.ndarray:
    """The (num_paths,) values of one expression node.

    A module function, not a recursive closure: a closure that calls itself
    is a reference cycle, which would keep the market and its prices alive
    until the garbage collector runs.
    """
    space = market.space
    if isinstance(node, Num):
        return np.full(space.num_paths, node.value)
    if isinstance(node, PriceRef):
        asset = _check_range(node.asset, 1, market.d, "asset index")
        time = market.N if node.time is None else node.time
        _check_range(time, 0, market.N, "time index")
        atoms = slice(_tree_offset(market.d, time), _tree_offset(market.d, time + 1))
        return np.repeat(market.prices[atoms, asset - 1], space.atom_size(time))
    if isinstance(node, BondRef):
        time = _check_range(node.time, 0, market.N, "time index")
        return np.full(space.num_paths, float(market.bond[time]))
    if isinstance(node, Neg):
        return -_evaluate(node.operand, market)
    if isinstance(node, BinOp):
        leaf, pairs = node._spine()
        out = _evaluate(leaf, market)
        for op, right in reversed(pairs):
            values = _evaluate(right, market)
            if op == "/" and (zeros := np.flatnonzero(values == 0.0)).size:
                idx = int(zeros[0])
                raise PayoffEvalError(f"division by zero at path {idx} = {space.path_at(idx)}")
            out = _ARITHMETIC[op](out, values)
        return out
    if isinstance(node, FuncCall):
        args = [_evaluate(a, market) for a in node.args]
        if node.name == "abs":
            return np.abs(args[0])
        return reduce(np.maximum if node.name == "max" else np.minimum, args)
    raise TypeError(f"not a payoff expression: {node!r}")
