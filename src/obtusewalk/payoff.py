"""Payoff expression language: parsing, printing, and pathwise evaluation.

Grammar (standard precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | 'S' '(' INT [',' INT] ')' | 'B' '(' INT ')'
            | ('max' | 'min' | 'abs') '(' expr (',' expr)* ')'
            | '(' expr ')'

S(i) is the terminal price of asset i, S(i, n) the price at time n, B(n)
the bond price at time n. Asset and time indices are validated against the
market shape at parse time. Printing a tree and reparsing it reproduces
the tree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ObtuseWalkError
from .market import MarketSpec
from .omega import PathTable


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
    """A binary operation; a chain of them is compared, hashed and printed
    along its left spine without recursion, so a long sum costs no stack."""

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

#: Deepest nesting of parentheses, function calls and unary minus a payoff may use
_MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN COMMA END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    j = k
                    while j < len(text) and text[j].isdigit():
                        j += 1
            word = text[i:j]
            try:
                float(word)
            except ValueError:
                raise PayoffSyntaxError(f"bad number {word!r}", line, start_col)
            tokens.append(_Token("NUMBER", word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/":
            tokens.append(_Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, line, start_col))
        elif ch == ",":
            tokens.append(_Token("COMMA", ch, line, start_col))
        else:
            raise PayoffSyntaxError(f"unexpected character {ch!r}", line, start_col)
        col += 1
        i += 1
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], d: int, N: int):
        self.tokens = tokens
        self.pos = 0
        self.d = d
        self.N = N
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected: str | None = None) -> PayoffSyntaxError:
        tok = self.peek()
        found = tok.text or "end of input"
        return PayoffSyntaxError(f"{message}, found {found!r}", tok.line, tok.col, expected)

    def nested(self, parse) -> PayoffExpr:
        """Run the sub-parse one nesting level deeper; too deep is a syntax error."""
        if self.depth == _MAX_NESTING:
            raise self.fail(f"expression nested more than {_MAX_NESTING} levels deep")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail("unexpected token", expected)
        return self.advance()

    def parse(self) -> PayoffExpr:
        expr = self.expr()
        if self.peek().kind != "END":
            raise self.fail("trailing input", "end of input")
        return expr

    def expr(self) -> PayoffExpr:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> PayoffExpr:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> PayoffExpr:
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            return Neg(self.nested(self.unary))
        return self.atom()

    def int_literal(self, what: str) -> int:
        tok = self.expect("NUMBER", f"an integer {what}")
        value = float(tok.text)
        if value != int(value):
            raise PayoffSyntaxError(
                f"{what} must be an integer, got {tok.text}", tok.line, tok.col
            )
        return int(value)

    def atom(self) -> PayoffExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.nested(self.expr)
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            name = self.advance().text
            if name == "S":
                self.expect("LPAREN", "'('")
                asset = self.int_literal("asset index")
                if not 1 <= asset <= self.d:
                    raise PayoffSyntaxError(
                        f"asset index {asset} outside [1, {self.d}]", tok.line, tok.col
                    )
                time: int | None = None
                if self.peek().kind == "COMMA":
                    self.advance()
                    time = self.int_literal("time index")
                    if not 0 <= time <= self.N:
                        raise PayoffSyntaxError(
                            f"time index {time} outside [0, {self.N}]", tok.line, tok.col
                        )
                self.expect("RPAREN", "')'")
                return PriceRef(asset, time)
            if name == "B":
                self.expect("LPAREN", "'('")
                time = self.int_literal("time index")
                if not 0 <= time <= self.N:
                    raise PayoffSyntaxError(
                        f"time index {time} outside [0, {self.N}]", tok.line, tok.col
                    )
                self.expect("RPAREN", "')'")
                return BondRef(time)
            if name in _FUNCTIONS:
                self.expect("LPAREN", "'('")
                args = [self.nested(self.expr)]
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.nested(self.expr))
                self.expect("RPAREN", "')'")
                if name == "abs" and len(args) != 1:
                    raise PayoffSyntaxError(
                        f"abs takes exactly one argument, got {len(args)}",
                        tok.line,
                        tok.col,
                    )
                if name in ("max", "min") and len(args) < 2:
                    raise PayoffSyntaxError(
                        f"{name} needs at least two arguments", tok.line, tok.col
                    )
                return FuncCall(name, tuple(args))
            raise PayoffSyntaxError(
                f"unknown identifier {name!r}", tok.line, tok.col,
                "a number, S(...), B(...), max, min, abs, or '('",
            )
        raise self.fail("unexpected token", "a number, S(...), B(...), or '('")


def parse_payoff(text: str, d: int, N: int) -> PayoffExpr:
    """Parse a payoff expression, validating indices against (d, N)."""
    return _Parser(_tokenize(text), d, N).parse()


def _precedence(node: PayoffExpr) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2
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
        # walk down the left operands that print without parentheses
        spine, left = [node], node.left
        while isinstance(left, BinOp) and _precedence(left) >= _precedence(spine[-1]):
            spine.append(left)
            left = left.left
        text = to_source(left)
        if _precedence(left) < _precedence(spine[-1]):
            text = f"({text})"
        for op_node in reversed(spine):
            right = to_source(op_node.right)
            if _precedence(op_node.right) <= _precedence(op_node):
                right = f"({right})"
            text = f"{text} {op_node.op} {right}"
        return text
    if isinstance(node, FuncCall):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not a payoff expression: {node!r}")


def eval_payoff(expr: PayoffExpr, market: MarketSpec) -> PathTable:
    """Evaluate the expression pointwise over the market's price paths.

    A chain of binary operators is evaluated along its left spine without
    recursion, so a long sum costs no stack; the parser bounds the rest of
    the depth. A division by zero, or a payoff that is not finite on some
    path (an overflow, say), raises PayoffEvalError naming the first such path.
    """
    lattice, bond = market.lattice, market.bond
    space = market.space

    def binop(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        zeros = np.nonzero(right == 0.0)[0]
        if zeros.size:
            idx = int(zeros[0])
            raise PayoffEvalError(f"division by zero at path {idx} = {space.path_at(idx)}")
        return left / right

    def ev(node: PayoffExpr) -> np.ndarray:
        if isinstance(node, Num):
            return np.full(space.num_paths, node.value)
        if isinstance(node, PriceRef):
            time = market.N if node.time is None else node.time
            column = lattice.atom_prices(time)[:, node.asset - 1]
            return np.repeat(column, space.atom_size(time))
        if isinstance(node, BondRef):
            return np.full(space.num_paths, float(bond[node.time]))
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, BinOp):
            spine = []
            while isinstance(node, BinOp):
                spine.append(node)
                node = node.left
            out = ev(node)
            for op_node in reversed(spine):
                out = binop(op_node.op, out, ev(op_node.right))
            return out
        if isinstance(node, FuncCall):
            args = [ev(a) for a in node.args]
            if node.name == "abs":
                return np.abs(args[0])
            reducer = np.maximum if node.name == "max" else np.minimum
            out = args[0]
            for a in args[1:]:
                out = reducer(out, a)
            return out
        raise TypeError(f"not a payoff expression: {node!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        values = ev(expr)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        idx = int(bad[0])
        raise PayoffEvalError(f"payoff is {values[idx]} at path {idx} = {space.path_at(idx)}")
    return PathTable(space, values)
