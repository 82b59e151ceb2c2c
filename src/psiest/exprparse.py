"""A tiny expression DSL over the variables x and t.

Used to define kernels and the functions f, p, F from the command line.
Supported: real literals, x, t, binary + - * / ^, unary -, and the functions
ln, exp, abs, sign, sqrt.  `^` is right-associative and binds tighter than
unary minus.  Evaluation never returns NaN; mathematically undefined points
raise DomainError instead.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .kernel import OpenInterval

FUNCTIONS = ("ln", "exp", "abs", "sign", "sqrt")
VARIABLES = ("x", "t")


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Fn:
    name: str
    arg: "Expr"
    offset: int = 0


Expr = Union[Num, Var, Neg, Bin, Fn]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprSyntaxError(bad, "a token")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(off, f"'{op}'")

    def at_op(self, *ops) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(off, "end of input")
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.at_op("+", "-"):
            _, op, off = self.advance()
            left = Bin(op, left, self.term(), off)
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.at_op("*", "/"):
            _, op, off = self.advance()
            left = Bin(op, left, self.unary(), off)
        return left

    def unary(self) -> Expr:
        if self.at_op("-"):
            _, _, off = self.advance()
            return Neg(self.unary(), off)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            _, _, off = self.advance()
            return Bin("^", base, self.unary(), off)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), off)
        if kind == "name":
            self.advance()
            if text in VARIABLES:
                return Var(text, off)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Fn(text, arg, off)
            raise UnknownIdentifier(text, off)
        if kind == "op" and text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(off, "a number, variable, function, or '('")


def parse(source: str) -> Expr:
    """Parse a DSL expression; syntax errors carry byte offsets."""
    if not source.strip():
        raise ExprSyntaxError(0, "a nonempty expression")
    return _Parser(source).parse()


def _domain(offset: int, message: str):
    raise DomainError(f"at offset {offset}: {message}")


def eval_expr(e: Expr, x: float = 0.0, t: float = 0.0) -> float:
    """Evaluate in IEEE doubles; undefined points raise DomainError, not NaN."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else t
    if isinstance(e, Neg):
        return -eval_expr(e.operand, x, t)
    if isinstance(e, Fn):
        v = eval_expr(e.arg, x, t)
        if e.name == "ln":
            if v <= 0.0:
                _domain(e.offset, f"ln of nonpositive value {v!r}")
            return math.log(v)
        if e.name == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        if e.name == "abs":
            return abs(v)
        if e.name == "sign":
            if v > 0.0:
                return 1.0
            if v < 0.0:
                return -1.0
            return 0.0
        if e.name == "sqrt":
            if v < 0.0:
                _domain(e.offset, f"sqrt of negative value {v!r}")
            return math.sqrt(v)
        raise AssertionError(e.name)
    if isinstance(e, Bin):
        a = eval_expr(e.left, x, t)
        b = eval_expr(e.right, x, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                _domain(e.offset, "division by zero")
            return a / b
        if e.op == "^":
            if a == 0.0 and b < 0.0:
                _domain(e.offset, "zero base with negative exponent")
            if a < 0.0 and b != math.floor(b):
                _domain(e.offset, "negative base with non-integer exponent")
            try:
                return math.pow(a, b)
            except OverflowError:
                return math.copysign(math.inf, math.pow(a, math.copysign(1.0, b)))
        raise AssertionError(e.op)
    raise AssertionError(type(e))


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        s = str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Fn):
        return f"{e.name}({_render(e.arg, _PREC_ADD)})"
    if isinstance(e, Neg):
        body = "-" + _render(e.operand, _PREC_NEG)
        return body if _PREC_NEG >= min_prec else f"({body})"
    if isinstance(e, Bin):
        prec = _prec(e)
        if e.op == "^":
            body = _render(e.left, prec + 1) + " ^ " + _render(e.right, _PREC_NEG)
        else:
            body = (
                _render(e.left, prec)
                + f" {e.op} "
                + _render(e.right, prec + 1)
            )
        return body if prec >= min_prec else f"({body})"
    raise AssertionError(type(e))


def pretty(e: Expr) -> str:
    """Canonical rendering; pretty(parse(pretty(e))) == pretty(e)."""
    return _render(e, _PREC_ADD)


def validate_monotone(
    e: Expr, theta: OpenInterval, grid: int = 513, seed: int = 0
) -> bool:
    """True iff the expression, as a function of t, is strictly increasing on
    an equispaced grid inside theta plus 100 seeded random pairs.

    Grid and pairs span theta.probe_window().  DomainError propagates if
    evaluation fails on the grid.
    """
    if grid < 3:
        raise ValueError("grid must be >= 3")
    vals = [eval_expr(e, 0.0, t) for t in theta.probe_grid(grid)]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return False

    lo, hi = theta.probe_window()
    rng = random.Random(seed)
    for _ in range(100):
        s = rng.uniform(lo, hi)
        u = rng.uniform(lo, hi)
        if s == u:
            continue
        s, u = (s, u) if s < u else (u, s)
        if eval_expr(e, 0.0, u) <= eval_expr(e, 0.0, s):
            return False
    return True
