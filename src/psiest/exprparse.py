"""A tiny expression DSL over the variables x and t.

Used to define kernels and the functions f, p, F from the command line.
Supported: real literals, x, t, binary + - * / ^, unary -, and the functions
ln, exp, abs, sign, sqrt.  `^` is right-associative and binds tighter than
unary minus.  Mathematically undefined points (ln or sqrt out of domain,
division by zero, 0^negative, negative^non-integer) raise DomainError.
Overflow gives a signed inf, and inf - inf, 0 * inf or inf / inf then give
NaN, which evaluation returns as it is.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Union

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


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """The expression as a function of (x, t), built in one walk of the tree.

    Evaluation is in IEEE doubles, left operand before right; undefined
    points raise DomainError at the offset of the failing node, not NaN.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda x, t: value
    if isinstance(e, Var):
        return (lambda x, t: x) if e.name == "x" else (lambda x, t: t)
    if isinstance(e, Neg):
        operand = compile_expr(e.operand)
        return lambda x, t: -operand(x, t)
    if isinstance(e, Fn):
        return _compile_fn(e.name, compile_expr(e.arg), e.offset)
    if isinstance(e, Bin):
        return _compile_bin(e.op, compile_expr(e.left), compile_expr(e.right), e.offset)
    raise AssertionError(type(e))


def _compile_fn(name: str, arg, offset: int):
    if name == "ln":
        def ln(x, t):
            v = arg(x, t)
            if v <= 0.0:
                _domain(offset, f"ln of nonpositive value {v!r}")
            return math.log(v)
        return ln
    if name == "exp":
        def exp(x, t):
            try:
                return math.exp(arg(x, t))
            except OverflowError:
                return math.inf
        return exp
    if name == "abs":
        return lambda x, t: abs(arg(x, t))
    if name == "sign":
        def sign(x, t):
            v = arg(x, t)
            if v > 0.0:
                return 1.0
            if v < 0.0:
                return -1.0
            return 0.0
        return sign
    if name == "sqrt":
        def sqrt(x, t):
            v = arg(x, t)
            if v < 0.0:
                _domain(offset, f"sqrt of negative value {v!r}")
            return math.sqrt(v)
        return sqrt
    raise AssertionError(name)


def _compile_bin(op: str, left, right, offset: int):
    if op == "+":
        return lambda x, t: left(x, t) + right(x, t)
    if op == "-":
        return lambda x, t: left(x, t) - right(x, t)
    if op == "*":
        return lambda x, t: left(x, t) * right(x, t)
    if op == "/":
        def div(x, t):
            a = left(x, t)
            b = right(x, t)
            if b == 0.0:
                _domain(offset, "division by zero")
            return a / b
        return div
    if op == "^":
        def power(x, t):
            a = left(x, t)
            b = right(x, t)
            if a == 0.0 and b < 0.0:
                _domain(offset, "zero base with negative exponent")
            if a < 0.0 and not float(b).is_integer():
                _domain(offset, "negative base with non-integer exponent")
            try:
                return math.pow(a, b)
            except OverflowError:
                return -math.inf if a < 0.0 and b % 2.0 == 1.0 else math.inf
        return power
    raise AssertionError(op)


def eval_expr(e: Expr, x: float = 0.0, t: float = 0.0) -> float:
    """Evaluate once: compile_expr(e)(x, t)."""
    return compile_expr(e)(x, t)


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


def validate_monotone(e: Expr, theta: OpenInterval) -> bool:
    """True iff the expression, as a function of t, is strictly increasing on
    513 equispaced points inside theta plus 100 random pairs (seed 0).

    Grid and pairs span theta.probe_window().  A NaN value reads as not
    increasing.  DomainError propagates if evaluation fails on the grid.
    """
    f = compile_expr(e)
    vals = [f(0.0, t) for t in theta.probe_grid(513)]
    if not all(a < b for a, b in zip(vals, vals[1:])):
        return False

    lo, hi = theta.probe_window()
    rng = random.Random(0)
    for _ in range(100):
        s = rng.uniform(lo, hi)
        u = rng.uniform(lo, hi)
        if s == u:
            continue
        s, u = (s, u) if s < u else (u, s)
        if not f(0.0, s) < f(0.0, u):
            return False
    return True
