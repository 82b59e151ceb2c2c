"""A tiny expression DSL over the variables x and t.

Used to define kernels and the functions f, p, F from the command line.
Supported: real literals, x, t, binary + - * / ^, unary -, and the functions
ln, exp, abs, sign, sqrt.  `^` is right-associative and binds tighter than
unary minus.  Mathematically undefined points (ln or sqrt out of domain,
division by zero, 0^negative, negative^non-integer) raise DomainError.
Overflow gives a signed inf, and inf - inf, 0 * inf or inf / inf then give
NaN, which evaluation returns as it is.

compile_expr turns a tree into one generated Python function of (x, t), so
a term costs one call, not one per node; compile_terms turns it into one
function of (xs, t), so the terms of a whole sample cost one call.
Expressions nest at most MAX_DEPTH levels deep; parse and compile_expr
reject deeper ones with an ExprSyntaxError that carries an offset.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("ln", "exp", "abs", "sign", "sqrt")
VARIABLES = ("x", "t")
# The deepest nesting parse and compile_expr accept: tree levels, and source
# nesting of parentheses, calls, unary minus and exponents.
MAX_DEPTH = 100
_TOO_DEEP = f"at most {MAX_DEPTH} levels of nesting"


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
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

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
        self.depth += 1  # every recursion of the parser passes through here
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(self.peek()[2], _TOO_DEEP)
        if self.at_op("-"):
            _, _, off = self.advance()
            e = Neg(self.unary(), off)
        else:
            e = self.power()
        self.depth -= 1
        return e

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
    """Parse a DSL expression; syntax errors carry byte offsets.  Nesting
    deeper than MAX_DEPTH, in the source or in the tree, is a syntax error."""
    if not source.strip():
        raise ExprSyntaxError(0, "a nonempty expression")
    e = _Parser(source).parse()
    _source(e)  # the tree-depth check, shared with compile_expr
    return e


def _domain(offset: int, message: str):
    raise DomainError(f"at offset {offset}: {message}")


# The helpers that generated code calls; each takes its node's offset last.
def _div(a, b, offset):
    if b == 0.0:
        _domain(offset, "division by zero")
    return a / b


def _pow(a, b, offset):
    if a == 0.0 and b < 0.0:
        _domain(offset, "zero base with negative exponent")
    if a < 0.0 and not float(b).is_integer():
        _domain(offset, "negative base with non-integer exponent")
    try:
        return math.pow(a, b)
    except OverflowError:
        return -math.inf if a < 0.0 and b % 2.0 == 1.0 else math.inf


def _ln(v, offset):
    if v <= 0.0:
        _domain(offset, f"ln of nonpositive value {v!r}")
    return math.log(v)


def _exp(v, offset):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _sign(v, offset):
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _sqrt(v, offset):
    if v < 0.0:
        _domain(offset, f"sqrt of negative value {v!r}")
    return math.sqrt(v)


# Everything generated code can name; no builtins.
_SCOPE = {"__builtins__": {}, "abs": abs, "inf": math.inf, "_div": _div,
          "_pow": _pow, "_ln": _ln, "_exp": _exp, "_sign": _sign, "_sqrt": _sqrt}
_HELPERS = {"/": "_div", "^": "_pow"}


def _source(e: Expr, room: int = MAX_DEPTH) -> str:
    """Python source for e over x and t, every operation parenthesised."""
    if room == 0:
        raise ExprSyntaxError(e.offset, _TOO_DEEP)
    if isinstance(e, Num):
        return f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_source(e.operand, room - 1)})"
    if isinstance(e, Fn):
        arg = _source(e.arg, room - 1)
        return f"abs({arg})" if e.name == "abs" else f"_{e.name}({arg}, {e.offset})"
    if isinstance(e, Bin):
        a, b = _source(e.left, room - 1), _source(e.right, room - 1)
        if e.op in _HELPERS:
            return f"{_HELPERS[e.op]}({a}, {b}, {e.offset})"
        return f"({a} {e.op} {b})"
    raise AssertionError(type(e))


@functools.lru_cache(maxsize=256)
def _compile_source(source: str) -> tuple:
    """(eval, terms) of one generated source, compiled together."""
    return eval(f"(lambda x, t: {source}), (lambda xs, t: [{source} for x in xs])",
                _SCOPE)


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """The expression as one generated function of (x, t).

    One walk of the tree writes the source of a single `lambda x, t: ...`:
    + - * unary minus and abs inline, the other operations as calls to
    this module's helpers with the node's offset.  The source holds only
    x, t, numbers and those names, so no user text reaches `compile`;
    compiled functions are cached by source.  Evaluation is in IEEE
    doubles, left operand before right; undefined points raise DomainError
    at the offset of the failing node, not NaN.  A tree deeper than
    MAX_DEPTH raises ExprSyntaxError.
    """
    return _compile_source(_source(e))[0]


def compile_terms(e: Expr) -> Callable[[Sequence[float], float], list]:
    """The expression as one generated function of (xs, t) giving the list
    of its values at each x of xs, in order: compile_expr's source in a
    list comprehension, so each value is the float compile_expr(e)(x, t)
    gives, and an error is raised at the first x where it raises.  This is
    an expression kernel's PsiKernel.terms."""
    return _compile_source(_source(e))[1]


def eval_expr(e: Expr, x: float = 0.0, t: float = 0.0) -> float:
    """Evaluate once: compile_expr(e)(x, t)."""
    return compile_expr(e)(x, t)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW = 1, 2, 3, 4
_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
             "^": _PREC_POW}


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        if math.isinf(v):
            return "1e999" if v > 0 else "-1e999"
        return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Fn):
        return f"{e.name}({_render(e.arg, _PREC_ADD)})"
    if isinstance(e, Neg):
        body = "-" + _render(e.operand, _PREC_NEG)
        return body if _PREC_NEG >= min_prec else f"({body})"
    if isinstance(e, Bin):
        prec = _BIN_PREC[e.op]
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

