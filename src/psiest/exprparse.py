"""A tiny expression DSL over the variables x and t.

Used to define kernels and the functions f, p, F from the command line.
Supported: real literals, x, t, binary + - * / ^, unary -, and the functions
ln, exp, abs, sign, sqrt.  `^` is right-associative and binds tighter than
unary minus.  Mathematically undefined points (ln or sqrt out of domain,
division by zero, 0^negative, negative^non-integer) raise DomainError.
Overflow gives a signed inf, and inf - inf, 0 * inf or inf / inf then give
NaN, which evaluation returns as it is (sign of NaN is NaN).

compile_expr turns a tree into one generated Python function of (x, t), so
a term costs one call, not one per node.  compile_terms turns it into the
batched form of a kernel: a column function of x, holding the subtrees that
read x alone and cannot raise, and a function of (columns, t) that
evaluates the subtrees reading t alone once per call and the rest once per
x, so the terms of a whole sample cost one call; each value and each error
are compile_expr's.
Expressions nest at most MAX_DEPTH levels deep; parse and compile_expr
reject deeper ones with an ExprSyntaxError that carries an offset.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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
    return 0.0 if v == 0.0 else v  # NaN as it is


def _sqrt(v, offset):
    if v < 0.0:
        _domain(offset, f"sqrt of negative value {v!r}")
    return math.sqrt(v)


# Everything generated code can name; no builtins.
_SCOPE = {"__builtins__": {}, "abs": abs, "inf": math.inf, "DomainError": DomainError,
          "_div": _div, "_pow": _pow, "_ln": _ln, "_exp": _exp, "_sign": _sign,
          "_sqrt": _sqrt}
_HELPERS = {"/": "_div", "^": "_pow"}
# The variables a subtree reads, as bits.
_X, _T = 1, 2


def _children(e: Expr) -> tuple:
    if isinstance(e, Bin):
        return e.left, e.right
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Fn):
        return (e.arg,)
    return ()


def _nonzero_num(e: Expr) -> bool:
    return isinstance(e, Num) and e.value != 0.0


def _may_raise(e: Expr) -> bool:
    """Whether e's own operation can raise, whatever its operands' values:
    ln and sqrt; / but by a nonzero number; ^ but of a positive number or to
    a finite integer power of at least 0."""
    if isinstance(e, Fn):
        return e.name in ("ln", "sqrt")
    if isinstance(e, Bin) and e.op == "/":
        return not _nonzero_num(e.right)
    if isinstance(e, Bin) and e.op == "^":
        base, power = e.left, e.right
        return not ((isinstance(base, Num) and base.value > 0.0)
                    or (isinstance(power, Num) and power.value >= 0.0
                        and power.value.is_integer()))
    return False


class _Batch:
    """The batched form of one expression, as _walk builds it: its maximal
    subtrees that read x alone and cannot raise (the columns) and, unless
    in_place, its maximal subtrees that read t but not x (the per-call
    values), each by source, with the name the rest of e reads it by."""

    def __init__(self, in_place: bool = False):
        self.in_place = in_place
        self.columns: dict = {}  # source -> name
        self.values: dict = {}  # source -> name
        self.divisors: list = []  # the values written as the right operand of /

    def ref(self, e: Expr, walked: tuple, reads: int, raises: bool) -> str:
        """The batched source of child e of a node that reads `reads` and
        can raise if `raises`: a name where e is a maximal subtree to hoist,
        e's own batched source otherwise."""
        src, e_reads, e_raises, batched = walked
        if e_reads == _X and not e_raises and (reads & _T or raises):
            return self.columns.setdefault(
                src, "x" if src == "x" else f"c{len(self.columns)}")
        if not self.in_place and e_reads == _T and reads & _X and src != "t":
            return self.values.setdefault(src, f"u{len(self.values)}")
        return batched


def _walk(e: Expr, room: int = MAX_DEPTH, batch: Optional[_Batch] = None) -> tuple:
    """(source, reads, raises, batched) of e: the Python source of e over x
    and t, every operation parenthesised; the variables it reads (_X, _T
    bits); whether evaluating it can raise; and, given a batch, its source
    with its maximal hoisted subtrees named by the batch (else None).  The
    two sources write one operation for each node, in the same order."""
    if room == 0:
        raise ExprSyntaxError(e.offset, _TOO_DEEP)
    if isinstance(e, Num):
        return f"({e.value!r})", 0, False, f"({e.value!r})"
    if isinstance(e, Var):
        return e.name, _X if e.name == "x" else _T, False, e.name
    children = _children(e)
    walked = [_walk(k, room - 1, batch) for k in children]
    reads = walked[0][1] | walked[-1][1]  # of its one child or two
    raises = _may_raise(e) or any(w[2] for w in walked)
    source = _op_source(e, [w[0] for w in walked])
    if batch is None:
        return source, reads, raises, None
    refs = [batch.ref(k, w, reads, raises) for k, w in zip(children, walked)]
    if isinstance(e, Bin) and e.op == "/" and refs[1] in batch.values.values():
        # terms writes this / only once the value is known to be nonzero
        batch.divisors.append(refs[1])
        return source, reads, raises, f"({refs[0]} / {refs[1]})"
    return source, reads, raises, _op_source(e, refs)


def _op_source(e: Expr, operands: list) -> str:
    """The source of e's operation on its operands' sources: + - * unary
    minus, abs and / by a nonzero number inline, the rest as helper calls
    that carry e's offset."""
    if isinstance(e, Neg):
        return f"(-{operands[0]})"
    if isinstance(e, Fn):
        arg = operands[0]
        return f"abs({arg})" if e.name == "abs" else f"_{e.name}({arg}, {e.offset})"
    a, b = operands
    if e.op in _HELPERS and not (e.op == "/" and _nonzero_num(e.right)):
        return f"{_HELPERS[e.op]}({a}, {b}, {e.offset})"
    return f"({a} {e.op} {b})"


def _source(e: Expr) -> str:
    """Python source for e over x and t, every operation parenthesised."""
    return _walk(e)[0]


@functools.lru_cache(maxsize=256)
def _compiled(source: str) -> dict:
    """The names one generated source defines, compiled once per source."""
    names: dict = {}
    exec(source, _SCOPE, names)
    return names


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """The expression as one generated function of (x, t).

    One walk of the tree writes the source of a single `lambda x, t: ...`:
    + - * unary minus, abs and / by a nonzero number inline, the other
    operations as calls to this module's helpers with the node's offset.
    The source holds only x, t, numbers and those names, so no user text
    reaches `compile`; compiled functions are cached by source, and the
    function of each tree object is kept on it, outside ==, hash and repr
    (Num(0.0) == Num(-0.0), but their sources differ), so a second call on
    the same tree does not walk it again.  Evaluation is in IEEE doubles,
    left operand before right; undefined points raise DomainError at the
    offset of the failing node, not NaN.  A tree deeper than MAX_DEPTH
    raises ExprSyntaxError.
    """
    ev = e.__dict__.get("_ev")
    if ev is None:
        ev = _compiled(f"ev = lambda x, t: {_source(e)}")["ev"]
        object.__setattr__(e, "_ev", ev)
    return ev


def _batched(e: Expr, batch: _Batch) -> str:
    """e's values over the columns cs, as a list comprehension."""
    body = batch.ref(e, _walk(e, batch=batch), _X | _T, True)
    return f"[{body} for {', '.join(batch.columns.values()) or 'x'} in cs]"


def _linear(e: Expr) -> bool:
    """Whether e is affine in its columns: every node on each path from e
    down to a subtree that reads x alone and cannot raise (a column, x
    itself included) is + - unary minus, a * whose other operand reads no
    x, or a / whose divisor reads no x."""
    _, reads, raises, _ = _walk(e)
    if not reads & _X or (reads == _X and not raises):
        return True
    if isinstance(e, Neg):
        return _linear(e.operand)
    if not isinstance(e, Bin):
        return False
    if e.op in ("+", "-"):
        return _linear(e.left) and _linear(e.right)
    x_free = [not _walk(k)[1] & _X for k in (e.left, e.right)]
    if e.op == "*":
        return (x_free[0] and _linear(e.right)) or (x_free[1] and _linear(e.left))
    return e.op == "/" and x_free[1] and _linear(e.left)


def compile_terms(e: Expr) -> tuple[Optional[Callable[[float], object]],
                                     Callable[[Sequence, float], list]]:
    """The expression in the batched form of PsiKernel: (column, terms).

    column(x) is the value of e's maximal subtree that reads x but not t
    and cannot raise (abs(x), exp(x), x^2, ...), or the tuple of their
    values where e has several; column is None where x itself is the one.
    terms(cs, t) is the list of e's values at the xs whose columns are cs,
    in order.  It evaluates e's maximal subtrees that read t but not x
    (t*t, 1/t, ...) once per call, then the rest of e once per x, and
    divides by such a value with / once it is known to be nonzero.  The
    operations and their order are compile_expr's, so each value is the
    float compile_expr(e)(x, t) gives.  Where such a value raises, or one
    it divides by is 0, terms runs the comprehension with each of them in
    place, so an error is the one compile_expr raises at the first x where
    one is: its type, its offset, and the left one of two.  Both functions
    are cached by source, so the kernels of one expression share their
    columns on a WeightedSample.  This is an expression kernel's
    PsiKernel.column and terms.

    Where e has one column c and is affine in it (_linear), psi(x, t) =
    A(t) c(x) + B(t), and terms carries the attribute _linear = True: the
    solver then proposes the root of t -> psi at the weighted mean of c
    (solver._propose), which the sum itself must certify."""
    hoisted, in_place = _Batch(), _Batch(in_place=True)
    fast, slow = _batched(e, hoisted), _batched(e, in_place)
    lines = []
    if list(hoisted.columns) not in ([], ["x"]):
        lines.append(f"column = lambda x: ({', '.join(hoisted.columns)})")
    lines.append("def terms(cs, t):")
    if hoisted.values:  # the helpers raise DomainError alone
        lines += ["    try:",
                  *(f"        {name} = {src}" for src, name in hoisted.values.items()),
                  "    except DomainError:", f"        return {slow}"]
    if hoisted.divisors:
        zero = " or ".join(f"{d} == 0.0" for d in dict.fromkeys(hoisted.divisors))
        lines += [f"    if {zero}:", f"        return {slow}"]
    lines.append(f"    return {fast}")
    names = _compiled("\n".join(lines))
    terms = names["terms"]
    if len(hoisted.columns) == 1 and _linear(e):  # the same for one source
        terms._linear = True
    return names.get("column"), terms


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

