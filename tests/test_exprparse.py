import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiest import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    OpenInterval,
    UnknownIdentifier,
    compile_expr,
    eval_expr,
    parse,
    pretty,
    validate_monotone,
)
from psiest.exprparse import MAX_DEPTH, Bin, Fn, Neg, Num, Var

# Sources nested `levels` deep, in the tree or (for parens) in the source.
DEEP_SHAPES = {
    "sum": lambda levels: "+".join(["x"] * levels),
    "minus": lambda levels: "-" * (levels - 1) + "x",
    "parens": lambda levels: "(" * (levels - 1) + "x" + ")" * (levels - 1),
    "calls": lambda levels: "abs(" * (levels - 1) + "x" + ")" * (levels - 1),
    "power": lambda levels: "x^" * (levels - 1) + "x",
}


class TestParse:
    def test_function_call(self):
        e = parse("ln(t)")
        assert isinstance(e, Fn) and e.name == "ln"
        assert isinstance(e.arg, Var) and e.arg.name == "t"

    def test_precedence(self):
        e = parse("x^2 - 3*t")
        assert isinstance(e, Bin) and e.op == "-"
        assert isinstance(e.left, Bin) and e.left.op == "^"
        assert isinstance(e.right, Bin) and e.right.op == "*"

    def test_power_right_associative(self):
        e = parse("2^3^2")
        assert eval_expr(e) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert eval_expr(parse("-2^2")) == -4.0

    def test_unclosed_call(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("ln(")
        assert exc.value.offset == 3

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + 2 )")
        assert exc.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse("2 * y")
        assert exc.value.name == "y"
        assert exc.value.offset == 4

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + @")
        assert exc.value.offset <= 5

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_nesting_at_limit_evaluates(self, shape):
        f = compile_expr(parse(DEEP_SHAPES[shape](MAX_DEPTH)))
        assert math.isfinite(f(0.5, 0.0))

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 2000])
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_nesting_past_limit(self, shape, levels):
        src = DEEP_SHAPES[shape](levels)
        with pytest.raises(ExprSyntaxError, match="levels of nesting") as exc:
            parse(src)
        assert 0 <= exc.value.offset <= len(src)

    def test_compile_checks_depth(self):
        e = Var("x", 7)
        for _ in range(MAX_DEPTH - 1):
            e = Neg(e, 3)
        assert compile_expr(e)(2.0, 0.0) == (2.0 if MAX_DEPTH % 2 else -2.0)
        with pytest.raises(ExprSyntaxError) as exc:
            compile_expr(Neg(e, 3))
        assert exc.value.offset == 7  # the leaf, one level past the limit


class TestEval:
    def test_subtraction(self):
        assert eval_expr(parse("x - t"), x=5.0, t=2.0) == 3.0

    def test_ln_e(self):
        assert eval_expr(parse("ln(t)"), t=math.e) == pytest.approx(1.0)

    def test_ln_negative(self):
        with pytest.raises(DomainError):
            eval_expr(parse("ln(t)"), t=-1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr(parse("1/t"), t=0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            eval_expr(parse("t^(0-2)"), t=0.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            eval_expr(parse("t^0.5"), t=-4.0)

    def test_negative_base_integer_power(self):
        assert eval_expr(parse("t^3"), t=-2.0) == -8.0

    def test_sign_exact(self):
        e = parse("sign(x - t)")
        assert eval_expr(e, x=3.0, t=1.0) == 1.0
        assert eval_expr(e, x=1.0, t=3.0) == -1.0
        assert eval_expr(e, x=2.0, t=2.0) == 0.0

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            eval_expr(parse("sqrt(t)"), t=-1.0)

    def test_abs(self):
        assert eval_expr(parse("abs(t)"), t=-3.5) == 3.5

    def test_exp_overflow_is_inf(self):
        assert eval_expr(parse("exp(t)"), t=1e6) == math.inf

    @pytest.mark.parametrize("src,x,t,want", [
        ("(0-10)^x", 400.0, 0.0, math.inf),  # even exponent: positive
        ("(0-10)^x", 401.0, 0.0, -math.inf),
        ("sqrt(x^2 + t^2)", -1e300, 0.0, math.inf),
        ("exp(t)^t", 0.0, -745.0, math.inf),  # subnormal base
        ("(0-1e-300)^x", -3.0, 0.0, -math.inf),
    ])
    def test_power_overflow_sign(self, src, x, t, want):
        assert eval_expr(parse(src), x=x, t=t) == want

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_negative_base_nonfinite_exponent(self, x):
        with pytest.raises(DomainError, match="negative base with non-integer exponent"):
            eval_expr(parse("(0-2)^x"), x=x)

    def test_signed_zero_literals_compiled_apart(self):
        # Num(0.0) == Num(-0.0), so the compile cache must key on the source
        assert math.copysign(1.0, compile_expr(Num(0.0))(0.0, 0.0)) == 1.0
        assert math.copysign(1.0, compile_expr(Num(-0.0))(0.0, 0.0)) == -1.0

    def test_nan_is_returned(self):
        assert math.isnan(eval_expr(parse("exp(x) - exp(x)"), x=1000.0))

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_no_nan_results(self, x, t):
        # every expression either evaluates to a non-NaN float or raises
        for src in ("x - t", "x*t + 1", "abs(x) + abs(t)", "sign(x*t)",
                    "x^2 + t^2", "exp(sign(x))"):
            try:
                v = eval_expr(parse(src), x=x, t=t)
            except DomainError:
                continue
            assert not math.isnan(v)


def of_t(src):
    """The expression as a function of t alone, at x = 0, as mobius-test
    builds f."""
    return functools.partial(compile_expr(parse(src)), 0.0)


class TestValidateMonotone:
    def test_cube_on_line(self):
        assert validate_monotone(of_t("t^3"), OpenInterval(-math.inf, math.inf))

    def test_negation_fails(self):
        assert not validate_monotone(of_t("0 - t"), OpenInterval(-math.inf, math.inf))

    def test_ln_on_positives(self):
        assert validate_monotone(of_t("ln(t)"), OpenInterval(0.0, math.inf))

    def test_constant_fails(self):
        assert not validate_monotone(of_t("5"), OpenInterval(0.0, 1.0))

    def test_nan_is_not_increasing(self):
        # exp(t) - exp(t) is NaN beyond t ~ 709.78
        assert not validate_monotone(of_t("t + (exp(t) - exp(t))"),
                                     OpenInterval(0.0, 1000.0))

    def test_eval_failure_propagates(self):
        with pytest.raises(DomainError):
            validate_monotone(of_t("ln(t)"), OpenInterval(-1.0, 1.0))


ROUND_TRIP_CORPUS = [
    "x", "t", "1", "2.5", "x + t", "x - t", "x * t", "x / t", "x ^ t",
    "-x", "-(x + t)", "x - (t - 1)", "x / (t * 2)", "(x + 1) * (t - 2)",
    "x ^ 2 - 3 * t", "2 ^ 3 ^ 2", "(x ^ 2) ^ 3", "-x ^ 2", "x ^ -t",
    "ln(t)", "exp(x - t)", "abs(x) + 1", "sign(x - t) * abs(x - t)",
    "sqrt(x ^ 2 + t ^ 2)", "1 / (t + 3)", "(2 * t + 1) / (t + 3)",
    "x * t * 2", "x + t + 1", "x - t - 1", "x / t / 2",
    "ln(exp(t))", "exp(ln(abs(t) + 1))", "-1", "-(x * t)", "0.5 * x + 0.5 * t",
    "x ^ 0.5", "t ^ 3 + t", "abs(t - x) ^ 2", "sign(t) + sign(x)",
    "sqrt(abs(t))", "1 + 2 * 3", "(1 + 2) * 3", "2 - -x", "x * -t",
    "ln(t + 1) - ln(t)", "exp(t) / (1 + exp(t))", "x ^ (t + 1)",
    "((x))", "abs(-x)", "t / (t + 1) / (t + 2)", "exp(0 - 1e999)",
]


class TestPretty:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_fixed_point(self, src):
        once = pretty(parse(src))
        twice = pretty(parse(once))
        assert once == twice

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_semantics_preserved(self, src):
        e1 = parse(src)
        e2 = parse(pretty(e1))
        for x, t in [(0.5, 1.5), (2.0, 3.0), (1.0, 0.25)]:
            try:
                v1 = eval_expr(e1, x=x, t=t)
            except DomainError:
                with pytest.raises(DomainError):
                    eval_expr(e2, x=x, t=t)
                continue
            assert eval_expr(e2, x=x, t=t) == v1


def tree_walk(e, x=0.0, t=0.0):
    """The evaluator that compile_expr replaced, kept as its oracle: one
    isinstance walk of the tree per evaluation."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else t
    if isinstance(e, Neg):
        return -tree_walk(e.operand, x, t)
    if isinstance(e, Fn):
        v = tree_walk(e.arg, x, t)
        if e.name == "ln":
            if v <= 0.0:
                raise DomainError(f"at offset {e.offset}: ln of nonpositive value {v!r}")
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
                raise DomainError(f"at offset {e.offset}: sqrt of negative value {v!r}")
            return math.sqrt(v)
        raise AssertionError(e.name)
    if isinstance(e, Bin):
        a = tree_walk(e.left, x, t)
        b = tree_walk(e.right, x, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise DomainError(f"at offset {e.offset}: division by zero")
            return a / b
        if e.op == "^":
            if a == 0.0 and b < 0.0:
                raise DomainError(f"at offset {e.offset}: zero base with negative exponent")
            if a < 0.0 and not float(b).is_integer():
                raise DomainError(
                    f"at offset {e.offset}: negative base with non-integer exponent")
            try:
                return math.pow(a, b)
            except OverflowError:
                return -math.inf if a < 0.0 and b % 2.0 == 1.0 else math.inf
        raise AssertionError(e.op)
    raise AssertionError(type(e))


def outcome(fn, *args):
    """repr of the value (so -0.0, inf and nan count), or the exception's
    type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the oracle's own errors must match too
        return type(exc).__name__, str(exc)


WIDE = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0])
OFFSETS = st.integers(0, 99)
TREES = st.recursive(
    st.builds(Num, WIDE, OFFSETS) | st.builds(Var, st.sampled_from(("x", "t")), OFFSETS),
    lambda sub: (st.builds(Neg, sub, OFFSETS)
                 | st.builds(Fn, st.sampled_from(("ln", "exp", "abs", "sign", "sqrt")),
                             sub, OFFSETS)
                 | st.builds(Bin, st.sampled_from(("+", "-", "*", "/", "^")), sub, sub,
                             OFFSETS)),
    max_leaves=12,
)


class TestCompiled:
    @given(TREES, WIDE, WIDE)
    @settings(max_examples=500, deadline=None)
    def test_matches_tree_walk(self, e, x, t):
        assert outcome(compile_expr(e), x, t) == outcome(tree_walk, e, x, t)

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_corpus_matches_tree_walk(self, src):
        e = parse(src)
        f = compile_expr(e)
        for x in (0.0, -0.0, 0.5, -2.0, 3.0, 1e300, -1e300, math.inf):
            for t in (0.0, -0.0, 1.5, -0.25, 2.0, 700.0, -math.inf):
                assert outcome(f, x, t) == outcome(tree_walk, e, x, t)

    @pytest.mark.parametrize("src", ["ln(0-1) / (t-t)"] + [
        f"ln(0-1) {op} sqrt(0-1)" for op in "+-*/^"])
    def test_left_error_reported_first(self, src):
        with pytest.raises(DomainError, match="^at offset 0: ln of nonpositive value -1.0$"):
            compile_expr(parse(src))(0.0, 1.0)


# What generated code may name: the helpers, abs and inf.
HELPER_NAMES = {"abs", "inf", "_div", "_pow", "_ln", "_exp", "_sign", "_sqrt"}


class TestFuzz:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_truncations_never_crash(self, src):
        for cut in range(len(src)):
            prefix = src[:cut]
            try:
                parse(prefix)
            except (ExprSyntaxError, UnknownIdentifier) as exc:
                off = getattr(exc, "offset", 0)
                assert 0 <= off <= len(prefix)

    @given(st.text(alphabet="xt0123456789+-*/^().lnexpabsqr ", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_random_soup_never_crashes(self, src):
        try:
            compile_expr(parse(src))(0.5, 1.5)
        except (ExprError, DomainError):
            pass

    @pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 2000])
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_deep_shapes_never_crash(self, shape, levels):
        try:
            compile_expr(parse(DEEP_SHAPES[shape](levels)))(0.5, 1.5)
        except (ExprError, DomainError):
            pass

    @given(TREES)
    @settings(max_examples=200, deadline=None)
    def test_generated_code_names(self, e):
        # one function of (x, t) that names nothing but the helpers
        code = compile_expr(e).__code__
        assert code.co_varnames == ("x", "t")
        assert set(code.co_names) <= HELPER_NAMES
