"""psi in batched form: PsiKernel.terms against psi one point at a time, bit
for bit.

Two references are kept here verbatim: the family formulas as the scalar
closures they were written as before each family row gave its formula once
as (column, terms), and the per-term loop weighted_sum ran before it summed
kernel.terms.  A third is written out apart from the rows: the seven rows
psi = q(t) (F(x) - g(t)) as (F, q, g), and their sum q(t) (S - W g(t)).
Floats are compared by identity of value: -0.0 is told from 0.0 by copysign
and NaN is matched by isnan.
"""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import FAMILY_ROWS, MATHIEU_FS
from psiest import (
    DomainError,
    FamilySpec,
    InvalidArgument,
    OpenInterval,
    PsiKernel,
    WeightedSample,
    compile_expr,
    digamma,
    make_kernel,
    parse,
    solve_sign_change,
    weighted_sum,
)
from psiest.exprparse import compile_terms
from psiest.families import _FAMILIES, _ln_one_minus_pow, _pow
from psiest.kernel import _CAP, _clamp

LINE = OpenInterval(-math.inf, math.inf)
POSITIVE = OpenInterval(0.0, math.inf)


# The scalar closures, known parameter -> psi(x, t).
def _expectile(alpha):
    def ev(x, t):
        if x > t:
            return alpha * (x - t)
        if x < t:
            return (1.0 - alpha) * (x - t)
        return 0.0
    return ev


def _mathieu(f):
    def ev(x, t):
        if x == t:
            return 0.0
        return math.copysign(f(abs(x - t)), x - t)
    return ev


def _beta_beta(alpha):
    def ev(x, t):
        lx = math.log(x)
        u = math.exp(t * lx)  # x^t
        # 1 - x^t via expm1 to keep precision as t -> 0
        return 1.0 / t + lx * (1.0 - alpha * u) / (-math.expm1(t * lx))
    return ev


def _gamma_shape(lam):
    log_lam = math.log(lam)

    def ev(x, t):
        d = digamma(t)
        return -d + math.log(x) + log_lam
    return ev


SCALAR = {
    "expectile": _expectile,
    "mathieu": _mathieu,
    "normal_var": lambda m: (lambda x, t: (_pow(x - m, 2) - t) / (2.0 * t * t)),
    "beta_alpha": lambda beta: (lambda x, t: 1.0 / t + _ln_one_minus_pow(x, beta)),
    "beta_beta": _beta_beta,
    "gamma_shape": _gamma_shape,
    "gamma_rate": lambda p: (lambda x, t: p / t - x),
    "lomax_rate_lambda": lambda alpha: (lambda x, t: (alpha * x - t) / (t * (t + x))),
    "lomax_shape_alpha": lambda lam: (lambda x, t: 1.0 / t - math.log1p(x / lam)),
    "lognormal_mu": lambda sigma2: (lambda x, t: (math.log(x) - t) / sigma2),
    "laplace_scale": lambda mu: (lambda x, t: abs(x - mu) / (t * t) - 1.0 / t),
}


def reference_weighted_sum(kernel: PsiKernel, sample: WeightedSample, t: float) -> float:
    """weighted_sum as one eval call per term."""
    kernel.check_parameter(t)
    sample.check(kernel)
    ev = kernel.eval
    total = 0.0
    for x, w in zip(sample._live_xs, sample._live_weights):
        v = ev(x, t)
        if v > _CAP:
            v = _CAP
        elif v < -_CAP:
            v = -_CAP
        v *= w
        if v > _CAP:
            v = _CAP
        elif v < -_CAP:
            v = -_CAP
        total += v
    return _clamp(total)


# The seven affine rows psi = q(t) (F(x) - g(t)): known value -> (F, q, g).
AFFINE = {
    "normal_var": lambda m: (lambda x: _pow(x - m, 2), lambda t: 1.0 / (2.0 * t * t),
                             lambda t: t),
    "laplace_scale": lambda mu: (lambda x: abs(x - mu), lambda t: 1.0 / (t * t),
                                 lambda t: t),
    "lognormal_mu": lambda sigma2: (math.log, lambda t: 1.0 / sigma2, lambda t: t),
    "beta_alpha": lambda beta: (lambda x: _ln_one_minus_pow(x, beta), lambda t: 1.0,
                                lambda t: -1.0 / t),
    "gamma_rate": lambda p: (lambda x: x, lambda t: -1.0, lambda t: p / t),
    "lomax_shape_alpha": lambda lam: (lambda x: math.log1p(x / lam), lambda t: -1.0,
                                      lambda t: 1.0 / t),
    "gamma_shape": lambda lam: (math.log, lambda t: 1.0,
                                lambda t: digamma(t) - math.log(lam)),
}


def reference_affine_sum(reference: PsiKernel, affine, xs, weights, t: float) -> float:
    """weighted_sum on an affine row: q(t) (S - W g(t)) clamped to +-1e300,
    S = fsum of w F(x) and W = fsum of w over the positive weights; the
    per-term loop where S or W is not finite, fsum raises, or the value is
    NaN."""
    F, q, g = affine
    reference.check_parameter(t)
    for x in xs:
        reference.check_observation(x)
    live = [(x, w) for x, w in zip(xs, weights) if w > 0.0]
    try:
        s = math.fsum([w * F(x) for x, w in live])
        total_w = math.fsum([w for _, w in live])
    except (OverflowError, ValueError):
        s = total_w = math.nan
    if math.isfinite(s) and math.isfinite(total_w):
        total = q(t) * (s - total_w * g(t))
        if not math.isnan(total):
            return _clamp(total)
    return reference_weighted_sum(reference, WeightedSample(xs, weights), t)


def _key(v):
    """A float as (NaN, sign, value): equal keys are the same float, -0.0
    apart from 0.0 and every NaN alike."""
    return (True, 0.0, 0.0) if math.isnan(v) else (False, math.copysign(1.0, v), v)


def _outcome(fn):
    """The float keys fn returns, or the type and message of what it raises."""
    try:
        got = fn()
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc))
    return [_key(v) for v in got] if isinstance(got, list) else _key(got)


# Weights: unit, integer and zero, at least one positive.
WEIGHTS = st.sampled_from((0.0, 1.0, 1.0, 2.0, 3.0, 7.0))


@st.composite
def family_cases(draw):
    """(new kernel, scalar-closure kernel, xs, weights, t, affine) for a
    family row at a drawn known value, affine its (F, q, g) from AFFINE or
    None.  t is drawn from a wide range, one of the xs (a kink), or a value
    so small or large that terms overflow, clamp or divide by zero."""
    family, key, known, (lo, hi) = draw(st.sampled_from(FAMILY_ROWS))
    if key is None:
        v = MATHIEU_FS[draw(st.integers(0, len(MATHIEU_FS) - 1))]
        kernel = make_kernel(FamilySpec(family, {}, f=v))
    else:
        v = draw(st.floats(*known))
        kernel = make_kernel(FamilySpec(family, {key: v}))
    xs = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    weights = draw(st.lists(WEIGHTS, min_size=len(xs), max_size=len(xs)).filter(any))
    positive = kernel.theta.lo == 0.0
    wide = st.floats(1e-3, 60.0) if positive else st.floats(-60.0, 60.0)
    extreme = st.sampled_from((1e-300, 1e-160, 5e-324, 1e150, 1e300) if positive
                              else (-1e300, -1e150, 1e150, 1e300))
    t = draw(st.one_of(wide, st.sampled_from(xs), extreme))
    if not kernel.theta.contains(t):
        t = abs(t) or 1.0
    reference = PsiKernel(kernel.theta, SCALAR[family](v),
                          domain_check=kernel.domain_check, name=kernel.name)
    affine = AFFINE[family](v) if family in AFFINE else None
    return kernel, reference, tuple(xs), tuple(weights), t, affine


def _expr_kernel(source, theta):
    e = parse(source)
    return PsiKernel(theta, compile_expr(e), terms=compile_terms(e),
                     domain_check=math.isfinite)


# The estimate_bulk expression kernels, and expressions whose values
# overflow to +-inf, are NaN, or raise a DomainError at some x.
EXPRESSIONS = [
    ("abs(x)/(t*t) - 1/t", POSITIVE),
    ("(x^2 - t)/(2*t*t)", POSITIVE),
    ("exp(x - t) - 1", LINE),
    ("exp(x*x) - exp(t*t)", LINE),
    ("ln(x - t)", LINE),
    ("sqrt(t - x) - 1", LINE),
    ("x ^ t - 1", LINE),
]


@st.composite
def expression_cases(draw):
    source, theta = draw(st.sampled_from(EXPRESSIONS))
    xs = draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8))
    weights = draw(st.lists(WEIGHTS, min_size=len(xs), max_size=len(xs)).filter(any))
    t = draw(st.one_of(st.floats(1e-3, 40.0), st.sampled_from(xs)))
    if not theta.contains(t):
        t = abs(t) or 1.0
    kernel = _expr_kernel(source, theta)
    reference = PsiKernel(theta, compile_expr(parse(source)),
                          domain_check=math.isfinite)
    return kernel, reference, tuple(xs), tuple(weights), t, None


def _raising_at(k):
    """x - t, but raising DomainError at the k-th call in a row of xs."""
    def ev(x, t):
        if x == float(k):
            raise DomainError(f"psi undefined at x={x!r}")
        return x - t
    return ev


# Kernels given by eval alone: the row's terms are [eval(x, t) for x in cs].
PLAIN = [
    PsiKernel(LINE, lambda x, t: x - t),
    PsiKernel(LINE, lambda x, t: 1e308 * (x - t)),  # clamped terms
    PsiKernel(LINE, lambda x, t: math.inf if x > t else -math.inf),
    PsiKernel(LINE, lambda x, t: math.nan if x == 2.0 else x - t),
    PsiKernel(LINE, lambda x, t: -0.0 if x == t else x - t),
    PsiKernel(LINE, _raising_at(3)),
]


@st.composite
def plain_cases(draw):
    kernel = draw(st.sampled_from(PLAIN))
    xs = draw(st.lists(st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0, 4.5, -7.0)),
                       min_size=1, max_size=8))
    weights = draw(st.lists(WEIGHTS, min_size=len(xs), max_size=len(xs)).filter(any))
    t = draw(st.sampled_from((0.0, -0.0, 1.0, 2.5, -3.0, 1e300)))
    return kernel, kernel, tuple(xs), tuple(weights), t, None


ALL_CASES = st.one_of(family_cases(), expression_cases(), plain_cases())


class TestTermsBitwise:
    @given(ALL_CASES)
    def test_terms_are_pointwise_psi(self, case):
        kernel, reference, xs, _, t, _ = case
        for x in xs:
            if not kernel.domain_check(x):
                return
        batched = _outcome(lambda: kernel.terms(kernel.columns(xs), t))
        assert batched == _outcome(lambda: [kernel.eval(x, t) for x in xs])
        assert batched == _outcome(lambda: [reference.eval(x, t) for x in xs])

    @given(ALL_CASES)
    def test_weighted_sum_is_the_per_term_loop(self, case):
        # the loop for a kernel without (q, g), q(t) (S - W g(t)) for the
        # seven with
        kernel, reference, xs, weights, t, affine = case
        assert (kernel._affine is None) == (affine is None)
        sample = WeightedSample(xs, weights)
        got = _outcome(lambda: weighted_sum(kernel, sample, t))
        if affine is None:
            want = _outcome(lambda: reference_weighted_sum(
                reference, WeightedSample(xs, weights), t))
        else:
            want = _outcome(lambda: reference_affine_sum(reference, affine, xs, weights, t))
        assert got == want
        # a second sum reads the columns, or the sums, kept on the sample
        assert _outcome(lambda: weighted_sum(kernel, sample, t)) == want


class TestTermsExamples:
    def test_raises_at_the_kth_x(self):
        k = PsiKernel(LINE, _raising_at(3))
        sample = WeightedSample((1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match=r"psi undefined at x=3\.0"):
            weighted_sum(k, sample, 0.5)
        # zero weight: never evaluated
        assert weighted_sum(k, WeightedSample((1.0, 3.0), (1.0, 0.0)), 0.5) == 0.5

    def test_expression_raises_at_its_node(self):
        k = _expr_kernel("ln(x - t)", LINE)
        with pytest.raises(DomainError, match="at offset 0: ln of nonpositive"):
            weighted_sum(k, WeightedSample.uniform((5.0, 1.0, 6.0)), 2.0)

    def test_gamma_shape_column_is_ln_x(self):
        # -d + ln x + ln lambda is (-d + ln x) + ln lambda: the hoisted
        # column is ln x alone, not F = ln x + ln lambda
        k = make_kernel(FamilySpec("gamma_shape", {"lambda": 3.7}))
        assert k.column is math.log
        for x, t in ((0.3, 0.7), (4.2, 12.5), (1.9, 3.0)):
            assert k.terms([math.log(x)], t) == [
                -digamma(t) + math.log(x) + math.log(3.7)]

    def test_column_needs_terms(self):
        with pytest.raises(InvalidArgument, match="a column needs its terms"):
            PsiKernel(LINE, lambda x, t: x - t, column=abs)

    def test_columns_computed_once_per_sample(self):
        calls = []

        def column(x):
            calls.append(x)
            return x

        k = PsiKernel(LINE, lambda x, t: x - t, column=column,
                      terms=lambda cs, t: [c - t for c in cs])
        sample = WeightedSample((1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
        assert [weighted_sum(k, sample, t) for t in (0.0, 1.0, 2.0)] == [7.0, 4.0, 1.0]
        assert calls == [1.0, 3.0]

    def test_replace_keeps_terms(self):
        k = PsiKernel(LINE, lambda x, t: x - t)
        swapped = dataclasses.replace(k, eval=lambda x, t: t - x)
        assert swapped.terms([1.0], 0.0) == [1.0]
        rederived = dataclasses.replace(k, eval=lambda x, t: t - x, terms=None)
        assert rederived.terms([1.0], 0.0) == [-1.0]


def _row(family):
    """(kernel, known value, observation range) of a family row at the
    middle of its known range."""
    _, key, known, obs = next(r for r in FAMILY_ROWS if r[0] == family)
    v = 0.5 * (known[0] + known[1])
    return make_kernel(FamilySpec(family, {key: v})), v, obs


class TestAffineSum:
    def test_the_seven_rows(self):
        rows = {f for f, row in _FAMILIES.items() if row.g is not None}
        assert rows == set(AFFINE)
        assert all(_FAMILIES[f].q is not None for f in rows)
        assert {f for f, row in _FAMILIES.items() if row.F_inv is not None} == (
            rows - {"gamma_shape"})

    @given(st.sampled_from(sorted(AFFINE)), st.data())
    def test_F_inv_inverts_g(self, family, data):
        # (q, g) and F_inv sit side by side in a row: g must not drift from
        # the inverse of F_inv over Theta
        row = _FAMILIES[family]
        _, key, known, _ = next(r for r in FAMILY_ROWS if r[0] == family)
        v = data.draw(st.floats(*known))
        lo = -1e300 if row.theta.lo == -math.inf else 1e-300
        t = data.draw(st.floats(lo, 1e300))
        if row.F_inv is None:  # gamma_shape: no psi_0 inverse yet
            return
        back = row.F_inv(row.g(t, v), v)
        assert abs(back - t) <= 4.0 * math.ulp(t)

    @pytest.mark.parametrize("family", sorted(AFFINE))
    def test_solve_makes_no_terms_call(self, family):
        kernel, _, (lo, hi) = _row(family)
        calls = []
        terms = kernel.terms

        def counted(cs, t):
            calls.append(t)
            return terms(cs, t)

        object.__setattr__(kernel, "terms", counted)
        xs = [lo + (hi - lo) * k / 40.0 for k in range(1, 40)]
        res = solve_sign_change(kernel, WeightedSample.uniform(xs))
        assert res.converged
        assert res.iterations > 1 and calls == []
        # the same terms without (q, g) are summed at every t
        plain = PsiKernel(kernel.theta, kernel.eval, domain_check=kernel.domain_check,
                          column=kernel.column, terms=counted)
        assert plain._affine is None
        solve_sign_change(plain, WeightedSample.uniform(xs))
        assert len(calls) > 1

    def test_replace_keeps_q_and_g_with_terms(self):
        # as the terms go, so do (q, g): a replaced eval sums as before
        kernel, _, _ = _row("laplace_scale")
        counted = dataclasses.replace(kernel, eval=lambda x, t: kernel.eval(x, t))
        assert counted._affine is kernel._affine is not None
        sample = WeightedSample.uniform((1.5, 2.5, 4.0))
        assert repr(weighted_sum(counted, sample, 2.0)) == repr(
            weighted_sum(kernel, sample, 2.0))
        assert dataclasses.replace(kernel, column=None, terms=None)._affine is None

    def test_sums_taken_once_per_column_function(self, monkeypatch):
        calls = []
        kernel, v, _ = _row("lognormal_mu")
        other, _, _ = _row("gamma_shape")  # the same column, math.log
        sample = WeightedSample((1.5, 2.5, 4.0), (1.0, 0.0, 2.0))
        real_fsum = math.fsum

        def fsum(values):
            calls.append(1)
            return real_fsum(values)

        monkeypatch.setattr(math, "fsum", fsum)
        for t in (0.1, 0.5, 1.0):
            weighted_sum(kernel, sample, t)
            weighted_sum(other, sample, t)
        monkeypatch.undo()
        assert len(calls) == 2  # S and W, once
        s = math.fsum([math.log(1.5), 2.0 * math.log(4.0)])
        assert sample._sums == {math.log: (s, 3.0)}
        assert weighted_sum(kernel, sample, 0.5) == (s - 3.0 * 0.5) / v
