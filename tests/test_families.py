import dataclasses
import math
import random
import zlib

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiest import (
    CLOSED_FORM_IDS,
    FAMILY_IDS,
    DomainError,
    FamilySpec,
    InvalidParameter,
    MissingClosedForm,
    OpenInterval,
    PsiKernel,
    SolverConfig,
    WeightedSample,
    beta_alpha_bounds,
    closed_form_estimate,
    digamma,
    make_kernel,
    solve_sign_change,
    weighted_sum,
)
from psiest.solver import expansion_reach


def solve(spec, xs, weights=None):
    k = make_kernel(spec)
    s = (WeightedSample.uniform(xs) if weights is None
         else WeightedSample(tuple(xs), tuple(weights)))
    res = solve_sign_change(k, s)
    assert res.converged, res.status
    return res.theta


def within(cfg, theta):
    """How far a converged solve may lie from its kernel's estimator formula:
    2 width_tol(theta) + 4 ulps of theta."""
    return 2.0 * cfg.width_tol(theta) + 4.0 * math.ulp(theta)


def _wmean(values, weights):
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += w * v
        den += w
    return num / den


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("nope", {})

    @pytest.mark.parametrize("family,params", [
        ("expectile", {"alpha": 0.0}),
        ("expectile", {"alpha": 1.0}),
        ("beta_alpha", {"beta": -1.0}),
        ("beta_beta", {"alpha": 0.0}),
        ("gamma_shape", {"lambda": 0.0}),
        ("gamma_rate", {"p": -2.0}),
        ("lomax_rate_lambda", {"alpha": 0.0}),
        ("lomax_shape_alpha", {"lambda": 0.0}),
        ("lognormal_mu", {"sigma2": 0.0}),
        ("normal_var", {}),
    ])
    def test_bad_parameters(self, family, params):
        with pytest.raises(InvalidParameter):
            FamilySpec(family, params)

    @pytest.mark.parametrize("family,key", [("expectile", "alpha"), ("beta_beta", "alpha")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_must_be_finite(self, family, key, value):
        # inf is > 0, so "must be > 0" would misreport it
        with pytest.raises(InvalidParameter,
                           match=rf"^{family}: {key}={value!r} must be finite$"):
            FamilySpec(family, {key: value})

    @pytest.mark.parametrize("family,params,f", [
        ("gamma_rate", {"p": 2.0, "q": 5.0}, None),
        ("expectile", {"alpha": 0.3, "beta": 1.0}, None),
        ("mathieu", {"p": 2.0}, lambda u: u),
    ])
    def test_unknown_parameter_key(self, family, params, f):
        with pytest.raises(InvalidParameter, match="has no parameter"):
            FamilySpec(family, params, f=f)

    def test_mathieu_requires_f(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("mathieu", {})

    def test_mathieu_rejects_nonzero_origin(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("mathieu", {}, f=lambda u: u + 1.0)

    def test_mathieu_rejects_decreasing(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("mathieu", {}, f=lambda u: -u)

    def test_mathieu_rejects_nan_everywhere(self):
        # abs(NaN) > 1e-12 and NaN <= NaN are both False, so a check written
        # as the failure to look for lets it through
        with pytest.raises(InvalidParameter):
            FamilySpec("mathieu", {}, f=lambda u: math.nan)

    def test_mathieu_rejects_nan_at_origin(self):
        with pytest.raises(InvalidParameter, match="f\\(0\\)"):
            FamilySpec("mathieu", {}, f=lambda u: math.nan if u == 0.0 else u)

    def test_mathieu_rejects_fall_hidden_by_nan(self):
        # f rises to 4.95, is NaN at the grid point 5, then restarts at 1.05
        def f(u):
            if 4.99 < u < 5.01:
                return math.nan
            return u - 4.0 if u >= 5.01 else u

        with pytest.raises(InvalidParameter, match="strictly increasing"):
            FamilySpec("mathieu", {}, f=f)


class TestKernelEvaluation:
    def test_expectile_upper_branch(self):
        k = make_kernel(FamilySpec("expectile", {"alpha": 0.25}))
        assert k.eval(4.0, 1.0) == pytest.approx(0.75)

    def test_expectile_at_kink(self):
        k = make_kernel(FamilySpec("expectile", {"alpha": 0.25}))
        assert k.eval(1.0, 1.0) == 0.0

    def test_beta_alpha_value(self):
        k = make_kernel(FamilySpec("beta_alpha", {"beta": 2.0}))
        assert k.eval(0.5, 1.0) == pytest.approx(1.0 + math.log(0.75), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1e-3, 1e-12, 1e-100])
    def test_beta_alpha_column_where_the_power_rounds_to_one(self, beta):
        # x**beta rounds to 1.0, so log1p(-x**beta) would be log1p(-1): the
        # column takes ln(-expm1(beta ln x)) there
        x = 0.9999999999999999
        assert math.exp(beta * math.log(x)) == 1.0
        k = make_kernel(FamilySpec("beta_alpha", {"beta": beta}))
        with mpmath.workdps(50):
            exact = mpmath.log(-mpmath.expm1(mpmath.mpf(beta) * mpmath.log(x)))
        assert k.column(x) == pytest.approx(float(exact), rel=1e-14)
        assert k.eval(x, 2.0) == 0.5 + k.column(x)

    def test_beta_alpha_column_of_zero_is_a_domain_error(self):
        # beta ln x underflows to 0, so 1 - x**beta is 0 even through expm1
        k = make_kernel(FamilySpec("beta_alpha", {"beta": 1e-310}))
        with pytest.raises(DomainError, match=r"x=0\.9999999999999999, beta=1e-310"):
            k.eval(0.9999999999999999, 1.0)

    def test_laplace_value(self):
        k = make_kernel(FamilySpec("laplace_scale", {"mu": 0.0}))
        assert k.eval(2.0, 1.0) == pytest.approx(1.0)

    def test_mathieu_sign_symmetry(self):
        k = make_kernel(FamilySpec("mathieu", {}, f=lambda u: u))
        assert k.eval(3.0, 1.0) == 2.0
        assert k.eval(1.0, 3.0) == -2.0
        assert k.eval(2.0, 2.0) == 0.0

    def test_power_overflow_is_infinite(self):
        # a float ** raises OverflowError past the largest double; the
        # power reads as inf there, as a product would
        nv = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        assert nv.eval(1e200, 1.0) == math.inf
        assert nv.d2(1e200, 1.0) == -math.inf
        assert nv.d2(1.0, 1e120) == 0.0
        lap = make_kernel(FamilySpec("laplace_scale", {"mu": 0.0}))
        assert lap.d2(1e120, 1e120) == 1e-240

    def test_normal_var_domain_excludes_mean(self):
        k = make_kernel(FamilySpec("normal_var", {"m": 1.0}))
        assert not k.domain_check(1.0)
        assert k.domain_check(0.5)

    def test_beta_domain(self):
        k = make_kernel(FamilySpec("beta_alpha", {"beta": 1.0}))
        assert not k.domain_check(0.0)
        assert not k.domain_check(1.0)
        assert k.domain_check(0.5)


class TestClosedForms:
    def test_gamma_rate(self):
        spec = FamilySpec("gamma_rate", {"p": 2.0})
        assert closed_form_estimate(spec, WeightedSample.uniform([1, 2, 3])) == \
            pytest.approx(1.0)

    def test_lognormal(self):
        spec = FamilySpec("lognormal_mu", {"sigma2": 1.0})
        xs = [1.0, math.e, math.e ** 2]
        assert closed_form_estimate(spec, WeightedSample.uniform(xs)) == \
            pytest.approx(1.0)

    def test_laplace(self):
        spec = FamilySpec("laplace_scale", {"mu": 0.0})
        assert closed_form_estimate(spec, WeightedSample.uniform([1, -2, 3])) == \
            pytest.approx(2.0)

    def test_zero_weight_terms_not_evaluated(self):
        # F(1e200) = inf would make the weighted mean NaN (0 * inf)
        spec = FamilySpec("normal_var", {"m": 0.0})
        s = WeightedSample((1e200, 1.0, 2.0), (0.0, 1.0, 1.0))
        assert closed_form_estimate(spec, s) == 2.5

    @pytest.mark.parametrize("family,params,xs", [
        ("normal_var", {"m": 0.0}, [1e200, 1.0]),
        ("laplace_scale", {"mu": -1e308}, [1e308]),
    ])
    def test_non_finite_mean_rejected(self, family, params, xs):
        # F(x) itself overflows
        with pytest.raises(DomainError, match="weighted mean"):
            closed_form_estimate(FamilySpec(family, params),
                                 WeightedSample.uniform(xs))

    @pytest.mark.parametrize("xs,weights,mean", [
        ((1e308, -1e308), (1.0, 1.0), 1e308),
        ((1e308, 1e308, -1e308), (1.0, 2.0, 1.0), 1e308),
        ((1.5e308, 0.5e308), (1.0, 1.0), 1e308),
        # the weights' total overflows too
        ((1e300, 3e300), (1e308, 1e308), 2e300),
        ((2.0, 4.0), (1e308, 1e308), 3.0),
    ])
    def test_overflowing_sum_recomputed(self, xs, weights, mean):
        spec = FamilySpec("laplace_scale", {"mu": 0.0})
        got = closed_form_estimate(spec, WeightedSample(xs, weights))
        assert got == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("family,params,F,F_inv", [
        ("normal_var", {"m": 0.5}, lambda x: (x - 0.5) ** 2, lambda y: y),
        ("laplace_scale", {"mu": -1.0}, lambda x: abs(x + 1.0), lambda y: y),
        ("lognormal_mu", {"sigma2": 2.0}, math.log, lambda y: y),
        ("gamma_rate", {"p": 3.0}, lambda x: x, lambda y: 3.0 / y)])
    def test_finite_mean_keeps_its_bits(self, family, params, F, F_inv):
        # one left-to-right pass where the mean is finite, as before
        xs, ws = (0.7, 2.5, 1.25, 9.0), (1.0, 3.0, 0.5, 2.0)
        num = den = 0.0
        for x, w in zip(xs, ws):
            num += w * F(x)
            den += w
        got = closed_form_estimate(FamilySpec(family, params), WeightedSample(xs, ws))
        assert got == F_inv(num / den)

    def test_no_closed_form(self):
        for family, params in [
            ("expectile", {"alpha": 0.5}),
            ("beta_beta", {"alpha": 1.0}),
            ("gamma_shape", {"lambda": 1.0}),
            ("lomax_rate_lambda", {"alpha": 1.0}),
        ]:
            assert family not in CLOSED_FORM_IDS
            with pytest.raises(MissingClosedForm):
                closed_form_estimate(FamilySpec(family, params),
                                     WeightedSample.uniform([0.5]))

    DRAWS = {
        "normal_var": ({"m": 1.0}, lambda r: r.uniform(1.01, 10)),
        "beta_alpha": ({"beta": 2.0}, lambda r: r.uniform(0.05, 0.95)),
        "gamma_rate": ({"p": 1.5}, lambda r: r.uniform(0.1, 10)),
        "lomax_shape_alpha": ({"lambda": 2.0}, lambda r: r.uniform(0.1, 10)),
        "lognormal_mu": ({"sigma2": 2.0}, lambda r: r.uniform(0.1, 10)),
        "laplace_scale": ({"mu": 0.0}, lambda r: r.uniform(0.1, 10)),
    }

    @pytest.mark.parametrize("family", sorted(DRAWS))
    def test_closed_form_matches_solver(self, family):
        params, draw = self.DRAWS[family]
        spec = FamilySpec(family, params)
        rng = random.Random(zlib.crc32(family.encode()))
        for _ in range(100):
            n = rng.randint(1, 50)
            xs = [draw(rng) for _ in range(n)]
            closed = closed_form_estimate(spec, WeightedSample.uniform(xs))
            solved = solve(spec, xs)
            assert abs(closed - solved) <= within(SolverConfig(), solved)

    # Today's closed forms and single-observation estimates, written out:
    # (params, draw, theta1(x, param), estimate(xs, ws, param)).
    PINNED = {
        "normal_var": (
            {"m": 1.0}, lambda r: r.uniform(-10, 10),
            lambda x, m: (x - m) ** 2,
            lambda xs, ws, m: _wmean([(x - m) ** 2 for x in xs], ws)),
        "beta_alpha": (
            {"beta": 2.5}, lambda r: r.uniform(0.01, 0.99),
            lambda x, b: -1.0 / math.log1p(-math.exp(b * math.log(x))),
            lambda xs, ws, b: -1.0 / _wmean(
                [math.log1p(-math.exp(b * math.log(x))) for x in xs], ws)),
        "gamma_rate": (
            {"p": 1.5}, lambda r: r.uniform(0.01, 20),
            lambda x, p: p / x,
            lambda xs, ws, p: p / _wmean(xs, ws)),
        "lomax_shape_alpha": (
            {"lambda": 2.0}, lambda r: r.uniform(0.01, 20),
            lambda x, lam: 1.0 / math.log1p(x / lam),
            lambda xs, ws, lam: 1.0 / _wmean([math.log1p(x / lam) for x in xs], ws)),
        "lognormal_mu": (
            {"sigma2": 2.0}, lambda r: r.uniform(0.01, 20),
            lambda x, s2: math.log(x),
            lambda xs, ws, s2: _wmean([math.log(x) for x in xs], ws)),
        "laplace_scale": (
            {"mu": -0.7}, lambda r: r.uniform(-10, 10),
            lambda x, mu: abs(x - mu),
            lambda xs, ws, mu: _wmean([abs(x - mu) for x in xs], ws)),
    }

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_values_pinned_exactly(self, family):
        params, draw, theta1_of, estimate_of = self.PINNED[family]
        (v,) = params.values()
        spec = FamilySpec(family, params)
        kernel = make_kernel(spec)
        rng = random.Random(family)
        for _ in range(200):
            n = rng.randint(1, 20)
            xs = [draw(rng) for _ in range(n)]
            ws = [rng.choice([0.0, 0.25, 1.0, 3.5]) for _ in range(n - 1)] + [1.0]
            for x in xs:
                assert kernel.theta1(x) == theta1_of(x, v)
            s = WeightedSample(tuple(xs), tuple(ws))
            assert closed_form_estimate(spec, s) == estimate_of(xs, ws, v)

    SPECS = {
        "expectile": FamilySpec("expectile", {"alpha": 0.4}),
        "mathieu": FamilySpec("mathieu", {}, f=lambda u: u),
        "normal_var": FamilySpec("normal_var", {"m": 0.0}),
        "beta_alpha": FamilySpec("beta_alpha", {"beta": 2.0}),
        "beta_beta": FamilySpec("beta_beta", {"alpha": 2.0}),
        "gamma_shape": FamilySpec("gamma_shape", {"lambda": 1.0}),
        "gamma_rate": FamilySpec("gamma_rate", {"p": 2.0}),
        "lomax_rate_lambda": FamilySpec("lomax_rate_lambda", {"alpha": 2.0}),
        "lomax_shape_alpha": FamilySpec("lomax_shape_alpha", {"lambda": 2.0}),
        "lognormal_mu": FamilySpec("lognormal_mu", {"sigma2": 1.0}),
        "laplace_scale": FamilySpec("laplace_scale", {"mu": 0.0}),
    }

    def test_catalog_covers_every_family(self):
        assert sorted(self.SPECS) == sorted(FAMILY_IDS)
        assert set(CLOSED_FORM_IDS) == set(self.PINNED)

    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_closed_form_exactly_when_declared(self, family):
        sample = WeightedSample.uniform([0.25, 0.5])
        if family in CLOSED_FORM_IDS:
            assert math.isfinite(closed_form_estimate(self.SPECS[family], sample))
        else:
            with pytest.raises(MissingClosedForm):
                closed_form_estimate(self.SPECS[family], sample)

    def test_weighted_extension(self):
        spec = FamilySpec("laplace_scale", {"mu": 0.0})
        s = WeightedSample((1.0, -3.0), (3.0, 1.0))
        closed = closed_form_estimate(spec, s)
        assert closed == pytest.approx((3 * 1 + 1 * 3) / 4)
        assert abs(closed - solve(spec, [1.0, -3.0], [3.0, 1.0])) <= 1e-8


def _spread(lo, hi, signed=False):
    """Floats m 10^e, m in [1, 10) and the integer e in [lo, hi], of either
    sign when signed: observations over many binades."""
    sign = st.sampled_from((-1.0, 1.0) if signed else (1.0,))
    return st.builds(lambda s, m, e: s * m * 10.0 ** e,
                     sign, st.floats(1.0, 10.0, exclude_max=True), st.integers(lo, hi))


# The rows with an estimator formula: (params, observations over X).  The
# magnitudes reach past where the estimate leaves expansion_reach (2^-100
# to 2^100), so both sides of that limit occur.
ESTIMATE_ROWS = {
    "expectile": (st.sampled_from((0.01, 0.3, 0.5, 0.7, 0.99)).map(
        lambda a: {"alpha": a}),
        st.one_of(st.floats(-10.0, 10.0), _spread(-40, 40, signed=True))),
    "normal_var": (st.just({"m": 0.5}),
                   st.one_of(st.floats(-10.0, 10.0), _spread(-20, 20, signed=True))),
    "beta_alpha": (st.sampled_from((0.5, 2.0)).map(lambda b: {"beta": b}),
                   st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             _spread(-60, -1), _spread(-16, -1).map(lambda u: 1.0 - u))),
    "gamma_rate": (st.just({"p": 1.5}),
                   st.one_of(st.floats(0.01, 20.0), _spread(-40, 40))),
    "lomax_shape_alpha": (st.just({"lambda": 2.0}),
                          st.one_of(st.floats(0.01, 20.0), _spread(-40, 300))),
    "lognormal_mu": (st.just({"sigma2": 2.0}),
                     st.one_of(st.floats(0.01, 20.0), _spread(-300, 300))),
    "laplace_scale": (st.just({"mu": -0.7}),
                      st.one_of(st.floats(-10.0, 10.0), _spread(-40, 40, signed=True))),
}


@st.composite
def estimate_cases(draw, family):
    """(kernel, sample, cfg) for a row with an estimator formula: 1..6
    observations in X, unit or integer weights 1..19, a tol of 1e-12, 1e-6
    or 1e-3."""
    params, obs = ESTIMATE_ROWS[family]
    kernel = make_kernel(FamilySpec(family, draw(params)))
    xs = draw(st.lists(obs.filter(kernel.domain_check), min_size=1, max_size=6))
    ws = draw(st.one_of(st.just([1.0] * len(xs)),
                        st.lists(st.integers(1, 19).map(float),
                                 min_size=len(xs), max_size=len(xs))))
    cfg = SolverConfig(draw(st.sampled_from((1e-12, 1e-6, 1e-3))))
    return kernel, WeightedSample(tuple(xs), tuple(ws)), cfg


class TestKernelEstimate:
    """PsiKernel._estimate, the estimator formula the comparison scans
    screen their solves with, against the solver it stands in for."""

    @pytest.mark.parametrize("family", sorted(ESTIMATE_ROWS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_solve_lies_within_bound(self, family, data):
        # wherever the estimate is finite and in reach, the solve converges
        # within 2 width_tol + 4 ulps of it
        kernel, sample, cfg = data.draw(estimate_cases(family))
        try:
            est = kernel._estimate(sample)
        except (DomainError, ArithmeticError):
            return
        lo, hi = expansion_reach(kernel.theta)
        if not lo < est < hi:
            return
        res = solve_sign_change(kernel, sample, cfg)
        assert res.converged, (res, est)
        assert abs(res.theta - est) <= within(cfg, res.theta), (res.theta, est)

    def test_rows_with_a_formula(self):
        for family, spec in TestClosedForms.SPECS.items():
            has = make_kernel(spec)._estimate is not None
            assert has == (family in ESTIMATE_ROWS), family
        assert set(ESTIMATE_ROWS) == {*CLOSED_FORM_IDS, "expectile"}

    def test_replaced_kernel_has_none(self):
        # another eval may be another psi, so a replaced kernel is solved
        for spec in TestClosedForms.SPECS.values():
            kernel = make_kernel(spec)
            assert dataclasses.replace(kernel, eval=kernel.eval)._estimate is None
        with pytest.raises(TypeError):
            PsiKernel(OpenInterval(0.0, 1.0), lambda x, t: x - t, _estimate=len)

    @pytest.mark.parametrize("alpha,xs,ws,theta", [
        # alpha = 1/2: the weighted mean
        (0.5, (0.0, 1.0, 2.0, 5.0), (1.0, 1.0, 1.0, 1.0), 2.0),
        # on [1, 2]: 0.3 (7 - 2t) + 0.7 (1 - 2t) = 0
        (0.3, (5.0, 0.0, 2.0, 1.0), (1.0, 1.0, 1.0, 1.0), 2.8 / 2.0),
        # 0.3 (5 - t) + 0.7 * 3 (0 - t) = 0
        (0.3, (0.0, 5.0), (3.0, 1.0), 1.5 / 2.4),
        # zero weight: left out
        (0.3, (0.0, 5.0, 1e300), (3.0, 1.0, 0.0), 1.5 / 2.4),
        (0.9, (-2.0,), (7.0,), -2.0),
        (0.2, (3.0, 3.0), (1.0, 5.0), 3.0),
    ])
    def test_expectile_exact(self, alpha, xs, ws, theta):
        kernel = make_kernel(FamilySpec("expectile", {"alpha": alpha}))
        est = kernel._estimate(WeightedSample(xs, ws))
        assert abs(est - theta) <= 2.0 * math.ulp(theta)

    @pytest.mark.parametrize("xs,ws,message", [
        # the sums cancel: the root 1/3 lies far below the largest |x|
        ((-1e10, 1e10, 1.0), (1.0, 1.0, 1.0), "sums cancel"),
        # w x overflows
        ((1e308, -1e308), (2.0, 1.0), "estimate is"),
    ])
    def test_expectile_declines(self, xs, ws, message):
        kernel = make_kernel(FamilySpec("expectile", {"alpha": 0.5}))
        with pytest.raises(DomainError, match=message):
            kernel._estimate(WeightedSample(xs, ws))


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) + 0.5772156649015329) <= 1e-12

    def test_at_two(self):
        assert abs(digamma(2.0) - (1.0 - 0.5772156649015329)) <= 1e-12

    def test_nonpositive(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.5)

    def test_recurrence(self):
        rng = random.Random(5)
        for _ in range(1000):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12

    def test_against_reference(self):
        rng = random.Random(6)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            assert abs(digamma(x) - float(mpmath.digamma(x))) <= 1e-12

    def test_gamma_shape_fixed_point(self):
        lam = 1.5
        spec = FamilySpec("gamma_shape", {"lambda": lam})
        xs = [0.7, 1.3, 2.9]
        t = solve(spec, xs)
        target = math.log(lam) + sum(math.log(x) for x in xs) / len(xs)
        assert abs(digamma(t) - target) <= 1e-8


class TestBetaBounds:
    def test_alpha_one_coincide(self):
        s = WeightedSample.uniform([math.exp(-1.0)] * 2)
        lo, hi = beta_alpha_bounds(1.0, s)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_alpha_two(self):
        s = WeightedSample.uniform([math.exp(-1.0)] * 2)
        assert beta_alpha_bounds(2.0, s) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_alpha_half(self):
        s = WeightedSample.uniform([math.exp(-2.0)] * 2)
        assert beta_alpha_bounds(0.5, s) == (pytest.approx(0.25), pytest.approx(0.5))

    def test_rejects_outside_unit(self):
        with pytest.raises(DomainError):
            beta_alpha_bounds(1.0, WeightedSample.uniform([1.5]))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_alpha(self, alpha):
        # inf is > 0, and would make the upper end of the bracket inf
        with pytest.raises(InvalidParameter, match=rf"^alpha={alpha!r} must be finite$"):
            beta_alpha_bounds(alpha, WeightedSample.uniform([0.3, 0.5]))

    def test_estimate_inside_bounds_random(self):
        rng = random.Random(9)
        for _ in range(200):
            alpha = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            n = rng.randint(1, 8)
            xs = [rng.uniform(0.05, 0.95) for _ in range(n)]
            s = WeightedSample.uniform(xs)
            lo, hi = beta_alpha_bounds(alpha, s)
            spec = FamilySpec("beta_beta", {"alpha": alpha})
            t = solve(spec, xs)
            pad = 1e-9 * (1.0 + abs(hi))
            assert lo - pad <= t <= hi + pad
            # the estimate satisfies its own estimating equation
            k = make_kernel(spec)
            assert abs(weighted_sum(k, s, t)) <= 1e-8 * len(xs)

    def test_alpha_one_exact_limit(self):
        xs = [0.2, 0.5, 0.8]
        t = solve(FamilySpec("beta_beta", {"alpha": 1.0}), xs)
        expected = -len(xs) / sum(math.log(x) for x in xs)
        assert abs(t - expected) <= 1e-9

    def test_width_shrinks_towards_alpha_one(self):
        xs = [0.3, 0.6]
        s = WeightedSample.uniform(xs)
        prev = math.inf
        for k in range(1, 21):
            alpha = 1.0 + 2.0 ** -k
            lo, hi = beta_alpha_bounds(alpha, s)
            width = hi - lo
            assert width < prev
            prev = width
        assert prev <= 1e-5


class TestMiscProperties:
    def test_expectile_monotone_in_alpha(self):
        xs = [0.0, 1.0, 3.0, 7.0]
        thetas = [solve(FamilySpec("expectile", {"alpha": a / 10.0}), xs)
                  for a in range(1, 10)]
        assert all(b >= a - 1e-10 for a, b in zip(thetas, thetas[1:]))

    def test_lomax_lambda_equation(self):
        alpha = 1.5
        xs = [0.5, 1.2, 4.0]
        t = solve(FamilySpec("lomax_rate_lambda", {"alpha": alpha}), xs)
        lhs = alpha / (alpha + 1.0)
        rhs = t / len(xs) * sum(1.0 / (x + t) for x in xs)
        assert abs(lhs - rhs) <= 1e-8
