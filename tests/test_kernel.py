import ast
import math
import os
import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiest import (
    BajraktarevicSpec,
    DomainError,
    FamilySpec,
    InvalidArgument,
    InvalidParameter,
    OpenInterval,
    PsiKernel,
    WeightedSample,
    digamma,
    empirical_theta1_hull,
    make_kernel,
    solve_sign_change,
    theta1,
    validate_monotone,
    weighted_sum,
)
from psiest.kernel import (
    _ADD_IN_C_MIN, _add, _clamp, _column_sums, _uniform, _weighted_mean, rises)


def reference_probe_window(lo, hi):
    """OpenInterval.probe_window as it was before it kept its window inside
    next to a huge end."""
    if not math.isfinite(lo):
        lo = (hi - 200.0) if math.isfinite(hi) else -100.0
    if not math.isfinite(hi):
        hi = lo + 200.0
    width = hi - lo
    margin = 1e-6 * width if math.isfinite(width) else 1e-6 * hi - 1e-6 * lo
    return lo + margin, hi - margin


def expectile(alpha):
    return make_kernel(FamilySpec("expectile", {"alpha": alpha}))


class TestOpenInterval:
    def test_contains(self):
        iv = OpenInterval(0.0, 1.0)
        assert iv.contains(0.5)
        assert not iv.contains(0.0)
        assert not iv.contains(1.0)

    def test_unbounded(self):
        iv = OpenInterval(-math.inf, math.inf)
        assert iv.contains(1e300)
        assert not iv.bounded

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidArgument):
            OpenInterval(1.0, 1.0)
        with pytest.raises(InvalidArgument):
            OpenInterval(2.0, 1.0)

    @pytest.mark.parametrize("lo,hi,window", [
        (0.0, 1.0, (1e-6, 1.0 - 1e-6)),
        (-math.inf, math.inf, (-100.0 + 2e-4, 100.0 - 2e-4)),
        (0.0, math.inf, (2e-4, 200.0 - 2e-4)),
        (-math.inf, 1.0, (-199.0 + 2e-4, 1.0 - 2e-4)),
    ])
    def test_probe_window(self, lo, hi, window):
        got = OpenInterval(lo, hi).probe_window()
        assert got == pytest.approx(window, rel=1e-15, abs=1e-15)

    def test_probe_grid_spans_window(self):
        iv = OpenInterval(0.0, math.inf)
        grid = iv.probe_grid(5)
        assert (grid[0], grid[-1]) == iv.probe_window()
        assert all(iv.contains(t) for t in grid)
        assert grid == sorted(grid)

    @pytest.mark.parametrize("lo,hi,seed", [
        (0.0, math.inf, 1.0),
        (-math.inf, 3.0, 2.0),
        (2.0 ** 53 - 1.0, math.inf, 2.0 ** 53),
        (1e20, math.inf, math.nextafter(1e20, math.inf)),
        (-math.inf, -1e20, math.nextafter(-1e20, -math.inf)),
        (-math.inf, 1e300, math.nextafter(1e300, -math.inf)),
    ])
    def test_midpoint_seed_half_line(self, lo, hi, seed):
        # 1.0 from the finite end, or one ulp where 1.0 would round away
        got = OpenInterval(lo, hi).midpoint_seed()
        assert got == seed
        assert OpenInterval(lo, hi).contains(got)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_probe_grid_needs_two_points(self, n):
        with pytest.raises(InvalidArgument):
            OpenInterval(0.0, 1.0).probe_grid(n)

    @pytest.mark.parametrize("lo,hi", [
        (-1e308, 1e308), (-1e308, 8e307), (-sys.float_info.max, sys.float_info.max),
        (0.0, 1e308), (-1e307, 1e307)])
    def test_window_wider_than_the_largest_double(self, lo, hi):
        # hi - lo, or (hi - lo) times 512, the step count, overflows
        iv = OpenInterval(lo, hi)
        a, b = iv.probe_window()
        assert lo < a < b < hi
        grid = iv.probe_grid(513)
        assert all(map(math.isfinite, grid)) and grid == sorted(grid)
        assert (grid[0], grid[-1]) == (a, b)
        assert all(a <= t <= b for t in grid)
        assert validate_monotone(lambda t: t, iv)
        assert not validate_monotone(lambda t: -t, iv)

    @pytest.mark.parametrize("lo,hi", [
        (-math.inf, 1e19), (1e20, math.inf), (-math.inf, 1e15), (-1e20, math.inf),
        (-math.inf, -1e20), (-math.inf, 2.0 ** 61), (-1e308, math.inf),
        (1e15, 1e15 + 1.0), (1.0, 1.0 + 4.0 * sys.float_info.epsilon),
        (math.nextafter(math.nextafter(sys.float_info.max, 0.0), 0.0), math.inf)])
    def test_window_next_to_a_huge_end(self, lo, hi):
        # 200 or the 1e-6 margin below an ulp of the end: the window used to
        # collapse to one point, or end on the interval's own open end
        iv = OpenInterval(lo, hi)
        a, b = iv.probe_window()
        assert lo < a < b < hi
        grid = iv.probe_grid(513)
        assert grid == sorted(grid) and all(map(iv.contains, grid))
        if b - a > 512 * math.ulp(b):  # room for 513 distinct probes
            assert validate_monotone(lambda t: t, iv)
        assert not validate_monotone(lambda t: -t, iv)

    @pytest.mark.parametrize("lo,hi", [
        (1.0, math.nextafter(1.0, 2.0)),  # no double inside
        (1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)),  # one
        (sys.float_info.max, math.inf)])  # none finite
    def test_window_of_fewer_than_two_doubles(self, lo, hi):
        # no window can be two points inside: the first window is kept
        assert OpenInterval(lo, hi).probe_window() == reference_probe_window(lo, hi)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_window_kept_where_it_lies_inside(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if not lo < hi:
            return
        want = reference_probe_window(lo, hi)
        got = OpenInterval(lo, hi).probe_window()
        if lo < want[0] < want[1] < hi:
            assert repr(got) == repr(want)
        else:
            assert lo < got[0] < got[1] < hi or got == want

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2 ** 32))
    def test_uniform_draws_as_random_uniform(self, a, b, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        got, want = _uniform(ours, a, b), theirs.uniform(a, b)
        if math.isfinite(b - a):
            assert repr(got) == repr(want)
        else:  # random.uniform gives inf, -inf or NaN here
            assert math.isfinite(got) and min(a, b) <= got <= max(a, b)
        assert ours.random() == theirs.random()  # the same one draw taken


class TestWeightedSample:
    def test_valid(self):
        s = WeightedSample((1, 2), (1.0, 0.5))
        assert len(s) == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            WeightedSample((1, 2), (1.0,))

    def test_empty(self):
        with pytest.raises(InvalidArgument):
            WeightedSample((), ())

    def test_negative_weight(self):
        with pytest.raises(InvalidArgument):
            WeightedSample((1,), (-1.0,))

    def test_all_zero_weights(self):
        with pytest.raises(InvalidArgument):
            WeightedSample((1, 2), (0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weight(self, bad):
        with pytest.raises(InvalidArgument):
            WeightedSample((1, 2), (1.0, bad))

    def test_uniform(self):
        s = WeightedSample.uniform([3, 4, 5])
        assert s.weights == (1.0, 1.0, 1.0)
        assert WeightedSample.uniform([2]).weights == (1.0,)
        with pytest.raises(InvalidArgument):
            WeightedSample.uniform([])


class TestWeightedSum:
    def test_expectile_symmetric(self):
        k = expectile(0.5)
        s = WeightedSample((1, 3), (1.0, 1.0))
        assert weighted_sum(k, s, 2.0) == 0.0

    def test_normal_var_zero_at_theta1(self):
        k = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        s = WeightedSample((1,), (1.0,))
        assert weighted_sum(k, s, 1.0) == 0.0

    def test_weighted_balance(self):
        # 0.5*(3*(0-1) + 1*(4-1)) = 0
        k = expectile(0.5)
        s = WeightedSample((0, 4), (3.0, 1.0))
        assert weighted_sum(k, s, 1.0) == 0.0

    def test_zero_weight_terms_not_evaluated(self):
        seen = []

        def ev(x, t):
            seen.append(x)
            return x - t

        k = PsiKernel(OpenInterval(-math.inf, math.inf), ev)
        s = WeightedSample((1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 2.0, 0.0))
        assert weighted_sum(k, s, 0.0) == 7.0
        assert seen == [1.0, 3.0]

    def test_parameter_outside_theta(self):
        k = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        with pytest.raises(DomainError):
            weighted_sum(k, WeightedSample((1,), (1.0,)), -1.0)

    def test_observation_outside_domain(self):
        k = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        with pytest.raises(DomainError):
            weighted_sum(k, WeightedSample((0.0,), (1.0,)), 1.0)

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_scaling_preserves_sign(self, c):
        k = expectile(0.3)
        s1 = WeightedSample((0, 1, 4), (1.0, 2.0, 0.5))
        s2 = WeightedSample((0, 1, 4), (c, 2.0 * c, 0.5 * c))
        for t in (-1.0, 0.5, 1.5, 3.0, 7.0):
            a = weighted_sum(k, s1, t)
            b = weighted_sum(k, s2, t)
            assert (a > 0) == (b > 0) and (a < 0) == (b < 0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_concat_additivity(self, xs1, xs2):
        k = expectile(0.4)
        s1 = WeightedSample.uniform(xs1)
        s2 = WeightedSample.uniform(xs2)
        both = WeightedSample.uniform(xs1 + xs2)
        for t in (-3.0, 0.0, 2.5):
            lhs = weighted_sum(k, both, t)
            rhs = weighted_sum(k, s1, t) + weighted_sum(k, s2, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_column_sums_are_weighted_sum(self, data):
        # psi(i, j) from a drawn table: term i's values along a grid 0..n-1,
        # summed over a unit-weight sample, the only kind the sign scan sums;
        # up to 2 * _ADD_IN_C_MIN terms, so weighted_sum's _add path runs too
        n = data.draw(st.integers(1, 5))
        terms = data.draw(st.integers(1, 2 * _ADD_IN_C_MIN))
        value = st.one_of(st.floats(), st.sampled_from((1e300, -1e300, 1e308, -0.0)))
        table = [data.draw(st.lists(value, min_size=n, max_size=n)) for _ in range(terms)]
        k = PsiKernel(OpenInterval(-1.0, math.inf), lambda x, t: table[int(x)][int(t)])
        sample = WeightedSample.uniform(tuple(range(terms)))
        columns = [[_clamp(v) for v in col] for col in table]
        got = _column_sums(columns, n)
        want = [weighted_sum(k, sample, float(j)) for j in range(n)]
        assert [repr(v) for v in got] == [repr(v) for v in want]


class TestValidateOnce:
    """A sample is checked against a kernel's domain once per domain check,
    not per term, and this must not let a bad observation through."""

    POSITIVE = make_kernel(FamilySpec("gamma_rate", {"p": 2.0}))

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0)])
    def test_bad_observation_raises(self, weights):
        # also when the bad observation has weight 0 and is never summed
        s = WeightedSample((1.0, -1.0), weights)
        for _ in range(2):
            with pytest.raises(DomainError, match="observation -1.0 outside X"):
                weighted_sum(self.POSITIVE, s, 1.0)

    def test_parameter_checked_every_call(self):
        s = WeightedSample((1.0, 2.0), (1.0, 1.0))
        weighted_sum(self.POSITIVE, s, 1.0)
        with pytest.raises(DomainError, match="parameter -1.0 outside Theta"):
            weighted_sum(self.POSITIVE, s, -1.0)

    def test_passing_one_domain_does_not_pass_another(self):
        s = WeightedSample((-1.0, 2.0), (1.0, 1.0))
        weighted_sum(expectile(0.5), s, 0.0)
        assert solve_sign_change(expectile(0.5), s).converged
        with pytest.raises(DomainError):
            weighted_sum(self.POSITIVE, s, 1.0)
        with pytest.raises(DomainError):
            solve_sign_change(self.POSITIVE, s)

    def test_domain_checked_once_per_sample(self):
        calls = []

        def check(x):
            calls.append(x)
            return True

        k = PsiKernel(OpenInterval(-math.inf, math.inf), lambda x, t: x - t,
                      domain_check=check)
        s = WeightedSample((1.0, 2.0, 3.0), (1.0, 0.0, 1.0))
        for t in (0.0, 1.0, 5.0):
            weighted_sum(k, s, t)
        assert calls == [1.0, 2.0, 3.0]
        fresh = WeightedSample((1.0, 2.0, 3.0), (1.0, 0.0, 1.0))
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)

    def test_gamma_shape_term_exact(self):
        lam = 2.5
        ev = make_kernel(FamilySpec("gamma_shape", {"lambda": lam})).eval
        ts = (0.7, 0.7, 3.0, 0.7, 3.0, 3.0, 12.5, 0.7)
        for t in ts:
            for x in (0.3, 1.0, 4.2):
                assert ev(x, t) == -digamma(t) + math.log(x) + math.log(lam)


class TestEmpiricalHull:
    def test_expectile_identity(self):
        hull = empirical_theta1_hull(expectile(0.3), [1, 2, 5])
        assert (hull.lo, hull.hi) == (1.0, 5.0)

    def test_degenerate(self):
        assert empirical_theta1_hull(expectile(0.3), [2, 2, 2]) is None

    def test_lomax_scaling(self):
        k = make_kernel(FamilySpec("lomax_rate_lambda", {"alpha": 2.0}))
        hull = empirical_theta1_hull(k, [1, 3])
        assert (hull.lo, hull.hi) == (2.0, 6.0)

    def test_solved_theta1(self):
        # beta_beta has no closed-form theta1: the hull spans the solved ones
        k = make_kernel(FamilySpec("beta_beta", {"alpha": 1.0}))
        solved = [theta1(k, x) for x in (0.2, 0.5, 0.9)]
        hull = empirical_theta1_hull(k, [0.5, 0.9, 0.2])
        assert (hull.lo, hull.hi) == (min(solved), max(solved))


class TestZeroAtTheta1:
    """Kernels with a closed-form single-observation estimator vanish there."""

    CASES = [
        (FamilySpec("expectile", {"alpha": 0.3}), lambda r: r.uniform(-10, 10)),
        (FamilySpec("normal_var", {"m": 1.0}), lambda r: r.uniform(1.01, 9)),
        (FamilySpec("beta_alpha", {"beta": 2.0}), lambda r: r.uniform(0.05, 0.95)),
        (FamilySpec("gamma_rate", {"p": 1.5}), lambda r: r.uniform(0.1, 20)),
        (FamilySpec("lomax_rate_lambda", {"alpha": 1.5}), lambda r: r.uniform(0.1, 20)),
        (FamilySpec("lomax_shape_alpha", {"lambda": 2.0}), lambda r: r.uniform(0.1, 20)),
        (FamilySpec("lognormal_mu", {"sigma2": 2.0}), lambda r: r.uniform(0.1, 20)),
        (FamilySpec("laplace_scale", {"mu": 0.0}), lambda r: r.uniform(0.1, 20)),
    ]

    @pytest.mark.parametrize("spec,draw", CASES,
                             ids=[c[0].family for c in CASES])
    def test_residual_at_theta1(self, spec, draw):
        rng = random.Random(7)
        k = make_kernel(spec)
        for _ in range(1000):
            x = draw(rng)
            t1 = k.theta1(x)
            if not k.theta.contains(t1):
                continue
            val = k.eval(x, t1)
            assert abs(val) <= 1e-10 * (1.0 + abs(t1))


# The three monotonicity validators that kernel.rises replaced, kept verbatim
# as references (validate_monotone takes the compiled f(x, t) in place of
# the expression it used to compile; the first line of its body is dropped).

def reference_spec_check(f, theta):
    """BajraktarevicSpec.__post_init__, with f and theta for self.f and
    self.theta."""
    probes = theta.probe_grid(33)
    vals = [f(t) for t in probes]
    for t, v in zip(probes, vals):
        if math.isnan(v):
            raise InvalidArgument(f"f({t!r}) is NaN")
    if vals[-1] <= vals[0] or any(
        b < a - 1e-13 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])
    ):
        raise InvalidArgument("f must be strictly increasing on theta")


def reference_validate_increasing(spec):
    """families._validate_increasing (mathieu)."""
    f = spec.f
    if f is None:
        raise InvalidParameter(
            f"{spec.family} requires an increasing function f with f(0)=0")
    if abs(f(0.0)) > 1e-12:
        raise InvalidParameter(f"{spec.family}: f(0) must be 0")
    grid = [0.05 * k for k in range(0, 201)]
    vals = [f(u) for u in grid]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise InvalidParameter(
            f"{spec.family}: f must be strictly increasing on [0, 10]")


def reference_validate_monotone(f, theta):
    """exprparse.validate_monotone(e, theta) with f = compile_expr(e)."""
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


def outcome(call):
    """What call() returns, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # compared by type with the reference
        return type(exc)


def nan_probed(f, points):
    """Whether f is NaN at one of points before the first that raises."""
    for u in points:
        try:
            if math.isnan(f(u)):
                return True
        except Exception:
            return False
    return False


MATHIEU_PROBES = [0.0] + [0.05 * k for k in range(201)]


@st.composite
def user_functions(draw):
    """An f of t: slope*t + amp*atan((t - c)/w), strictly increasing, then
    reshaped by one of: nothing, a flat stretch dipping up to 2e-13
    relative, negation, a floor step, a NaN hole (optionally hiding a fall),
    +inf beyond a point, or a DomainError beyond a point."""
    slope = draw(st.sampled_from([0.0, 1e-3, 1.0, 7.5]))
    amp = draw(st.sampled_from([0.0, 1.0, 50.0])) if slope else 1.0
    c = draw(st.floats(-30.0, 30.0))
    w = draw(st.floats(0.1, 50.0))

    def base(t):
        return slope * t + amp * math.atan((t - c) / w)

    kind = draw(st.sampled_from(
        ["increasing", "flat", "decreasing", "step", "nan_hole", "saturates",
         "raises"]))
    if kind == "increasing":
        return kind, base
    if kind == "decreasing":
        return kind, lambda t: -base(t)
    if kind == "step":
        h = draw(st.floats(0.01, 20.0))
        return kind, lambda t: base(math.floor(t / h) * h)
    if kind == "flat":
        d = c + draw(st.floats(0.0, 60.0))
        dip = draw(st.floats(0.0, 2.0)) * 1e-13 * max(1.0, abs(base(c)))

        def flat(t):
            if t < c:
                return base(t)
            if t < d:
                return base(c) - dip
            return base(t) - base(d) + base(c)
        return kind, flat
    if kind == "nan_hole":
        r = draw(st.floats(1e-3, 5.0))
        drop = draw(st.sampled_from([0.0, 0.5, 1e3]))
        return kind, lambda t: (math.nan if abs(t - c) < r
                                else base(t) - (drop if t > c else 0.0))
    if kind == "saturates":
        return kind, lambda t: math.inf if t > c else base(t)

    def raises(t):
        if t > c:
            raise DomainError(f"f({t!r}) undefined")
        return base(t)
    return kind, raises


@st.composite
def thetas(draw):
    """Bounded, half-line and whole-line intervals."""
    lo = draw(st.floats(-50.0, 50.0))
    hi = lo + draw(st.floats(1e-3, 100.0))
    shape = draw(st.sampled_from(["bounded", "left", "right", "line"]))
    if shape == "left":
        lo = -math.inf
    elif shape == "right":
        hi = math.inf
    elif shape == "line":
        lo, hi = -math.inf, math.inf
    return OpenInterval(lo, hi)


class TestRises:
    """kernel.rises is the one monotonicity check; each caller keeps its
    points and tolerance, so it agrees with the validator it replaced."""

    @pytest.mark.parametrize("vals", [
        [math.nan, 1.0, 2.0], [0.0, math.nan, 2.0], [0.0, 1.0, math.nan],
        [math.nan, math.nan]])
    @pytest.mark.parametrize("flat", [0.0, 1e-13])
    def test_nan_anywhere_fails(self, vals, flat):
        assert not rises(vals.__getitem__, range(len(vals)), flat)

    def test_strict_and_flat(self):
        vals = [0.0, 1.0, 1.0 - 5e-14, 2.0]
        assert not rises(vals.__getitem__, range(4))
        assert rises(vals.__getitem__, range(4), flat=1e-13)
        assert not rises(vals.__getitem__, range(4), flat=1e-14)

    def test_overall_rise_needed(self):
        assert not rises([1.0, 1.0].__getitem__, range(2), flat=1e-13)

    def test_saturating_at_inf(self):
        vals = [0.0, 1.0, math.inf, math.inf]
        assert rises(vals.__getitem__, range(4), flat=1e-13)
        assert not rises(vals.__getitem__, range(4))

    def test_fall_from_inf_fails(self):
        vals = [0.0, math.inf, 1.0, 2.0]
        assert not rises(vals.__getitem__, range(4), flat=1e-13)

    def test_one_evaluation_per_point(self):
        seen = []
        rises(lambda t: seen.append(t) or t, [3.0, 1.0, 2.0])
        assert seen == [3.0, 1.0, 2.0]

    @settings(max_examples=300, deadline=None)
    @given(user_functions(), thetas())
    def test_callers_match_references(self, drawn, theta):
        kind, f = drawn
        # BajraktarevicSpec: same verdict and exception type
        new = outcome(lambda: BajraktarevicSpec(
            f, lambda x: 1.0, lambda x: x, theta) and None)
        assert new == outcome(lambda: reference_spec_check(f, theta)), kind

        # validate_monotone: same verdict and exception type
        assert outcome(lambda: validate_monotone(f, theta)) == outcome(
            lambda: reference_validate_monotone(lambda x, t: f(t), theta)), kind

        # mathieu, on f and on f shifted to f(0) = 0: the same unless a
        # probed value is NaN, which is now rejected
        f0 = outcome(lambda: f(0.0))
        shifted = (lambda u: f(u) - f0) if isinstance(f0, float) else f
        for g in (f, shifted):
            new = outcome(lambda: FamilySpec("mathieu", {}, f=g) and None)
            if nan_probed(g, MATHIEU_PROBES):
                assert new is InvalidParameter, kind
            else:
                spec = types.SimpleNamespace(family="mathieu", f=g)
                assert new == outcome(
                    lambda: reference_validate_increasing(spec)), kind


def reference_weighted_mean(values, weights) -> float:
    """The weighted mean as explicit loops: kernel._weighted_mean must give
    the same float."""
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += w * v
        den += w
    mean = num / den
    if (math.isfinite(mean) and math.isfinite(den)) or not all(
            math.isfinite(v) for v in values):
        return mean
    top = max(weights)
    scaled = [w / top for w in weights]
    total = 0.0
    for w in scaled:
        total += w
    mean = 0.0
    for v, w in zip(values, scaled):
        mean += (w / total) * v
    return mean


def same_float(a, b) -> bool:
    """a and b are the same float: NaN matches NaN, and -0.0 only -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "psiest")


class TestAdd:
    def test_left_to_right(self):
        # a compensated sum (the builtin sum from Python 3.12) gives 1.0
        assert same_float(_add([1.0, 1e100, -1e100]), 0.0)
        assert same_float(_add([]), 0.0)
        assert same_float(_add(iter([-0.0, -0.0])), 0.0)

    def test_no_builtin_sum_in_package(self):
        # every test passes on 3.11 even where 3.12's sum prints other bytes
        calls = []
        for name in sorted(os.listdir(SRC)):
            if name.endswith(".py"):
                with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), name)
                calls += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == "sum"]
        assert calls == []


class TestWeightedMean:
    VALUES = st.one_of(st.floats(), st.sampled_from(
        (math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0)))
    WEIGHTS = st.one_of(
        st.floats(0.0, 1e308), st.sampled_from((5e-324, 1e-310, 1e308, 1.0)))

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 6))
        values = data.draw(st.lists(self.VALUES, min_size=n, max_size=n))
        weights = data.draw(st.lists(self.WEIGHTS, min_size=n, max_size=n).filter(any))
        got = _weighted_mean(values, weights)
        assert same_float(got, reference_weighted_mean(values, weights)), got

    @pytest.mark.parametrize("values,weights,mean", [
        ([1e308, 1e308], [1.0, 1.0], 1e308),
        ([1.0, 3.0], [1e308, 1e308], 2.0),
        ([2.0, 2.0], [5e-324, 5e-324], 2.0),
        ([1e308, -math.inf], [1.0, 1.0], -math.inf),
    ])
    def test_overflowing_sums(self, values, weights, mean):
        assert same_float(_weighted_mean(values, weights), mean)
