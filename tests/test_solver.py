import dataclasses
import functools
import math
import random
from typing import Callable

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiest import (
    DomainError,
    FamilySpec,
    InvalidArgument,
    OpenInterval,
    OutOfRange,
    PsiEstError,
    PsiKernel,
    SolverConfig,
    SolverError,
    WeightedSample,
    compile_expr,
    empirical_theta1_hull,
    generalized_left_inverse,
    make_kernel,
    parse,
    solve_sign_change,
    solver,
    theta1,
    weighted_sum,
)
from psiest.exprparse import compile_terms
from psiest.solver import (
    CONVERGED, MAX_BISECT, MAX_EXPAND, MAX_ITERATIONS, NO_NEGATIVE_PART,
    NO_POSITIVE_PART, NON_FINITE_SUM, STOP_CERTIFIED, STOP_EXHAUSTED, STOP_LIMIT,
    STOP_NAN, STOP_NO_SIGN_CHANGE, STOP_WIDTH, SignChangeResult, _Itp,
    _solve_predicate, _step_toward, expansion_reach)
from strategies import TREES


def reference_bisection(value, positive, theta, cfg):
    """Reference search: the solver's bracket expansion, then plain bisection.
    Returns (theta, bracket_lo, bracket_hi, iterations, status)."""
    nan_at = []

    def pred(t):
        v = value(t)
        if math.isnan(v):
            nan_at.append(t)
        return positive(v)

    seed = theta.midpoint_seed()
    up = pred(seed)
    endpoint = theta.hi if up else theta.lo
    near, far = seed, None
    t, delta = seed, max(1.0, abs(seed))
    evals = 1
    for _ in range(solver.MAX_EXPAND):
        t = solver._step_toward(t, endpoint, delta)
        delta *= 2.0
        evals += 1
        if pred(t) != up:
            far = t
            break
        near = t

    if far is None:
        status = "NoNegativePart" if up else "NoPositivePart"
        a, b = (near, math.nan) if up else (math.nan, near)
        res = (math.nan, a, b, evals, status)
    else:
        a, b = (near, far) if up else (far, near)
        iterations, status = 0, "Converged"
        while b - a > cfg.width_tol(0.5 * (a + b)):
            if iterations >= solver.MAX_BISECT:
                status = "MaxIterations"
                break
            mid = 0.5 * (a + b)
            if not (a < mid < b):
                break
            if pred(mid):
                a = mid
            else:
                b = mid
            iterations += 1
        res = (0.5 * (a + b), a, b, evals + iterations, status)
    if nan_at:
        return (nan_at[0], math.nan, math.nan, res[3], "NonFiniteSum")
    return res


def solve(spec_or_kernel, xs, weights=None, cfg=SolverConfig()):
    k = (make_kernel(spec_or_kernel)
         if isinstance(spec_or_kernel, FamilySpec) else spec_or_kernel)
    s = (WeightedSample.uniform(xs) if weights is None
         else WeightedSample(tuple(xs), tuple(weights)))
    res = solve_sign_change(k, s, cfg)
    assert res.converged, res.status
    return res


class TestSolverConfig:
    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol"]
        assert SolverConfig().tol == 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidArgument):
            SolverConfig(tol)

    def test_width_tol(self):
        cfg = SolverConfig(1e-6)
        assert cfg.width_tol(0.5) == 1e-6
        assert cfg.width_tol(-4.0) == 4e-6


class TestSearchLimit:
    """MAX_BISECT stops a search that has not yet narrowed its bracket."""

    GAMMA = make_kernel(FamilySpec("gamma_shape", {"lambda": 2.0}))

    def test_max_iterations(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BISECT", 5)
        res = solve_sign_change(self.GAMMA, WeightedSample.uniform([0.5, 1.5, 3.0]))
        assert res.status == "MaxIterations"
        assert res.stop == "IterationLimit"
        assert not res.converged
        assert res.bracket_lo < res.theta < res.bracket_hi
        with pytest.raises(SolverError, match="MaxIterations"):
            theta1(self.GAMMA, 1.5)

    def test_limit_counts_bisection_steps(self, monkeypatch):
        sample = WeightedSample.uniform([1.5])
        monkeypatch.setattr(solver, "MAX_BISECT", 0)
        seed_and_expansion = solve_sign_change(self.GAMMA, sample).iterations
        monkeypatch.setattr(solver, "MAX_BISECT", 5)
        res = solve_sign_change(self.GAMMA, sample)
        assert res.iterations == seed_and_expansion + 5
        assert res.phase_evals == (1, seed_and_expansion - 1, 5)


# Half-lines, the real line, a bounded interval and ones at the ends of the
# doubles, where the walk's steps round or overflow.
_REACH_THETAS = [(0.0, math.inf), (-math.inf, math.inf), (0.0, 1.0),
                 (1e300, math.inf), (-math.inf, -1e-300), (-1.7e308, 1.79e308)]


class TestExpansionReach:
    """expansion_reach is where the search's own expansion arrives in
    MAX_EXPAND // 2 steps: a value that never changes sign makes the search
    walk its whole expansion, and the (MAX_EXPAND // 2)-th t it evaluates
    toward each end is the reach, to the bit."""

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(
        st.sampled_from(_REACH_THETAS),
        st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False))
        .map(sorted).filter(lambda ends: ends[0] < ends[1])))
    def test_reach_is_the_searchs_walk(self, ends):
        theta = OpenInterval(*ends)
        walked = []
        for sign in (-1.0, 1.0):  # never > 0: toward lo; always > 0: toward hi
            seen = []
            res = solver._solve_predicate(lambda t: seen.append(t) or sign,
                                          theta, SolverConfig())
            assert res.phase_evals == (1, MAX_EXPAND, 0)
            walked.append(seen[MAX_EXPAND // 2])  # seen[0] is the seed
        assert repr(expansion_reach(theta)) == repr(tuple(walked))


class TestSolveSignChange:
    def test_one_weighted_sum_per_iteration(self, monkeypatch):
        # the search evaluates the sum once per counted step and nowhere else
        calls = []

        def counting(kernel, sample, t):
            calls.append(t)
            return weighted_sum(kernel, sample, t)

        monkeypatch.setattr(solver, "weighted_sum", counting)
        res = solve(FamilySpec("gamma_shape", {"lambda": 2.0}), [0.5, 1.5, 3.0])
        assert len(calls) == res.iterations == sum(res.phase_evals)
        assert res.phase_evals[0] == 1
        assert res.stop == "WidthReached"

    def test_expectile_mean(self):
        res = solve(FamilySpec("expectile", {"alpha": 0.5}), [1, 2, 3])
        assert abs(res.theta - 2.0) <= 1e-10

    def test_normal_variance(self):
        res = solve(FamilySpec("normal_var", {"m": 0.0}), [1, -1, 2])
        assert abs(res.theta - 2.0) <= 1e-10

    def test_gamma_shape_digamma_root(self):
        # root of the digamma function, computed from an independent
        # high-precision oracle
        oracle = float(mpmath.findroot(mpmath.digamma, 1.5))
        res = solve(FamilySpec("gamma_shape", {"lambda": 1.0}), [1.0])
        assert abs(res.theta - oracle) <= 1e-9

    def test_bracket_invariant(self):
        k = make_kernel(FamilySpec("expectile", {"alpha": 0.3}))
        s = WeightedSample.uniform([0, 1, 5])
        from psiest import weighted_sum

        res = solve_sign_change(k, s)
        assert res.bracket_lo <= res.theta <= res.bracket_hi
        assert weighted_sum(k, s, res.bracket_lo) > 0
        assert weighted_sum(k, s, res.bracket_hi) <= 0
        assert res.bracket_hi - res.bracket_lo <= 2e-12 * max(1.0, abs(res.theta))

    def test_no_negative_part(self):
        k = PsiKernel(OpenInterval(-math.inf, math.inf), lambda x, t: 1.0)
        res = solve_sign_change(k, WeightedSample((0.0,), (1.0,)))
        assert res.status == "NoNegativePart"
        assert res.stop == "NoSignChange"
        assert res.phase_evals == (1, solver.MAX_EXPAND, 0)
        assert math.isnan(res.theta)

    def test_no_positive_part(self):
        k = PsiKernel(OpenInterval(-math.inf, math.inf), lambda x, t: -1.0)
        res = solve_sign_change(k, WeightedSample((0.0,), (1.0,)))
        assert res.status == "NoPositivePart"

    def test_nan_sum_is_reported(self):
        # x - t below t = 5 and NaN from there on: the NaN must not be read
        # as the non-positive side (that converged at ~5 instead of 7.5)
        k = PsiKernel(OpenInterval(-math.inf, math.inf),
                      lambda x, t: x - t if t < 5.0 else math.nan)
        res = solve_sign_change(k, WeightedSample.uniform((7.0, 8.0)))
        assert res.status == "NonFiniteSum"
        assert res.stop == "NaNSum"
        assert not res.converged
        assert res.theta >= 5.0
        assert math.isnan(k.eval(7.0, res.theta))

    @pytest.mark.parametrize("nan_from,nan_to,refined", [
        (5.0, math.inf, False),  # first NaN at an expansion step
        (7.4, 7.6, True),        # first NaN at a refinement step
    ])
    def test_nan_sum_ends_search(self, nan_from, nan_to, refined, monkeypatch):
        # nothing is evaluated after the first NaN sum, and theta is its t
        calls = []

        def counting(kernel, sample, t):
            calls.append(t)
            return weighted_sum(kernel, sample, t)

        monkeypatch.setattr(solver, "weighted_sum", counting)
        k = PsiKernel(OpenInterval(-math.inf, math.inf),
                      lambda x, t: math.nan if nan_from <= t < nan_to else x - t)
        res = solve_sign_change(k, WeightedSample.uniform((7.0, 8.0)))
        assert res.status == "NonFiniteSum"
        assert len(calls) == res.iterations == sum(res.phase_evals)
        assert calls[-1] == res.theta
        assert (res.phase_evals[2] > 0) == refined

    def test_nan_sum_fails_theta1(self):
        k = PsiKernel(OpenInterval(-math.inf, math.inf),
                      lambda x, t: x - t if t < 5.0 else math.nan)
        with pytest.raises(SolverError, match="NonFiniteSum"):
            theta1(k, 7.0)

    def test_discontinuous_kernel(self):
        # jumps across zero at t=2 without a root
        k = PsiKernel(OpenInterval(-math.inf, math.inf),
                      lambda x, t: 1.0 if t < 2.0 else -1.0)
        res = solve_sign_change(k, WeightedSample((0.0,), (1.0,)))
        assert res.converged
        assert abs(res.theta - 2.0) <= 1e-10

    def test_bracket_exhausted_is_converged(self):
        # width_tol(1) = 1e-300 is far below the spacing of doubles near 1,
        # so the search stops once no double lies strictly inside
        k = PsiKernel(OpenInterval(-math.inf, math.inf), lambda x, t: x - t)
        res = solve(k, [1.0], cfg=SolverConfig(tol=1e-300))
        assert res.stop == "BracketExhausted"
        assert math.nextafter(res.bracket_lo, math.inf) == res.bracket_hi

    @pytest.mark.parametrize("lo,hi", [(-1e300, 1e300), (-1.7e308, 1.79e308)])
    def test_huge_interval(self, lo, hi):
        # plain bisection needs over 1000 steps on these brackets, beyond
        # MAX_BISECT; the second bracket straddles 0, so ITP's epsilon must
        # be width_tol(0), not width_tol at an end of the bracket
        k = PsiKernel(OpenInterval(lo, hi), lambda x, t: x - t)
        res = solve(k, [1.0])
        assert res.stop == "WidthReached"
        assert abs(res.theta - 1.0) <= 2 * SolverConfig().width_tol(1.0)

    def test_degenerate_sample_equals_theta1(self):
        spec = FamilySpec("lomax_shape_alpha", {"lambda": 1.0})
        k = make_kernel(spec)
        res = solve(spec, [3.0, 3.0, 3.0])
        assert abs(res.theta - k.theta1(3.0)) <= 2e-12 * max(1.0, abs(res.theta))

    def test_weight_scale_invariance(self):
        spec = FamilySpec("expectile", {"alpha": 0.3})
        a = solve(spec, [0, 1, 5], [1, 2, 1]).theta
        b = solve(spec, [0, 1, 5], [10, 20, 10]).theta
        assert abs(a - b) <= 2e-12 * max(1.0, abs(a))


def _step(u):
    return u + math.floor(u)


def _sign(x, t):
    return float((x > t) - (x < t))


_LINE = OpenInterval(-math.inf, math.inf)
_POSITIVE = OpenInterval(0.0, math.inf)
# (kernel, observation range): all 11 families, two DSL kernels, and
# kernels that jump across zero
REFERENCE_CASES = [
    (make_kernel(FamilySpec("expectile", {"alpha": 0.3})), (-10.0, 10.0)),
    (make_kernel(FamilySpec("mathieu", {}, f=lambda u: u ** 3)), (-10.0, 10.0)),
    (make_kernel(FamilySpec("normal_var", {"m": 0.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("beta_alpha", {"beta": 2.0})), (0.05, 0.95)),
    (make_kernel(FamilySpec("beta_beta", {"alpha": 2.0})), (0.05, 0.95)),
    (make_kernel(FamilySpec("gamma_shape", {"lambda": 1.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("gamma_rate", {"p": 2.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("lomax_rate_lambda", {"alpha": 2.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("lomax_shape_alpha", {"lambda": 2.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("lognormal_mu", {"sigma2": 1.0})), (0.1, 10.0)),
    (make_kernel(FamilySpec("laplace_scale", {"mu": 0.0})), (0.1, 10.0)),
    (PsiKernel(_POSITIVE, compile_expr(parse("abs(x)/(t*t) - 1/t"))), (0.1, 10.0)),
    (PsiKernel(_POSITIVE, compile_expr(parse("(x^2 - t)/(2*t*t)"))), (0.1, 10.0)),
    (PsiKernel(_LINE, _sign), (-10.0, 10.0)),
    (PsiKernel(_LINE, lambda x, t: (x - t) + _sign(x, t)), (-10.0, 10.0)),
    (make_kernel(FamilySpec("mathieu", {}, f=_step)), (-10.0, 10.0)),
]


@st.composite
def reference_samples(draw):
    kernel, (lo, hi) = draw(st.sampled_from(REFERENCE_CASES))
    n = draw(st.integers(1, 50))
    xs = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    ws = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return kernel, WeightedSample(tuple(xs), tuple(ws))


class TestAgainstBisection:
    """ITP refinement finds bisection's answer, at most n0 + 1 = 2
    evaluations later: ITP's epsilon is set at a bracket end, while the
    search stops on width_tol at the midpoint."""

    @settings(max_examples=150, deadline=None)
    @given(reference_samples())
    def test_matches_reference(self, case):
        kernel, sample = case
        cfg = SolverConfig()
        res = solve_sign_change(kernel, sample, cfg)
        ref_theta, _, _, ref_iterations, ref_status = reference_bisection(
            lambda t: weighted_sum(kernel, sample, t), lambda v: v > 0.0,
            kernel.theta, cfg)
        assert res.status == ref_status
        assert abs(res.theta - ref_theta) <= 2 * cfg.width_tol(ref_theta)
        assert res.iterations <= ref_iterations + 2


class TestTheta1:
    def test_expectile(self):
        k = make_kernel(FamilySpec("expectile", {"alpha": 0.3}))
        assert theta1(k, 7.0) == 7.0

    def test_lomax_alpha(self):
        k = make_kernel(FamilySpec("lomax_shape_alpha", {"lambda": 1.0}))
        assert abs(theta1(k, math.e - 1.0) - 1.0) <= 1e-12

    def test_beta_alpha(self):
        k = make_kernel(FamilySpec("beta_alpha", {"beta": 1.0}))
        assert abs(theta1(k, 1.0 - math.exp(-1.0)) - 1.0) <= 1e-12

    def test_solver_fallback(self):
        # beta_beta has no closed form; the singleton solve satisfies the
        # estimating equation
        k = make_kernel(FamilySpec("beta_beta", {"alpha": 1.0}))
        t = theta1(k, 0.5)
        assert abs(k.eval(0.5, t)) <= 1e-8

    def test_closed_form_outside_theta(self):
        # F(1e200) = 1e400 overflows, so F_inv(F(x)) is inf, not in (0, inf)
        k = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        with pytest.raises(DomainError, match=r"theta1\(1e\+200\) = inf lies outside"):
            theta1(k, 1e200)
        with pytest.raises(DomainError, match=r"theta1\(1e\+200\)"):
            empirical_theta1_hull(k, [1.0, 1e200])
        assert theta1(k, 1e150) == 1e150 ** 2

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
    def test_closed_form_nan_or_on_the_boundary(self, value):
        k = PsiKernel(OpenInterval(0.0, math.inf), lambda x, t: x - t,
                      theta1=lambda x: value, name="psi")
        with pytest.raises(DomainError, match=r"theta1\(2\.0\) = .* for psi"):
            theta1(k, 2.0)


class TestMeanType:
    FAMILIES = [
        (FamilySpec("expectile", {"alpha": 0.7}), lambda r: r.uniform(-5, 5)),
        (FamilySpec("normal_var", {"m": 0.0}), lambda r: r.uniform(0.2, 4)),
        (FamilySpec("beta_alpha", {"beta": 1.5}), lambda r: r.uniform(0.1, 0.9)),
        (FamilySpec("gamma_rate", {"p": 2.0}), lambda r: r.uniform(0.2, 8)),
        (FamilySpec("lomax_rate_lambda", {"alpha": 1.0}), lambda r: r.uniform(0.2, 8)),
        (FamilySpec("lognormal_mu", {"sigma2": 1.0}), lambda r: r.uniform(0.2, 8)),
        (FamilySpec("laplace_scale", {"mu": 0.0}), lambda r: r.uniform(0.2, 8)),
    ]

    def test_mean_type_random_draws(self):
        rng = random.Random(11)
        for _ in range(100):
            spec, draw = self.FAMILIES[rng.randrange(len(self.FAMILIES))]
            k = make_kernel(spec)
            n = rng.randint(1, 8)
            xs = [draw(rng) for _ in range(n)]
            t1s = [k.theta1(x) for x in xs]
            res = solve(spec, xs)
            lo, hi = min(t1s), max(t1s)
            assert lo - 1e-10 <= res.theta <= hi + 1e-10
            if hi - lo > 1e-6:
                tol = 2e-12 * max(1.0, abs(res.theta))
                assert res.theta > lo + tol
                assert res.theta < hi - tol


class TestLimitProperty:
    def test_expectile_replicated_limit(self):
        # theta(x repeated n times, y once) approaches x like C/n
        prev = math.inf
        for n in range(1, 65):
            res = solve(FamilySpec("expectile", {"alpha": 0.3}),
                        [0.0, 1.0], [float(n), 1.0])
            dist = abs(res.theta)
            assert dist <= 1.0 / n + 1e-10
            assert dist < prev
            prev = dist


class TestDensity:
    def test_beta_alpha_two_point_replications_fill_hull(self):
        spec = FamilySpec("beta_alpha", {"beta": 1.0})
        k = make_kernel(spec)
        x, y = 0.3, 0.7
        a, b = sorted((k.theta1(x), k.theta1(y)))
        vals = []
        for k_rep in range(1, 40):
            for m_rep in range(1, 41 - k_rep):
                res = solve(spec, [x, y], [float(k_rep), float(m_rep)])
                vals.append(res.theta)
        vals.sort()
        gaps = [t2 - t1 for t1, t2 in zip(vals, vals[1:])]
        gaps.append(vals[0] - a)
        gaps.append(b - vals[-1])
        assert max(gaps) <= (b - a) / 8.0


# exp(t) through the DSL, which returns inf where math.exp overflows
EXP = functools.partial(compile_expr(parse("exp(t)")), 0.0)


class TestGeneralizedLeftInverse:
    LINE = OpenInterval(-math.inf, math.inf)

    def test_cube(self):
        t = generalized_left_inverse(lambda t: t ** 3, self.LINE, 8.0)
        assert abs(t - 2.0) <= 1e-10

    def test_jump_gap(self):
        def step(t):
            if t <= 1.0:
                return t
            if t <= 2.0:
                return t + 1.0
            return t + 2.0

        t = generalized_left_inverse(step, OpenInterval(-10.0, 10.0), 1.5)
        assert abs(t - 1.0) <= 1e-10

    def test_log(self):
        t = generalized_left_inverse(math.log, OpenInterval(1e-12, math.inf), 0.0)
        assert abs(t - 1.0) <= 1e-10

    def test_round_trip_on_theta(self):
        for f, iv, y in [
            (lambda t: t ** 3, self.LINE, 8.0),
            (math.log, OpenInterval(1e-12, math.inf), 0.0),
        ]:
            t = generalized_left_inverse(f, iv, y)
            back = generalized_left_inverse(f, iv, f(t))
            assert abs(back - t) <= 1e-9 * (1.0 + abs(t))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            generalized_left_inverse(
                lambda t: math.atan(t), self.LINE, 2.0)
        with pytest.raises(OutOfRange):
            generalized_left_inverse(
                lambda t: math.atan(t), self.LINE, -2.0)

    def test_nan_is_an_error(self):
        # read as "not below y", the NaN would put the inverse of 7 at 5
        f = lambda t: t if t < 5.0 else math.nan
        with pytest.raises(SolverError, match=r"f\(5\.0\) is NaN"):
            generalized_left_inverse(f, OpenInterval(0.0, 10.0), 7.0)

    def test_nan_names_first_t(self):
        f = lambda t: math.nan if 2.0 < t < 3.0 else t
        with pytest.raises(SolverError, match=r"f\(2\.5\) is NaN"):
            generalized_left_inverse(f, OpenInterval(0.0, 10.0), 2.2)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_y_out_of_range(self, y):
        # inf - exp(t) is NaN where exp(t) overflows, and the search used to
        # return that point, 709.78..., as the inverse of inf
        with pytest.raises(OutOfRange, match="not finite"):
            generalized_left_inverse(EXP, OpenInterval(0.0, 1000.0), y)

    def test_contract_random_values(self):
        rng = random.Random(3)
        f = lambda t: t + math.sin(t) / 2.0  # strictly increasing
        results = []
        for _ in range(1000):
            y = rng.uniform(-20.0, 20.0)
            g = generalized_left_inverse(f, self.LINE, y)
            assert abs(f(g) - y) <= 1e-9 * (1.0 + abs(y))
            results.append((y, g))
        results.sort()
        gs = [g for _, g in results]
        assert all(b >= a for a, b in zip(gs, gs[1:]))


# The search and the left inverse as they were before the search took one
# predicate, value(t) > 0, and stopped at its first NaN: kept verbatim, with
# only the two names changed, as the oracle for TestLeftInverseOracle.


def reference_solve_predicate(
    value: Callable[[float], float],
    positive: Callable[[float], bool],
    theta: OpenInterval,
    cfg: SolverConfig,
    level: float = 0.0,
) -> SignChangeResult:
    """Locate the boundary where a decreasing-type predicate flips True->False.

    positive(value(t)) must be True strictly below the target and False
    strictly above it; level is the value at which it flips, and the
    refinement steps interpolate on value(t) - level.  A NaN value has no
    side: the search goes on with whatever positive() says, and the result
    is NonFiniteSum at the first t where value(t) was NaN.
    """
    nan_at = []

    def probe(t: float) -> float:
        v = value(t)
        if math.isnan(v):
            nan_at.append(t)
        return v

    seed = theta.midpoint_seed()

    # Step away from the seed, toward the side where the flip lies, until the
    # predicate flips: near is the last t on the seed's side, far the first
    # beyond the flip.
    v_near = probe(seed)
    up = positive(v_near)
    endpoint = theta.hi if up else theta.lo
    near, far = seed, None
    t, delta = seed, max(1.0, abs(seed))
    expand = 0
    for _ in range(MAX_EXPAND):
        t = _step_toward(t, endpoint, delta)
        delta *= 2.0
        expand += 1
        v = probe(t)
        if positive(v) != up:
            far, v_far = t, v
            break
        near, v_near = t, v

    refine = 0
    if far is None:
        status = NO_NEGATIVE_PART if up else NO_POSITIVE_PART
        stop = STOP_NO_SIGN_CHANGE
        a, b = (near, math.nan) if up else (math.nan, near)
        theta_hat = math.nan
    else:
        a, b = (near, far) if up else (far, near)
        ga, gb = v_near - level, v_far - level
        if not up:
            ga, gb = gb, ga
        status, stop = CONVERGED, STOP_WIDTH
        itp = _Itp(a, b, cfg)
        while b - a > cfg.width_tol(0.5 * (a + b)):
            if refine >= MAX_BISECT:
                status, stop = MAX_ITERATIONS, STOP_LIMIT
                break
            mid = 0.5 * (a + b)
            if not (a < mid < b):
                stop = STOP_EXHAUSTED  # no double strictly inside
                break
            t = itp.point(a, b, ga, gb, mid)
            v = probe(t)
            if positive(v):
                a, ga = t, v - level
            else:
                b, gb = t, v - level
            refine += 1
        theta_hat = 0.5 * (a + b)
    phases = (1, expand, refine)
    if nan_at:
        return SignChangeResult(nan_at[0], math.nan, math.nan, sum(phases),
                                NON_FINITE_SUM, STOP_NAN, phases)
    return SignChangeResult(theta_hat, a, b, sum(phases), status, stop, phases)


def reference_left_inverse(
    f: Callable[[float], float],
    theta: OpenInterval,
    y: float,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Monotone extension of the inverse of a strictly increasing f.

    For y in f(Theta) this returns the preimage; for y inside a jump gap
    [f(t0-), f(t0+)] it returns t0.  Computed by the same search as
    solve_sign_change, on the predicate f(t) < y and interpolating on
    y - f(t); the bracket is kept by sign, so no continuity is needed.
    Raises OutOfRange when y falls outside the convex hull of f(Theta)
    beyond 1e-9 * (1 + |y|), and SolverError naming the first t where f(t)
    was NaN.
    """
    res = reference_solve_predicate(f, lambda v: v < y, theta, cfg, level=y)
    if res.status == NON_FINITE_SUM:
        raise SolverError(f"f({res.theta!r}) is NaN", res)
    slack = 1e-9 * (1.0 + abs(y))
    if res.status == NO_POSITIVE_PART:
        # Never saw f(t) < y: y is at or below the infimum of f.
        t_low = res.bracket_hi
        if f(t_low) - y <= slack:
            return t_low
        raise OutOfRange(f"{y!r} below the range of f")
    if res.status == NO_NEGATIVE_PART:
        t_high = res.bracket_lo
        if y - f(t_high) <= slack:
            return t_high
        raise OutOfRange(f"{y!r} above the range of f")
    if not res.converged:
        raise SolverError(f"left-inverse search stalled at y={y!r}", res)
    return res.theta


def _outcome(fn, *args):
    """The float fn returns, as hex so that -0.0 and 0.0 differ, or the type
    of the error it raises."""
    try:
        return fn(*args).hex()
    except PsiEstError as exc:
        return type(exc)


# (f, the intervals it is inverted on): affine, cube, DSL exp, and a step
# function with jump gaps
ORACLE_CASES = [
    (lambda t: 2.5 * t - 3.0, [_LINE, OpenInterval(-10.0, 10.0)]),
    (lambda t: t ** 3, [_LINE, OpenInterval(0.0, 5.0)]),
    (EXP, [_LINE, OpenInterval(0.0, 1000.0), OpenInterval(-5.0, 5.0)]),
    (_step, [_LINE, OpenInterval(-10.0, 10.0)]),
]


class TestLeftInverseOracle:
    """For finite y the left inverse is bit-identical to the reference: the
    ITP ratio ga / (ga - gb) is the same with both ends negated, and
    y - f(t) > 0 holds exactly when f(t) < y."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        f, intervals = data.draw(st.sampled_from(ORACLE_CASES))
        theta = data.draw(st.sampled_from(intervals))
        y = data.draw(st.one_of(
            st.floats(-60.0, 60.0),
            st.floats(allow_nan=False, allow_infinity=False)))
        assert (_outcome(generalized_left_inverse, f, theta, y)
                == _outcome(reference_left_inverse, f, theta, y))


def _expr_kernel(e, theta):
    """An expression kernel as the CLI builds one from --psi."""
    e = parse(e) if isinstance(e, str) else e
    column, terms = compile_terms(e)
    return PsiKernel(theta, compile_expr(e), domain_check=math.isfinite, name="psi",
                     column=column, terms=terms)


def _searched(kernel, sample, cfg=SolverConfig()):
    """solve_sign_change without a proposal: the search alone."""
    sample.check(kernel)
    return _solve_predicate(functools.partial(weighted_sum, kernel, sample),
                            kernel.theta, cfg)


def _result(solve, kernel, sample, cfg=SolverConfig()):
    """The result's fields with floats as hex (-0.0 and NaN compare), or the
    type and message of what the solve raises."""
    try:
        res = solve(kernel, sample, cfg)
    except PsiEstError as exc:
        return type(exc).__name__, str(exc)
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(res))


def _assert_certified(kernel, sample, res, cfg=SolverConfig()):
    lo, hi = res.bracket_lo, res.bracket_hi
    assert weighted_sum(kernel, sample, lo) > 0.0 >= weighted_sum(kernel, sample, hi)
    assert lo < res.theta < hi and hi - lo <= cfg.width_tol(res.theta)
    assert (res.status, res.iterations, res.phase_evals) == (CONVERGED, 2, (2, 0, 0))
    assert sum(res.phase_evals) == res.iterations


def _laplace(rng):
    return rng.choice((-1.0, 1.0)) * rng.expovariate(1.0)


# Kernels with a proposal: the expectile's formula, and expressions affine in
# their one column.
CERTIFIABLE = [
    (lambda alpha: make_kernel(FamilySpec("expectile", {"alpha": alpha})), (-10.0, 10.0)),
    (lambda _: _expr_kernel("abs(x)/(t*t) - 1/t", _POSITIVE), (-10.0, 10.0)),
    (lambda _: _expr_kernel("(x^2 - t)/(2*t*t)", _POSITIVE), (-10.0, 10.0)),
    (lambda _: _expr_kernel("x - t", _LINE), (-1e6, 1e6)),
    (lambda _: _expr_kernel("(3*x - t*2 + 1)/(1 + t*t)", _LINE), (-10.0, 10.0)),
    (lambda _: _expr_kernel("sign(x) - t", OpenInterval(-2.0, 2.0)), (-10.0, 10.0)),
]


@st.composite
def certifiable_cases(draw):
    build, (lo, hi) = draw(st.sampled_from(CERTIFIABLE))
    kernel = build(draw(st.floats(0.05, 0.95)))
    xs = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40))
    ws = draw(st.one_of(st.just([1.0] * len(xs)),
                        st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)), min_size=len(xs),
                                 max_size=len(xs)).filter(any)))
    cfg = SolverConfig(draw(st.sampled_from((1e-12, 1e-8, 1e-3, 1e-15, 1e-20))))
    return kernel, WeightedSample(tuple(xs), tuple(ws)), cfg


class TestCertificate:
    """A kernel summed term by term with a proposal is certified by two
    sums on either side of it; every other input runs the search."""

    @settings(max_examples=300, deadline=None)
    @given(certifiable_cases())
    def test_certified_or_searched(self, case):
        kernel, sample, cfg = case
        res = solve_sign_change(kernel, sample, cfg)
        if res.stop == STOP_CERTIFIED:
            _assert_certified(kernel, sample, res, cfg)
        else:
            assert _result(solve_sign_change, kernel, sample, cfg) == _result(
                _searched, kernel, sample, cfg)

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))
    def test_trees_certified_only_where_flagged(self, e, xs):
        kernel = _expr_kernel(e, _LINE)
        sample = WeightedSample.uniform(xs)
        got = _result(solve_sign_change, kernel, sample)
        if got[5:6] == (STOP_CERTIFIED,):
            assert kernel.terms._linear
            _assert_certified(kernel, sample, solve_sign_change(kernel, sample))
        else:
            assert got == _result(_searched, kernel, sample)

    @pytest.mark.parametrize("src, theta, xs", [
        ("exp(x - t) - 1", _LINE, [0.5, 1.0, 4.0]),
        ("ln(x - t)", _LINE, [0.5, 1.0, 4.0]),
        ("abs(x)*t + x", _LINE, [-0.5, 1.0, -4.0]),
        ("(0-10)^x - t", _LINE, [1.0, 2.0, 3.0]),
        ("x*t*x - 1", _POSITIVE, [1.0, 2.0, 3.0])])
    def test_unflagged_keeps_the_search(self, src, theta, xs):
        kernel = _expr_kernel(src, theta)
        assert not getattr(kernel.terms, "_linear", False)
        sample = WeightedSample.uniform(xs)
        got = _result(solve_sign_change, kernel, sample)
        assert got == _result(_searched, kernel, sample)
        assert STOP_CERTIFIED not in got

    @pytest.mark.parametrize("src, draw", [("abs(x)/(t*t) - 1/t", _laplace),
                                           ("(x^2 - t)/(2*t*t)", lambda r: r.gauss(0.0, 2.0))])
    def test_benchmark_oracle_reads_the_certificate(self, src, draw):
        # estimate_bulk's output check: the expression's eval alone, summed
        # term by term, is > 0 and <= 0 at the ends of the certified bracket
        oracle = PsiKernel(_POSITIVE, compile_expr(parse(src)))
        for seed in range(12):
            rng = random.Random(seed)
            xs = tuple(draw(rng) for _ in range(2500))
            res = solve_sign_change(_expr_kernel(src, _POSITIVE), WeightedSample.uniform(xs))
            assert res.stop == STOP_CERTIFIED
            sample = WeightedSample.uniform(xs)
            assert weighted_sum(oracle, sample, res.bracket_lo) > 0.0
            assert weighted_sum(oracle, sample, res.bracket_hi) <= 0.0

    def test_two_sums(self, monkeypatch):
        calls = []

        def counting(kernel, sample, t):
            calls.append(t)
            return weighted_sum(kernel, sample, t)

        monkeypatch.setattr(solver, "weighted_sum", counting)
        for kernel in (_expr_kernel("abs(x)/(t*t) - 1/t", _POSITIVE),
                       make_kernel(FamilySpec("expectile", {"alpha": 0.5}))):
            calls.clear()
            res = solve(kernel, [1.0, 2.0, 3.0])
            assert res.stop == STOP_CERTIFIED and calls == [res.bracket_lo, res.bracket_hi]
        # the expectile's golden: h = width_tol(2) / 4 on each side
        assert (res.theta, res.bracket_lo, res.bracket_hi) == (
            2.0, 1.9999999999995, 2.0000000000005)

    def test_replaced_eval_keeps_the_certificate(self):
        # the proposal goes with terms, as _affine does: a kernel whose eval
        # alone is replaced (a counting wrapper, say) sums and solves alike
        kernel = make_kernel(FamilySpec("expectile", {"alpha": 0.3}))
        counted = dataclasses.replace(kernel, eval=lambda x, t: kernel.eval(x, t))
        sample = WeightedSample.uniform([-1.0, 1.4, 2.5, -1.0])
        assert counted._estimate is None
        assert _result(solve_sign_change, counted, sample) == _result(
            solve_sign_change, kernel, sample)
        assert solve_sign_change(counted, sample).stop == STOP_CERTIFIED
        assert solve_sign_change(dataclasses.replace(kernel, terms=None),
                                 sample).stop == STOP_WIDTH

    def test_affine_rows_keep_the_search(self):
        # q(t) (S - W g(t)) costs O(1): a proposal would save nothing
        res = solve(FamilySpec("normal_var", {"m": 0.0}), [1, -1, 2])
        assert res.stop == STOP_WIDTH

    def test_cancelling_expectile_keeps_the_search(self):
        # its formula raises where the sums cancel: the search's root stands
        res = solve(FamilySpec("expectile", {"alpha": 0.5}), [-1e20, 1e20, 2.5, 1.5])
        assert (res.theta, res.stop, res.iterations) == (1.99999999999975, STOP_WIDTH, 8)

    @pytest.mark.parametrize("proposal, certified", [
        (lambda cs, ws: 7.0 / 3.0, True), (lambda cs, ws: math.nan, False),
        (lambda cs, ws: math.inf, False), (lambda cs, ws: 1e6, False),
        (lambda cs, ws: 3.0, False), (lambda cs, ws: 10.0, False),
        (lambda cs, ws: 0.0, False), (lambda cs, ws: 1.0 / 0.0, False),
        (lambda cs, ws: math.log(-1.0), False), (lambda cs, ws: None, False),
        (lambda cs, ws: (_ for _ in ()).throw(DomainError("no estimate")), False)])
    def test_bad_proposal_runs_the_search(self, proposal, certified):
        # off the root, outside Theta, not finite or raising: the search's bits
        kernel = PsiKernel(OpenInterval(0.0, 10.0), lambda x, t: x - t)
        sample = WeightedSample.uniform([1.0, 2.0, 4.0])
        want = _result(_searched, kernel, sample)
        kernel.terms._proposal = proposal
        got = _result(solve_sign_change, kernel, sample)
        assert (STOP_CERTIFIED in got) == certified
        assert certified or got == want

    @pytest.mark.parametrize("bad", [math.nan, "raise"])
    @pytest.mark.parametrize("end", [0, 1])
    def test_bad_certifying_sum_runs_the_search(self, bad, end):
        # the sum is NaN, or raises, at one end of the certificate's bracket
        # alone
        ends = (1.9999999999995, 2.0000000000005)

        def ev(x, t):
            if t == ends[end]:
                if bad == "raise":
                    raise DomainError(f"psi undefined at t={t!r}")
                return bad
            return x - t

        kernel = PsiKernel(_LINE, ev)
        sample = WeightedSample.uniform([1.0, 2.0, 3.0])
        want = _result(_searched, kernel, sample)
        kernel.terms._proposal = lambda cs, ws: 2.0
        assert _result(solve_sign_change, kernel, sample) == want

    def test_tol_below_the_spacing_runs_the_search(self):
        # a bracket of one ulp each side is wider than width_tol: the search
        # ends BracketExhausted, as it did without a proposal
        kernel = make_kernel(FamilySpec("expectile", {"alpha": 0.5}))
        sample = WeightedSample.uniform([1.0, 2.0, 3.0])
        cfg = SolverConfig(1e-20)
        res = solve_sign_change(kernel, sample, cfg)
        assert res.stop == STOP_EXHAUSTED
        assert _result(solve_sign_change, kernel, sample, cfg) == _result(
            _searched, kernel, sample, cfg)
