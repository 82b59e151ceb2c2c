import bisect
import collections
import dataclasses
import json
import math
import os
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from strategies import MATHIEU_FS, family_pairs
from psiest import (
    DegenerateDerivative,
    DomainError,
    EmptyLowerSet,
    InvalidArgument,
    FamilySpec,
    OpenInterval,
    PsiEstError,
    PsiKernel,
    SolverConfig,
    WeightedSample,
    build_witness_set,
    check_derivative_condition,
    check_direct,
    check_equality,
    check_ratio_condition,
    check_two_point,
    compile_expr,
    construct_multiplier,
    empirical_theta1_hull,
    make_kernel,
    parse,
    solve_sign_change,
    theta1,
    weighted_sum,
)
from psiest.comparison import (
    _FD_STEP,
    COUNTEREXAMPLE,
    INCONCLUSIVE,
    NO_COUNTEREXAMPLE,
    ComparisonVerdict,
    WitnessSet,
    _d2,
    _grid_sums,
    _multiplier_certifies,
    _pair_tol,
    _random_cases,
    _require_count,
    _sign_witness,
    _slack,
    _solve,
)

LINE = OpenInterval(-math.inf, math.inf)


def expectile(alpha):
    return make_kernel(FamilySpec("expectile", {"alpha": alpha}))


def lognormal(sigma2):
    return make_kernel(FamilySpec("lognormal_mu", {"sigma2": sigma2}))


def ws_for(kernel, obs, seed=0):
    return build_witness_set(kernel, obs, seed=seed)


class TestCheckDirect:
    OBS = (0.0, 1.0, 2.0, 5.0)

    def test_expectile_ordered(self):
        kp, kq = expectile(0.3), expectile(0.7)
        v = check_direct(kp, kq, ws_for(kq, self.OBS), max_n=6)
        assert v.status == "NoCounterexample"

    def test_expectile_reversed(self):
        kp, kq = expectile(0.7), expectile(0.3)
        v = check_direct(kp, kq, ws_for(kq, self.OBS), max_n=6)
        assert v.status == "Counterexample"
        # the witness re-verifies
        s = WeightedSample.uniform(v.witness["sample"])
        tp = solve_sign_change(kp, s).theta
        tq = solve_sign_change(kq, s).theta
        assert tp > tq
        assert tp == pytest.approx(v.witness["theta_psi"], abs=1e-12)
        assert tq == pytest.approx(v.witness["theta_phi"], abs=1e-12)

    def test_identical_kernels(self):
        kp = expectile(0.4)
        v = check_direct(kp, kp, ws_for(kp, self.OBS), max_n=6, trials=50)
        assert v.status == "NoCounterexample"


class TestCheckTwoPoint:
    def test_expectile_ordered(self):
        v = check_two_point(expectile(0.3), expectile(0.7), 0.0, 1.0, max_km=20)
        assert v.status == "NoCounterexample"

    def test_beta_ordered(self):
        kp = make_kernel(FamilySpec("beta_alpha", {"beta": 1.0}))
        kq = make_kernel(FamilySpec("beta_alpha", {"beta": 2.0}))
        v = check_two_point(kp, kq, 0.3, 0.7, max_km=20)
        assert v.status == "NoCounterexample"

    def test_beta_reversed(self):
        kp = make_kernel(FamilySpec("beta_alpha", {"beta": 2.0}))
        kq = make_kernel(FamilySpec("beta_alpha", {"beta": 1.0}))
        v = check_two_point(kp, kq, 0.3, 0.7, max_km=20)
        assert v.status == "Counterexample"
        k, m = v.witness["k"], v.witness["m"]
        s = WeightedSample((0.3, 0.7), (float(k), float(m)))
        assert solve_sign_change(kp, s).theta > solve_sign_change(kq, s).theta


class TestRatioCondition:
    def test_expectile_ordered(self):
        kp, kq = expectile(0.3), expectile(0.7)
        v = check_ratio_condition(kp, kq, ws_for(kq, (0.0, 1.0, 2.0, 5.0)))
        assert v.status == "NoCounterexample"

    def test_normal_var_shifted_mean_fails_theta1_stage(self):
        kp = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        kq = make_kernel(FamilySpec("normal_var", {"m": 1.0}))
        obs = (-1.0, 0.5, 2.0)
        v = check_ratio_condition(kp, kq, ws_for(kq, obs))
        assert v.status == "Counterexample"
        assert v.witness["stage"] == "theta1"

    def test_identical_kernels(self):
        kp = expectile(0.4)
        v = check_ratio_condition(kp, kp, ws_for(kp, (0.0, 1.0, 5.0)))
        assert v.status == "NoCounterexample"


@st.composite
def scalable_pairs(draw):
    """(psi, phi, observations) that a power of two scales exactly: two
    expectile kernels, or two mathieu kernels with f(u) of u, 2u, u^2 or
    u^3, on 1..5 distinct multiples of 1/4 in [-5, 5]."""
    if draw(st.booleans()):
        kp, kq = (expectile(draw(st.floats(0.05, 0.95))) for _ in range(2))
    else:
        kp, kq = (make_kernel(FamilySpec("mathieu", {}, f=draw(
            st.sampled_from(MATHIEU_FS[:4])))) for _ in range(2))
    obs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True))
    return kp, kq, tuple(x / 4 for x in obs)


def _status(check, kp, kq, ws):
    try:
        return check(kp, kq, ws).status
    except PsiEstError as exc:
        return type(exc).__name__


class TestSlackScales:
    """The ratio cross stage and the derivative check take their slack from
    the operands, so scaling every observation and grid point by 2**k,
    which scales these kernels' values exactly, keeps each verdict.  Both
    kernels' theta1 is x, so the ratio check's theta1 stage finds nothing
    and its verdict is the cross stage's."""

    @settings(max_examples=60, deadline=None)
    @given(scalable_pairs(), st.integers(-60, 60))
    @example((make_kernel(FamilySpec("mathieu", {}, f=MATHIEU_FS[2])),
              make_kernel(FamilySpec("mathieu", {}, f=MATHIEU_FS[0])),
              (0.0, 1.0, 0.25)), -30)
    @example((expectile(0.7), expectile(0.3), (0.0, 1.0, 3.0, -2.0)), -60)
    def test_same_status_at_every_scale(self, case, k):
        kp, kq, obs = case
        ws = build_witness_set(kq, obs, grid_points=9, random_points=4)
        scaled = WitnessSet([math.ldexp(x, k) for x in ws.observations],
                            [math.ldexp(t, k) for t in ws.parameter_grid])
        assert _status(check_ratio_condition, kp, kq, scaled) == \
            _status(check_ratio_condition, kp, kq, ws)
        # Where a kernel has no d2, its central difference takes the step
        # _FD_STEP * max(1, |t0|), and a derivative below 1e-8 is degenerate:
        # both bounds are absolute, and u^3's derivative at its root, about
        # -step^2, falls under the second at small scales.  Compared wherever
        # the check gets past them.
        got, want = (_status(check_derivative_condition, kp, kq, w)
                     for w in (scaled, ws))
        if "DegenerateDerivative" not in (got, want):
            assert got == want

    @pytest.mark.parametrize("certify", [True, False])
    def test_near_tie_ordered(self, certify, monkeypatch):
        # grid points at an observation and one ulp to either side, where
        # x - t cancels to 0 or to an ulp, on an ordered pair; the pairwise
        # scan runs too, with the certificate set aside
        from psiest import comparison

        if not certify:
            monkeypatch.setattr(comparison, "_multiplier_certifies",
                                lambda *args: False)
        obs = (-2.0, 0.0, 1e-8, 1.0, 3.0)
        grid = [u for x in obs for u in (math.nextafter(x, -math.inf), x,
                                         math.nextafter(x, math.inf))]
        ws = WitnessSet(obs, grid)
        for kp, kq in ((expectile(0.3), expectile(0.7)), (expectile(0.5), expectile(0.5))):
            assert check_ratio_condition(kp, kq, ws).status == NO_COUNTEREXAMPLE
            assert check_derivative_condition(kp, kq, ws).status == NO_COUNTEREXAMPLE

    def test_slack_has_no_floor(self):
        assert _slack(1e-20, -3e-20, 1e-10) == 1e-10 * 3e-20
        assert _slack(0.0, 0.0, 1e-8) == 0.0


class TestConstructMultiplier:
    def test_identity_pair(self):
        kp = expectile(0.4)
        ws = ws_for(kp, (0.0, 10.0))
        assert construct_multiplier(kp, kp, ws, 5.0) == pytest.approx(1.0)

    def test_lognormal_recovers_variance_ratio(self):
        kp, kq = lognormal(1.0), lognormal(4.0)
        ws = ws_for(kq, (1.0, math.e ** 2))
        for t in (0.5, 1.0, 1.5):
            assert abs(construct_multiplier(kp, kq, ws, t) - 4.0) <= 1e-12

    def test_expectile_envelope_value(self):
        # brute-force oracle: only the witness x=0 has a phi-estimate below
        # t=5, and psi(0,5)/phi(0,5) = (1-0.3)/(1-0.7) = 7/3
        kp, kq = expectile(0.3), expectile(0.7)
        ws = ws_for(kq, (0.0, 10.0))
        assert construct_multiplier(kp, kq, ws, 5.0) == pytest.approx(7.0 / 3.0)

    def test_empty_lower_set(self):
        kp, kq = expectile(0.3), expectile(0.7)
        ws = ws_for(kq, (5.0, 10.0))
        with pytest.raises(EmptyLowerSet):
            construct_multiplier(kp, kq, ws, 1.0)

    def test_phi_zero_is_a_domain_error(self):
        # phi(0, 0.5) = sign(-0.5) + sign(0.5) = 0 with theta1_phi(0) = 0 below
        # t = 0.5: the ratio is undefined (it raised ZeroDivisionError)
        kp = PsiKernel(LINE, compile_expr(parse("x - t")), theta1=lambda x: x,
                       name="psi")
        kq = PsiKernel(LINE, compile_expr(parse("sign(x - t) + sign(x - t + 1)")),
                       theta1=lambda x: x, name="phi")
        with pytest.raises(DomainError, match=r"phi\(0\.0, 0\.5\) is 0"):
            construct_multiplier(kp, kq, WitnessSet((0.0, 3.0), (1.0, 2.0)), 0.5)
        # witnesses are taken in order: the zero at x = 0 comes before the
        # theta1 of x = 3, which phi's domain rejects
        kq = dataclasses.replace(kq, domain_check=lambda x: x < 3.0)
        with pytest.raises(DomainError, match=r"phi\(0\.0, 0\.5\) is 0"):
            construct_multiplier(kp, kq, WitnessSet((0.0, 3.0), (1.0, 2.0)), 0.5)

    def test_sandwich_on_passing_pair(self):
        kp, kq = expectile(0.3), expectile(0.7)
        obs = (0.0, 1.0, 2.0, 5.0)
        ws = ws_for(kq, obs)
        for t in ws.parameter_grid[::16]:
            p = construct_multiplier(kp, kq, ws, t)
            assert p >= 0.0
            for z in obs:
                lhs = kp.eval(z, t)
                rhs = p * kq.eval(z, t)
                assert lhs <= rhs + 1e-10 * max(abs(lhs), abs(rhs), 1.0)


class TestDerivativeCondition:
    OBS = (0.0, 1.0, 2.0, 5.0)

    def test_identical_kernels(self):
        kp = expectile(0.4)
        v = check_derivative_condition(kp, kp, ws_for(kp, self.OBS))
        assert v.status == "NoCounterexample"

    def test_lognormal_pair(self):
        kp, kq = lognormal(1.0), lognormal(4.0)
        ws = ws_for(kq, (1.0, math.e, math.e ** 2))
        v = check_derivative_condition(kp, kq, ws)
        assert v.status == "NoCounterexample"

    def test_expectile_ordered(self):
        v = check_derivative_condition(expectile(0.3), expectile(0.7),
                                       ws_for(expectile(0.7), (0.0, 1.0)))
        assert v.status == "NoCounterexample"

    def test_expectile_reversed(self):
        v = check_derivative_condition(expectile(0.7), expectile(0.3),
                                       ws_for(expectile(0.3), (0.0, 1.0)))
        assert v.status == "Counterexample"

    def test_different_theta1_inconclusive(self):
        kp = make_kernel(FamilySpec("gamma_rate", {"p": 1.0}))
        kq = make_kernel(FamilySpec("gamma_rate", {"p": 2.0}))
        v = check_derivative_condition(kp, kq, ws_for(kq, (1.0, 2.0)))
        assert v.status == "Inconclusive"

    @pytest.mark.parametrize("obs", [(1000.0, 1500.0), (1e4, 2e4)])
    def test_difference_step_scales_with_t0(self, obs):
        # x - t with its exact d2 against itself by central difference: an
        # absolute step of 1e-6 at |t0| >= 1e3 rounds beyond the 1e-8 slack
        exact = PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x,
                          d2=lambda x, t: -1.0, name="exact")
        diff = PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x, name="diff")
        ws = WitnessSet(obs, (1.0,))
        for kp, kq in ((exact, diff), (diff, exact)):
            v = check_derivative_condition(kp, kq, ws)
            assert (v.status, v.grid) == ("NoCounterexample", {"fd_step": _FD_STEP})
        assert abs(_d2(diff, obs[1], obs[1]) + 1.0) <= 1e-9

    @pytest.mark.parametrize("k", range(-20, 41, 4))
    def test_difference_step_stays_inside_theta(self, k):
        # ln(x) - ln(t) against itself near 0: an absolute step of 1e-6
        # from t0 = 2^k 1e-9 would evaluate ln at t0 - h < 0
        x0 = 2.0 ** k * 1e-9
        kernels = [PsiKernel(OpenInterval(0.0, math.inf),
                             compile_expr(parse("ln(x) - ln(t)")), name=n)
                   for n in ("psi", "phi")]
        v = check_derivative_condition(*kernels, WitnessSet((x0, 2 * x0, 3 * x0), ()))
        assert (v.status, v.grid) == (NO_COUNTEREXAMPLE, {"fd_step": _FD_STEP})

    @pytest.mark.parametrize("theta, t", [((0.0, 1.0), 1e-9), ((0.0, 1.0), 1.0 - 1e-12),
                                          ((-1e-7, 1e-7), 0.0), ((5.0, math.inf), 5.5),
                                          ((-math.inf, -3.0), -3.0000001)])
    def test_difference_step_is_halved_to_fit(self, theta, t):
        theta = OpenInterval(*theta)
        seen = []

        def ev(x, s):
            seen.append(s)
            return x - s

        d = _d2(PsiKernel(theta, ev, name="counting"), t, t)
        assert len(seen) == 2 and all(theta.contains(s) for s in seen)
        # t +- h rounds on the scale of the end that it fits next to
        assert abs(d + 1.0) <= 1e-3

    def test_theta1_one_ulp_apart(self):
        # phi's root is one ulp below psi's at every x in [1, 2): theta1 is
        # shared, and t0, their midpoint, is off one kernel's root by an ulp,
        # which is the most any instance's sides may differ by
        below = lambda x: math.nextafter(x, -math.inf)  # noqa: E731
        kp = PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x,
                       d2=lambda x, t: -1.0, name="psi")
        kq = PsiKernel(LINE, lambda x, t: below(x) - t, theta1=below,
                       d2=lambda x, t: -1.0, name="phi")
        ws = WitnessSet((1.25, 1.5, 1.75), ())
        for a, b in ((kp, kq), (kq, kp)):
            assert check_derivative_condition(a, b, ws).status == NO_COUNTEREXAMPLE

    @pytest.mark.parametrize("phi", ["exp(x)-exp(t)", "exp(x/3)-exp(t/3)",
                                     "exp(x/7)-exp(t/7)"])
    @pytest.mark.parametrize("obs", [(0.71021398,), (-2.7570937309153347, -0.0844338206),
                                     (0.5002922, 0.0281211349), (-1.4, -2.4403688138855, 1.3)])
    def test_solved_theta1_ties_at_y_equal_x(self, phi, obs):
        # both theta1 solved, each to its own rounding of the root, and
        # exp(x/c) - exp(t/c) cancels there: the instance y = x is a tie,
        # and x - t orders below the convex phi everywhere else
        line = OpenInterval(-50.0, 50.0)
        kp = PsiKernel(line, compile_expr(parse("x-t")), name="psi")
        kq = PsiKernel(line, compile_expr(parse(phi)), name="phi")
        ws = WitnessSet(obs, ())
        assert check_derivative_condition(kp, kq, ws).status == NO_COUNTEREXAMPLE
        v = check_derivative_condition(kq, kp, ws)
        assert v.status == (COUNTEREXAMPLE if len(obs) > 1 else NO_COUNTEREXAMPLE)
        assert v.witness is None or v.witness["x"] != v.witness["y"]


class TestCheckEquality:
    def test_mathieu_scaled(self):
        kp = make_kernel(FamilySpec("mathieu", {}, f=lambda u: u))
        kq = make_kernel(FamilySpec("mathieu", {}, f=lambda u: 2.0 * u))
        obs = (0.0, 1.0, 3.0)
        v = check_equality(kp, kq, ws_for(kq, obs), max_n=5, trials=50)
        assert v.status == "NoCounterexample"

    def test_lognormal_variances(self):
        kp, kq = lognormal(1.0), lognormal(4.0)
        obs = (1.0, math.e, math.e ** 2)
        v = check_equality(kp, kq, ws_for(kq, obs), max_n=5, trials=50)
        assert v.status == "NoCounterexample"
        # both estimators are the mean of ln x
        s = WeightedSample.uniform(obs)
        expected = sum(math.log(x) for x in obs) / 3.0
        assert solve_sign_change(kp, s).theta == pytest.approx(expected, abs=1e-10)

    def test_mathieu_square_differs(self):
        kp = make_kernel(FamilySpec("mathieu", {}, f=lambda u: u))
        kq = make_kernel(FamilySpec("mathieu", {}, f=lambda u: u * u))
        obs = (0.0, 1.0, 3.0)
        v = check_equality(kp, kq, ws_for(kq, obs), max_n=5, trials=50)
        assert v.status == "Counterexample"


class TestCountValidation:
    OBS = (0.0, 1.0, 2.0, 5.0)

    @pytest.mark.parametrize("kwargs", [
        {"grid_points": 1}, {"grid_points": 0}, {"random_points": -1}])
    def test_witness_set_counts(self, kwargs):
        with pytest.raises(InvalidArgument):
            build_witness_set(expectile(0.3), self.OBS, **kwargs)

    def test_witness_set_needs_observations(self):
        with pytest.raises(InvalidArgument):
            build_witness_set(expectile(0.3), [])

    @pytest.mark.parametrize("check", [check_direct, check_equality])
    @pytest.mark.parametrize("kwargs", [{"max_n": 0}, {"trials": 0}, {"trials": -3}])
    def test_sampling_counts(self, check, kwargs):
        kp, kq = expectile(0.7), expectile(0.3)
        with pytest.raises(InvalidArgument):
            check(kp, kq, ws_for(kq, self.OBS), **kwargs)

    @pytest.mark.parametrize("max_km", [1, 0])
    def test_two_point_counts(self, max_km):
        with pytest.raises(InvalidArgument):
            check_two_point(expectile(0.7), expectile(0.3), 0.0, 5.0, max_km=max_km)

    def test_smallest_counts_still_decide(self):
        kp, kq = expectile(0.7), expectile(0.3)
        ws = build_witness_set(kq, self.OBS, grid_points=2, random_points=0)
        assert len(ws.parameter_grid) == 2
        assert check_two_point(kp, kq, 0.0, 5.0, max_km=2).status == "Counterexample"


class TestNonFiniteSum:
    """A kernel that is NaN from t = 5 on: its solves on samples above 5
    report NonFiniteSum, which the checks turn into Inconclusive (the NaN
    used to read as the non-positive side and give a wrong estimate)."""

    KERNEL = PsiKernel(LINE, lambda x, t: x - t if t < 5.0 else math.nan,
                       theta1=lambda x: x, name="nan_beyond_5")

    @pytest.mark.parametrize("check", [check_direct, check_equality])
    def test_sampling_checks(self, check):
        kq = expectile(0.5)
        v = check(self.KERNEL, kq, ws_for(kq, (6.0, 7.0)), max_n=3, trials=5)
        assert v.status == "Inconclusive"
        assert v.witness["error"] == "solver failed with status NonFiniteSum"
        assert list(v.witness) == ["sample", "error", "trial"]

    def test_two_point(self):
        v = check_two_point(self.KERNEL, expectile(0.5), 6.0, 7.0, max_km=4)
        assert v.status == "Inconclusive"
        assert v.witness == {"k": 1, "m": 1,
                             "error": "solver failed with status NonFiniteSum"}


class TestNonFiniteSides:
    """A side of a pointwise inequality that overflows to inf has lost its
    size; the slack test then reads inf - inf = NaN as a pass.  Such an
    instance makes the check Inconclusive unless a counterexample is found."""

    OBS = (0.0, 1000.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_derivative_side_at_y_equal_x_not_finite(self, bad):
        # phi is bad at x = 1 alone, so the instance y = x = 1 gives no
        # slack; the reversed pair's counterexample at x = 1, y = 0 stands
        kq = expectile(0.3)
        odd = dataclasses.replace(
            kq, eval=lambda x, t: bad if x == 1.0 else kq.eval(x, t), terms=None)
        v = check_derivative_condition(expectile(0.7), odd, WitnessSet((1.0, 0.0), ()))
        assert (v.status, v.witness["x"], v.witness["y"]) == (COUNTEREXAMPLE, 1.0, 0.0)

    def test_ratio_cross_product_overflow(self):
        # At t = 100, rhs = psi(1000, t) phi(0, t) is really about -1e393,
        # far below lhs ~ -900, but it overflows to -inf.
        kp = PsiKernel(LINE, compile_expr(parse("exp(x-t)-1")), name="psi")
        kq = PsiKernel(LINE, compile_expr(parse("x-t")), name="phi")
        v = check_ratio_condition(kp, kq, WitnessSet(self.OBS, (1.0, 2.0, 100.0)))
        assert v.status == "Inconclusive"
        assert list(v.witness) == ["stage", "x", "y", "t", "lhs", "rhs"]
        assert v.witness["stage"] == "cross"
        assert not math.isfinite(v.witness["rhs"])

    def test_derivative_overflow(self):
        # psi = e^(x-t) - 1 above t (inf where e^(x-t) overflows), x - t
        # below; phi = x - t.  The only instance that fails, x = 0 and
        # y = 1000, has lhs = e^1000 - 1 > rhs = 1000.
        def ev(x, t):
            if x <= t:
                return x - t
            return math.inf if x - t > 700.0 else math.expm1(x - t)

        def d2(x, t):
            return -1.0

        kp = PsiKernel(LINE, ev, theta1=lambda x: x, d2=d2, name="psi")
        kq = PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x, d2=d2,
                       name="phi")
        v = check_derivative_condition(kp, kq, WitnessSet(self.OBS, (1.0,)))
        assert v.status == "Inconclusive"
        assert v.witness == {"x": 0.0, "y": 1000.0, "t0": 0.0,
                             "lhs": math.inf, "rhs": 1000.0}

    def test_counterexample_wins(self):
        # The same kernels with a finite failing instance (x = 0, y = 1)
        # after the overflowing one: the counterexample is reported.
        kp = PsiKernel(LINE, compile_expr(parse("exp(x-t)-1")), theta1=lambda x: x,
                       d2=lambda x, t: -math.exp(x - t), name="psi")
        kq = PsiKernel(LINE, compile_expr(parse("x-t")), theta1=lambda x: x,
                       d2=lambda x, t: -1.0, name="phi")
        v = check_derivative_condition(kp, kq, WitnessSet((0.0, 1000.0, 1.0), (1.0,)))
        assert v.status == "Counterexample"
        assert (v.witness["x"], v.witness["y"]) == (0.0, 1.0)


class TestRemarkRegression:
    """Kernels psi(x,t) = -x t and phi(x,t) = -x (t+1) over observations
    {1, 2}: theta_psi is 0, theta_phi is -1, the phi-hull is empty, and the
    ordering fails already at n=1."""

    def kernels(self):
        kp = PsiKernel(LINE, lambda x, t: -x * t,
                       theta1=lambda x: 0.0, name="scaled_line")
        kq = PsiKernel(LINE, lambda x, t: -x * (t + 1.0),
                       theta1=lambda x: -1.0, name="shifted_line")
        return kp, kq

    def test_thetas(self):
        kp, kq = self.kernels()
        for xs in ([1.0], [2.0], [1.0, 2.0]):
            s = WeightedSample.uniform(xs)
            assert abs(solve_sign_change(kp, s).theta) <= 1e-10
            assert abs(solve_sign_change(kq, s).theta + 1.0) <= 1e-10

    def test_phi_hull_empty(self):
        _, kq = self.kernels()
        assert empirical_theta1_hull(kq, [1.0, 2.0]) is None

    def test_counterexample_at_n1(self):
        kp, kq = self.kernels()
        ws = ws_for(kq, (1.0, 2.0))
        assert ws.parameter_grid == ()
        v = check_direct(kp, kq, ws, max_n=1, trials=5)
        assert v.status == "Counterexample"
        assert len(v.witness["sample"]) == 1


class TestEquivalenceConsistency:
    @pytest.mark.parametrize(
        "name,kp,kq,obs,expect_ce",
        gen.comparison_corpus(),
        ids=[c[0] for c in gen.comparison_corpus()])
    def test_conditions_agree(self, name, kp, kq, obs, expect_ce):
        ws = ws_for(kq, obs)
        expected = "Counterexample" if expect_ce else "NoCounterexample"
        v_direct = check_direct(kp, kq, ws, max_n=6, trials=100)
        v_two = check_two_point(kp, kq, obs[0], obs[-1], max_km=14)
        v_ratio = check_ratio_condition(kp, kq, ws)
        assert v_direct.status == expected
        assert v_two.status == expected
        assert v_ratio.status == expected
        v_deriv = check_derivative_condition(kp, kq, ws)
        if v_deriv.status != "Inconclusive":
            assert v_deriv.status == expected


def _stalling(x, t):
    # psi(x, t) = tanh(x - t) below x = 3 and +2 from there on; theta1
    # claims x, so the witness set builds, but a sample with k points below 3
    # and m from 3 on has no negative part when 2m >= k: its solve fails.
    return math.tanh(x - t) if x < 3.0 else 2.0


STALLING = PsiKernel(LINE, _stalling, theta1=lambda x: x, name="stalling")
MEAN = PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x, name="mean")
# The mean's kernel with its sign flipped for 4 < t < 4.5: the same estimates
# on samples whose mean lies below 4, but opposite sums on that window.
FLIPPED = PsiKernel(LINE, lambda x, t: (t - x) if 4.0 < t < 4.5 else (x - t),
                    name="flipped")


def _pinned_pairs():
    """(name, kernel psi, kernel phi, observations) for every pinned pair."""
    pairs = [(name, kp, kq, obs) for name, kp, kq, obs, _ in gen.comparison_corpus()]
    mathieu = [make_kernel(FamilySpec("mathieu", {}, f=f)) for f in
               (lambda u: u, lambda u: 2.0 * u, lambda u: u * u)]
    pairs += [
        ("mathieu_scaled", mathieu[0], mathieu[1], (0.0, 1.0, 3.0)),
        ("mathieu_square", mathieu[0], mathieu[2], (0.0, 1.0, 3.0)),
        ("lognormal_variances", lognormal(1.0), lognormal(4.0),
         (1.0, math.e, math.e ** 2)),
        ("normal_var_shifted",
         make_kernel(FamilySpec("normal_var", {"m": 0.0})),
         make_kernel(FamilySpec("normal_var", {"m": 1.0})), (-1.0, 0.5, 2.0)),
        ("gamma_rate_theta1_differ",
         make_kernel(FamilySpec("gamma_rate", {"p": 1.0})),
         make_kernel(FamilySpec("gamma_rate", {"p": 2.0})), (1.0, 2.0)),
        ("stalling_mixed", STALLING, expectile(0.5), (0.0, 1.0, 5.0)),
        ("stalling_only", STALLING, expectile(0.5), (5.0, 6.0)),
        ("sign_window", MEAN, FLIPPED, (0.0, 1.0, 5.0)),
    ]
    return pairs


def _outcome(fn):
    """A verdict as (status, witness, grid), or the error it raised."""
    try:
        v = fn()
    except PsiEstError as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    if isinstance(v, float):
        return v
    return {"status": v.status, "witness": v.witness, "grid": v.grid}


def _verdict_record(kp, kq, obs):
    """Every comparison verdict, and multipliers on a slice of the grid,
    at reduced sizes so the whole table runs in about a second."""
    ws = build_witness_set(kq, obs, seed=0, grid_points=33, random_points=16)
    return {
        "direct": _outcome(lambda: check_direct(kp, kq, ws, max_n=6, trials=60)),
        "two-point": _outcome(
            lambda: check_two_point(kp, kq, min(obs), max(obs), max_km=12)),
        "ratio": _outcome(lambda: check_ratio_condition(kp, kq, ws)),
        "derivative": _outcome(lambda: check_derivative_condition(kp, kq, ws)),
        "equality": _outcome(lambda: check_equality(kp, kq, ws, max_n=5, trials=40)),
        "multiplier": [[t, _outcome(lambda: construct_multiplier(kp, kq, ws, t))]
                       for t in ws.parameter_grid[::4] + (-math.inf,)],
    }


PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "comparison_pins.json")


class TestVerdictPins:
    """Status, witness (in key order), grid meta and multipliers of every
    check, exactly as recorded in comparison_pins.json.  Regenerate only on
    purpose, with  PYTHONPATH=src python tests/test_comparison.py"""

    @pytest.mark.parametrize("name,kp,kq,obs", _pinned_pairs(),
                             ids=[p[0] for p in _pinned_pairs()])
    def test_pinned(self, name, kp, kq, obs):
        with open(PINS_PATH, encoding="utf-8") as fh:
            pins = json.load(fh)
        got = json.dumps(_verdict_record(kp, kq, obs))
        assert got == json.dumps(pins[name])


# --------------------------------------------------------------------------
# The comparison checks as they were before the one verdict rule, copied
# verbatim apart from their names: each check kept its own verdict
# bookkeeping.  The equality check's sign test is the one from before the
# psi columns, calling weighted_sum at every grid t, and the random cases
# are drawn as before repeats were dropped at the draw: one sample per
# trial.  TestAgainstReference holds the checks to them.


def _non_finite(lhs: float, rhs: float) -> bool:
    """A side of lhs <= rhs is inf or NaN: an overflowed product has lost its
    size, and the slack test then always passes (inf - inf is NaN)."""
    return not (math.isfinite(lhs) and math.isfinite(rhs))


def reference_sign_witness(kpsi, kphi, sample: WeightedSample, grid) -> Optional[dict]:
    """The first grid t where the two weighted sums have opposite signs,
    both clear of zero, or None."""
    for t in grid:
        sp = weighted_sum(kpsi, sample, t)
        sq = weighted_sum(kphi, sample, t)
        slack = 1e-9 * max(abs(sp), abs(sq), 1.0)  # _slack as it was then
        zp = abs(sp) <= slack
        zq = abs(sq) <= slack
        if not (zp or zq) and (sp > 0) != (sq > 0):
            return {"t": t, "sum_psi": sp, "sum_phi": sq}
    return None


def reference_scan(kpsi, kphi, cases, cfg: SolverConfig, equal_on=None):
    """(status, witness) of solving both estimators on each (head, sample,
    tail) case: Inconclusive at the first solver failure, Counterexample at
    the first case with theta_psi above theta_phi or, given a grid equal_on,
    with the two apart or their sums of opposite sign on the grid."""
    for head, sample, tail in cases:
        try:
            tp = _solve(kpsi, sample, cfg)
            tq = _solve(kphi, sample, cfg)
        except PsiEstError as exc:
            return INCONCLUSIVE, {**head, "error": str(exc), **tail}
        tol = _pair_tol(cfg, tp, tq)
        if (abs(tp - tq) > tol) if equal_on is not None else (tp > tq + tol):
            return COUNTEREXAMPLE, {**head, "theta_psi": tp, "theta_phi": tq, **tail}
        if equal_on is not None:
            found = reference_sign_witness(kpsi, kphi, sample, equal_on)
            if found is not None:
                return COUNTEREXAMPLE, {**head, **found, **tail}
    return NO_COUNTEREXAMPLE, None


def reference_random_cases(ws: WitnessSet, max_n: int, trials: int):
    """Seeded samples of sizes 1..max_n drawn from the witness observations,
    as scan cases.  The counts are checked now, the samples drawn lazily."""
    _require_count("max_n", max_n, 1)
    _require_count("trials", trials, 1)
    rng = random.Random(ws.random_seed)
    obs = ws.observations

    def cases():
        for trial in range(trials):
            n = rng.randint(1, max_n)
            xs = tuple(rng.choice(obs) for _ in range(n))
            yield {"sample": list(xs)}, WeightedSample.uniform(xs), {"trial": trial}

    return cases()


def reference_direct(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    max_n: int = 6,
    trials: int = 200,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Estimator ordering theta_psi <= theta_phi on random samples drawn from
    the witness observations, sizes 1..max_n."""
    cases = reference_random_cases(ws, max_n, trials)
    meta = {"max_n": max_n, "trials": trials, "seed": ws.random_seed}
    status, witness = reference_scan(kpsi, kphi, cases, cfg)
    return ComparisonVerdict(status, "direct", witness, meta)


def reference_two_point(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    x: float,
    y: float,
    max_km: int = 20,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Ordering on all replicated two-point samples (x taken k times, y taken
    m times, k+m <= max_km), realized as weights (k, m) on (x, y)."""
    if x == y:
        raise InvalidArgument("two-point check needs distinct observations")
    _require_count("max_km", max_km, 2)
    cases = (({"k": k, "m": m}, WeightedSample((x, y), (float(k), float(m))), {})
             for k in range(1, max_km) for m in range(1, max_km - k + 1))
    status, witness = reference_scan(kpsi, kphi, cases, cfg)
    return ComparisonVerdict(status, "two-point", witness, {"max_km": max_km})


def reference_ratio(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Two-stage pointwise condition: single-observation ordering on every
    witness, then the cross-product inequality
    psi(x,t) phi(y,t) <= psi(y,t) phi(x,t) for witness pairs whose phi
    estimates straddle each grid t.  Without a counterexample, the first
    cross instance with a side inf or NaN makes the verdict Inconclusive."""
    meta = {"grid_size": len(ws.parameter_grid), "seed": ws.random_seed}
    t1_psi = {x: theta1(kpsi, x, cfg) for x in ws.observations}
    t1_phi = {x: theta1(kphi, x, cfg) for x in ws.observations}
    for x in ws.observations:
        a, b = t1_psi[x], t1_phi[x]
        if a > b + _pair_tol(cfg, a, b):
            return ComparisonVerdict(
                COUNTEREXAMPLE, "ratio",
                {"stage": "theta1", "x": x, "theta1_psi": a, "theta1_phi": b},
                meta)
    unsure = None
    for x in ws.observations:
        for y in ws.observations:
            if not t1_phi[x] < t1_phi[y]:
                continue
            for t in ws.parameter_grid:
                if not (t1_phi[x] < t < t1_phi[y]):
                    continue
                lhs = kpsi.eval(x, t) * kphi.eval(y, t)
                rhs = kpsi.eval(y, t) * kphi.eval(x, t)
                bad = lhs > rhs + _slack(lhs, rhs, 1e-10)
                if bad or (unsure is None and _non_finite(lhs, rhs)):
                    witness = {"stage": "cross", "x": x, "y": y, "t": t,
                               "lhs": lhs, "rhs": rhs}
                    if bad:
                        return ComparisonVerdict(COUNTEREXAMPLE, "ratio", witness, meta)
                    unsure = witness
    if unsure is not None:
        return ComparisonVerdict(INCONCLUSIVE, "ratio", unsure, meta)
    return ComparisonVerdict(NO_COUNTEREXAMPLE, "ratio", None, meta)


def reference_shared_theta1(kpsi, kphi, ws: WitnessSet, cfg: SolverConfig):
    """The kernels' common theta1 on each witness observation, as
    ({x: midpoint}, None), or (None, witness) for the first observation
    where the two differ."""
    t1s = {}
    for x in ws.observations:
        a = theta1(kpsi, x, cfg)
        b = theta1(kphi, x, cfg)
        if abs(a - b) > 1e-8 * (1.0 + max(abs(a), abs(b))):
            return None, {"reason": "theta1 values differ", "x": x,
                          "theta1_psi": a, "theta1_phi": b}
        t1s[x] = 0.5 * (a + b)
    return t1s, None


def reference_derivative(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Pointwise slope condition at shared single-observation estimates:
    -psi(y, t0)/d2_psi(x, t0) <= -phi(y, t0)/d2_phi(x, t0) with
    t0 = theta1(x).  Requires both kernels to share theta1 on the witnesses
    (else Inconclusive) and nonvanishing parameter derivatives.  An
    instance fails beyond 1e-8 max(|lhs|, |rhs|) plus |lhs| + |rhs| at
    y = x, whose sides are evaluated first, once.  Without a
    counterexample, the first instance with a side inf or NaN makes the
    verdict Inconclusive."""
    meta = {"fd_step": _FD_STEP}
    t1s, differ = reference_shared_theta1(kpsi, kphi, ws, cfg)
    if differ is not None:
        return ComparisonVerdict(INCONCLUSIVE, "derivative", differ, meta)
    unsure = None
    for i, x in enumerate(ws.observations):
        t0 = t1s[x]
        if not (kpsi.theta.contains(t0) and kphi.theta.contains(t0)):
            continue
        dp = _d2(kpsi, x, t0)
        dq = _d2(kphi, x, t0)
        if abs(dp) < 1e-8 or abs(dq) < 1e-8:
            raise DegenerateDerivative(
                f"parameter derivative vanishes at theta1({x!r})")
        at_x = (-kpsi.eval(x, t0) / dp, -kphi.eval(x, t0) / dq)
        for j, y in enumerate(ws.observations):
            if j == i:
                lhs, rhs = at_x
            else:
                lhs = -kpsi.eval(y, t0) / dp
                rhs = -kphi.eval(y, t0) / dq
            slack = 1e-8 * max(abs(lhs), abs(rhs)) + abs(at_x[0]) + abs(at_x[1])
            bad = lhs > rhs + slack
            if bad or (unsure is None and _non_finite(lhs, rhs)):
                witness = {"x": x, "y": y, "t0": t0, "lhs": lhs, "rhs": rhs}
                if bad:
                    return ComparisonVerdict(COUNTEREXAMPLE, "derivative", witness, meta)
                unsure = witness
    if unsure is not None:
        return ComparisonVerdict(INCONCLUSIVE, "derivative", unsure, meta)
    return ComparisonVerdict(NO_COUNTEREXAMPLE, "derivative", None, meta)


def reference_equality(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    max_n: int = 6,
    trials: int = 200,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Estimator equality: ordering in both directions on random samples,
    plus sign agreement of the two weighted sums on the parameter grid."""
    cases = reference_random_cases(ws, max_n, trials)
    meta = {"max_n": max_n, "trials": trials, "seed": ws.random_seed,
            "grid_size": len(ws.parameter_grid)}
    _, differ = reference_shared_theta1(kpsi, kphi, ws, cfg)
    if differ is not None:
        return ComparisonVerdict(INCONCLUSIVE, "equality", differ, meta)

    status, witness = reference_scan(kpsi, kphi, cases, cfg, equal_on=ws.parameter_grid)
    return ComparisonVerdict(status, "equality", witness, meta)


def _counted(kernel, counts):
    """The kernel with its psi evaluations counted in counts["eval"], one
    per eval call and one per x of a terms call, and its d2 calls in
    counts["d2"]."""
    ev, terms, d2 = kernel.eval, kernel.terms, kernel.d2

    def counted_eval(x, t):
        counts["eval"] += 1
        return ev(x, t)

    def counted_terms(cs, t):
        counts["eval"] += len(cs)
        return terms(cs, t)

    def counted_d2(x, t):
        counts["d2"] += 1
        return d2(x, t)

    return dataclasses.replace(kernel, eval=counted_eval, terms=counted_terms,
                               d2=None if d2 is None else counted_d2)


def _distinct(cases):
    """The cases whose sample no earlier case had, xs and weights to the
    bit (-0.0 told from 0.0)."""
    seen = set()
    for case in cases:
        key = repr((case[1].xs, case[1].weights))
        if key not in seen:
            seen.add(key)
            yield case


def reference_direct_distinct(kpsi, kphi, ws: WitnessSet, max_n: int, trials: int):
    """reference_direct's finding over the distinct samples only: the work
    check_direct does, which skips a sample it has seen."""
    cases = _distinct(reference_random_cases(ws, max_n, trials))
    status, witness = reference_scan(kpsi, kphi, cases, SolverConfig())
    return ComparisonVerdict(status, "direct", witness, {})


def _checks(args):
    """(name, check, reference) for each check with the keyword arguments
    drawn in args."""
    max_n, trials, max_km = args["max_n"], args["trials"], args["max_km"]
    return [
        ("direct", lambda kp, kq, ws: check_direct(kp, kq, ws, max_n, trials),
         lambda kp, kq, ws: reference_direct(kp, kq, ws, max_n, trials)),
        ("two-point",
         lambda kp, kq, ws: check_two_point(kp, kq, min(ws.observations),
                                            max(ws.observations), max_km),
         lambda kp, kq, ws: reference_two_point(kp, kq, min(ws.observations),
                                                max(ws.observations), max_km)),
        ("ratio", check_ratio_condition, reference_ratio),
        ("derivative", check_derivative_condition, reference_derivative),
        ("equality", lambda kp, kq, ws: check_equality(kp, kq, ws, max_n, trials),
         lambda kp, kq, ws: reference_equality(kp, kq, ws, max_n, trials)),
    ]


def _run_counted(check, kp, kq, ws):
    """The check's outcome as JSON text (status, witness in key order, grid
    meta, or the error raised) and the kernel calls it made."""
    counts = collections.Counter()
    outcome = _outcome(lambda: check(_counted(kp, counts), _counted(kq, counts), ws))
    return json.dumps(outcome), dict(counts)


def _exp_above(x, t):
    # x - t up to t = x, e^(x-t) - 1 beyond, inf where e^(x-t) overflows
    if x <= t:
        return x - t
    return math.inf if x - t > 700.0 else math.expm1(x - t)


# (name, kernel psi, kernel phi, observation range): the regression corpus,
# a kernel whose solves fail on some samples, and two pairs whose ratio and
# slope sides overflow; the second has no counterexample where all its
# observations are far apart, so its overflows give Inconclusive.
_ORACLE_RANGES = {"expectile": (-2.0, 6.0), "beta_alpha": (0.05, 0.95),
                  "gamma_shape": (0.2, 5.0), "lomax_lambda": (0.2, 5.0),
                  "lomax_alpha": (0.2, 5.0)}
ORACLE_PAIRS = [(name, kp, kq, _ORACLE_RANGES[name.rsplit("_", 1)[0]])
                for name, kp, kq, _, _ in gen.comparison_corpus()] + [
    ("stalling", STALLING, expectile(0.5), (-1.0, 6.0)),
    ("overflow", PsiKernel(LINE, compile_expr(parse("exp(x-t)-1")), name="psi"),
     PsiKernel(LINE, compile_expr(parse("x-t")), name="phi"), (-10.0, 4000.0)),
    ("overflow_above", PsiKernel(LINE, _exp_above, theta1=lambda x: x,
                                 d2=lambda x, t: -1.0, name="psi"),
     PsiKernel(LINE, lambda x, t: x - t, theta1=lambda x: x,
               d2=lambda x, t: -1.0, name="phi"), (-10.0, 4000.0)),
]


def _oracle_example(name, obs):
    """A case as oracle_cases draws it, for the named pair and observations."""
    _, kp, kq, _ = next(p for p in ORACLE_PAIRS if p[0] == name)
    ws = build_witness_set(kq, obs, seed=0, grid_points=5, random_points=3)
    return name, kp, kq, ws, {"max_n": 4, "trials": 10, "max_km": 5}


def _lattice_obs(draw, lo, hi):
    # observations on a lattice, so ties and empty hulls occur; on the coarse
    # one the overflowing pairs' observations are all far apart
    steps = draw(st.sampled_from((4, 40)))
    return tuple(lo + (hi - lo) * i / steps for i in
                 draw(st.lists(st.integers(1, steps - 1), min_size=1, max_size=8)))


@st.composite
def oracle_cases(draw):
    name, kp, kq, (lo, hi) = draw(st.sampled_from(ORACLE_PAIRS))
    obs = _lattice_obs(draw, lo, hi)
    ws = build_witness_set(kq, obs, seed=draw(st.integers(0, 5)),
                           grid_points=draw(st.integers(2, 9)),
                           random_points=draw(st.integers(0, 6)))
    args = {"max_n": draw(st.integers(1, 6)), "trials": draw(st.integers(1, 20)),
            "max_km": draw(st.integers(2, 8))}
    return name, kp, kq, ws, args


class TestAgainstReference:
    """Every check gives the reference's status, witness (in key order) and
    grid meta, or raises its error.  Three make the same kernel calls: the
    two-point and derivative checks the reference's, the direct check the
    reference's over the distinct samples, as it skips repeats.  The
    ratio check first tries the multiplier certificate, at most two calls
    per witness and grid point, and scans the pairs only when it fails; the
    equality check evaluates psi once per kernel, witness and grid point
    for its sign test, and calls weighted_sum only past where a column
    stops.  So the calls of both are bounded by the reference's plus
    2 |obs| |grid|."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_cases())
    # a solver failure ends the scan; several slope sides overflow
    @example(_oracle_example("stalling", (0.0, 1.0, 5.0)))
    @example(_oracle_example("overflow_above", (0.0, 1000.0, 2000.0)))
    def test_same_verdicts_and_work(self, case):
        name, kp, kq, ws, args = case
        extra = 2 * len(ws.observations) * len(ws.parameter_grid)
        for check_name, check, reference in _checks(args):
            (got, got_calls), (want, want_calls) = (
                _run_counted(check, kp, kq, ws), _run_counted(reference, kp, kq, ws))
            assert got == want, (name, check_name, ws)
            if check_name in ("ratio", "equality"):
                assert got_calls.keys() <= {"eval"}, (name, check_name, ws)
                assert got_calls.get("eval", 0) <= want_calls.get("eval", 0) + extra, \
                    (name, check_name, ws)
            elif check_name == "direct":
                _, distinct_calls = _run_counted(
                    lambda a, b, w: reference_direct_distinct(
                        a, b, w, args["max_n"], args["trials"]), kp, kq, ws)
                assert got_calls == distinct_calls, (name, check_name, ws)
                assert got_calls.get("eval", 0) <= want_calls.get("eval", 0)
            else:
                assert got_calls == want_calls, (name, check_name, ws)

    def test_certificate_saves_kernel_calls(self):
        # forward gamma_shape pair: the multiplier certifies every grid
        # point, at 2 calls per witness where the scan makes 4 per pair
        _, kp, kq, ws, _ = _oracle_example("gamma_shape_forward",
                                           (0.5, 1.0, 2.0, 3.0, 4.0))
        got, got_calls = _run_counted(check_ratio_condition, kp, kq, ws)
        want, want_calls = _run_counted(reference_ratio, kp, kq, ws)
        assert got == want
        assert json.loads(got)["status"] == NO_COUNTEREXAMPLE
        assert got_calls["eval"] < want_calls["eval"]


def _flipped_upto50(x, t):
    if t > 50.0:
        raise DomainError(f"parameter {t!r} beyond 50")
    return FLIPPED.eval(x, t)


def _nan_at(x, t):
    # NaN at one observation and one grid point only
    return math.nan if (x == 1.0 and t == 0.3) else x - t


def _huge_flip(x, t):
    # the mean's kernel, but +-inf beyond its window's sign flip
    return 1e308 * (t - x) if 4.0 < t < 4.5 else x - t


def _infinite_apart(x, t):
    # the mean's kernel, but +inf below x = 1.5 and -inf above on a window
    if 4.0 < t < 4.5:
        return math.inf if x < 1.5 else -math.inf
    return x - t


def _negative_zero_apart(x, t):
    # tells the observation -0.0 from 0.0, on one window of t
    if x == 0.0 and math.copysign(1.0, x) < 0.0 and 30.0 < t < 31.0:
        return 1000.0
    return x - t


def _mean_kernel(ev, theta=LINE):
    return PsiKernel(theta, ev, theta1=lambda x: x)


# (name, kernel psi, kernel phi, witness set, max_n, trials, expected
# outcome): the equality check's sign test where its psi columns stop
# short of the grid, hold NaN or clamped values, or are reused
EQUALITY_CASES = [
    # the grid's top lies outside psi's Theta, with no witness below it
    ("theta_excludes_top", _mean_kernel(lambda x, t: x - t, OpenInterval(-math.inf, 4.0)),
     MEAN, WitnessSet((0.0, 1.0, 2.0), (0.5, 1.5, 4.5)), 3, 20,
     {"raises": "DomainError", "message": "parameter 4.5 outside Theta for kernel"}),
    # psi raises at t = 60, after the witness at 4.25
    ("raises_after_witness", _mean_kernel(_flipped_upto50), MEAN,
     WitnessSet((0.0, 1.0, 2.0), (1.0, 4.25, 60.0)), 3, 20,
     {"status": COUNTEREXAMPLE, "t": 4.25, "trial": 0}),
    # the first sample holding x = 1 has a NaN psi sum at t = 0.3
    ("nan_term", _mean_kernel(_nan_at), MEAN,
     WitnessSet((1.0, 2.0, 3.0), (0.3, 1.5, 2.5), 1), 3, 20,
     {"status": COUNTEREXAMPLE, "t": 0.3, "trial": 4}),
    # every term clamped to +-1e300, and the totals of two or more too
    ("clamped_term", _mean_kernel(_huge_flip), _mean_kernel(lambda x, t: 1e300 * (x - t)),
     WitnessSet((0.0, 1.0, 2.0), (1.0, 4.25)), 3, 20,
     {"status": COUNTEREXAMPLE, "sum_psi": 1e300, "sum_phi": -1e300}),
    # +-inf terms clamped to +-1e300 cancel to 0 where unclamped they give
    # NaN; a 1e300 sum is no witness against a small one of opposite sign
    ("opposite_infinite_terms", _mean_kernel(_infinite_apart), FLIPPED,
     WitnessSet((0.0, 2.0), (1.0, 4.25)), 3, 20,
     {"status": NO_COUNTEREXAMPLE}),
    # samples repeat over 30 trials: the columns are evaluated once
    ("repeated_sample", expectile(0.5), MEAN,
     WitnessSet((0.0, 1.0), (0.25, 0.5, 0.75)), 2, 30,
     {"status": NO_COUNTEREXAMPLE}),
    # trial 0 draws 0.0, and its column must not stand in for -0.0's
    ("negative_zero", _mean_kernel(_negative_zero_apart), MEAN,
     WitnessSet((0.0, -0.0, 1.0), (0.5, 2.0, 30.5), 2), 3, 20,
     {"status": COUNTEREXAMPLE, "t": 30.5, "trial": 1}),
]


class TestEqualityColumns:
    """The equality check's sign test on psi columns gives the reference's
    outcome, raised error or witness, at the same trial, on cases pinned
    where a column stops or holds an unusual value, within the kernel-call
    bound of TestAgainstReference."""

    @pytest.mark.parametrize("name,kp,kq,ws,max_n,trials,expected", EQUALITY_CASES,
                             ids=[c[0] for c in EQUALITY_CASES])
    def test_same_outcome(self, name, kp, kq, ws, max_n, trials, expected):
        got, got_calls = _run_counted(
            lambda a, b, w: check_equality(a, b, w, max_n, trials), kp, kq, ws)
        want, want_calls = _run_counted(
            lambda a, b, w: reference_equality(a, b, w, max_n, trials), kp, kq, ws)
        assert got == want
        outcome = json.loads(got)
        found = {**outcome, **(outcome.get("witness") or {})}
        assert {k: found.get(k) for k in expected} == expected
        extra = 2 * len(ws.observations) * len(ws.parameter_grid)
        assert got_calls["eval"] <= want_calls["eval"] + extra
        if name == "repeated_sample":
            assert got_calls["eval"] < want_calls["eval"]

    @pytest.mark.parametrize("grid,message", [
        ((5.0, 0.5), "parameter 5.0 outside Theta for psi"),
        ((0.5, 5.0), "observation -1.0 outside X for psi")])
    def test_checks_in_weighted_sum_order(self, grid, message):
        # on a sample no solve has checked: t = 5 lies outside psi's Theta
        # and x = -1 outside X, each raised where weighted_sum raises it
        kp = PsiKernel(OpenInterval(-math.inf, 4.0), lambda x, t: x - t,
                       domain_check=lambda x: x >= 0.0, name="psi")
        kq = PsiKernel(LINE, lambda x, t: t - x, domain_check=lambda x: x >= 0.0,
                       name="phi")
        sample = WeightedSample.uniform((1.0, -1.0))
        got = _outcome(lambda: _sign_witness(kp, kq, sample, grid, ({}, {})))
        want = _outcome(lambda: reference_sign_witness(kp, kq, sample, grid))
        assert got == want == {"raises": "DomainError", "message": message}


def _sums_outcome(rows):
    """repr of each float of each row rows yields, up to the error it
    raises, and that error."""
    got = []
    try:
        for row in rows:
            got.append(tuple(map(repr, row)))
    except Exception as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


class TestGridSums:
    """The equality scan's sums are weighted_sum's floats: from columns for
    a kernel without (q, g), from weighted_sum itself on an affine row."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(family_pairs(), st.sampled_from([
        ("mixed", make_kernel(FamilySpec("gamma_shape", {"lambda": 2.0})),
         make_kernel(FamilySpec("lomax_rate_lambda", {"alpha": 2.0})), (0.3, 1.0, 4.5)),
        ("mixed reversed", make_kernel(FamilySpec("lomax_rate_lambda", {"alpha": 0.5})),
         make_kernel(FamilySpec("lomax_shape_alpha", {"lambda": 2.0})), (0.3, 1.0, 4.5)),
    ])), st.data())
    def test_same_floats_as_weighted_sum(self, pair, data):
        _, kp, kq, obs = pair
        grid = build_witness_set(kq, obs, grid_points=9, random_points=0).parameter_grid
        grid = grid + (kp.theta.lo - 1.0,)  # a last t outside a half-line
        columns = ({}, {})
        for _ in range(3):  # later samples read the columns kept so far
            xs = data.draw(st.lists(st.sampled_from(obs), min_size=1, max_size=6))
            sample = WeightedSample.uniform(xs)
            got = _sums_outcome(_grid_sums(kp, kq, sample, grid, columns))
            want = _sums_outcome(
                (t, weighted_sum(kp, sample, t), weighted_sum(kq, sample, t)) for t in grid)
            assert got == want
            assert len(got[0]) == len(grid) - 1 and got[1][0] == "DomainError"


_SPECIAL_PAIRS = [p for p in ORACLE_PAIRS
                  if p[0] in ("stalling", "overflow", "overflow_above")]


@st.composite
def ratio_cases(draw):
    """(name, kernel psi, kernel phi, witness set): a family-row pair, or a
    pair whose solves fail or whose products overflow, on drawn points."""
    if draw(st.booleans()):
        name, kp, kq, obs = draw(family_pairs(max_obs=8))
    else:
        name, kp, kq, (lo, hi) = draw(st.sampled_from(_SPECIAL_PAIRS))
        obs = _lattice_obs(draw, lo, hi)
    ws = build_witness_set(kq, obs, seed=draw(st.integers(0, 5)),
                           grid_points=draw(st.integers(2, 17)),
                           random_points=draw(st.integers(0, 16)))
    return name, kp, kq, ws


def _expectile_upto4(x, t):
    # expectile 0.7, undefined beyond x = 4
    if x > 4.0:
        raise DomainError(f"observation {x!r} beyond 4")
    return (0.7 if x > t else 0.3) * (x - t)


class TestCertificateNaNTheta1:
    """A witness whose phi estimate is NaN lies neither below nor above any
    t, as in the pairwise scan.  Sorting it with the others for bisection
    must not move a witness to the wrong side: here, placed between the
    two others, it would leave no witness below t = 1 and a failing pair
    would be certified vacuously."""

    @staticmethod
    def _psi(scale_at_two):
        return PsiKernel(LINE, lambda x, t: (scale_at_two if x == 2.0 else 1.0) * (x - t))

    T1 = [(2.0, 2.0, 2.0), (9.0, math.nan, math.nan), (0.0, 0.0, 0.0)]

    def test_failing_pair_not_certified(self):
        # psi(0,1) phi(2,1) = -1 > psi(2,1) phi(0,1) = -2
        assert not _multiplier_certifies(self._psi(2.0), MEAN, self.T1, [1.0])

    def test_passing_pair_certified_without_the_nan_witness(self):
        kp = self._psi(1.0)
        without = [w for w in self.T1 if not math.isnan(w[2])]
        assert _multiplier_certifies(kp, MEAN, self.T1, [1.0])
        assert _multiplier_certifies(kp, MEAN, without, [1.0])


class TestScanSkipsRepeats:
    """A draw that repeats an earlier trial's is dropped where it is drawn,
    so it is neither built as a sample nor solved; the verdicts are the
    reference's, which builds and solves every trial."""

    @staticmethod
    def _count_solves(monkeypatch):
        from psiest import comparison

        calls = []
        solve = comparison.solve_sign_change
        monkeypatch.setattr(comparison, "solve_sign_change",
                            lambda k, s, cfg: calls.append(s.xs) or solve(k, s, cfg))
        return calls

    def _direct_solves(self, monkeypatch, kp, kq):
        # the compare_expectile_forward golden: 55 of 200 trials repeat
        ws = ws_for(kq, (0.0, 1.0, 2.0, 5.0))
        want = reference_direct(kp, kq, ws)
        calls = self._count_solves(monkeypatch)
        got = check_direct(kp, kq, ws)
        assert (got.status, got.witness, got.grid) == (want.status, want.witness, want.grid)
        assert got.status == NO_COUNTEREXAMPLE
        return calls

    def test_direct(self, monkeypatch):
        # of the 145 distinct samples, the estimators order all but the 11
        # whose observations are all equal (a tie): 22 solves
        calls = self._direct_solves(monkeypatch, expectile(0.3), expectile(0.7))
        assert len(calls) == 22
        assert all(len(set(xs)) == 1 for xs in calls)

    def test_direct_unscreened(self, monkeypatch):
        # kernels built by dataclasses.replace have no estimator: every
        # distinct sample is solved
        kp, kq = (dataclasses.replace(k, eval=k.eval)
                  for k in (expectile(0.3), expectile(0.7)))
        assert len(self._direct_solves(monkeypatch, kp, kq)) == 2 * 145

    def test_direct_below_the_screens_tol(self, monkeypatch):
        # the bound the screen rests on is checked from tol = 1e-12 on
        kp, kq = expectile(0.3), expectile(0.7)
        ws = ws_for(kq, (0.0, 1.0, 2.0, 5.0))
        calls = self._count_solves(monkeypatch)
        check_direct(kp, kq, ws, cfg=SolverConfig(1e-13))
        assert len(calls) == 2 * 145

    def test_equality(self, monkeypatch):
        # the compare_lognormal_equality golden: 11 of 50 trials repeat
        kp, kq = lognormal(1.0), lognormal(4.0)
        ws = ws_for(kq, (1.0, math.e, math.e ** 2))
        want = reference_equality(kp, kq, ws, trials=50)
        calls = self._count_solves(monkeypatch)
        got = check_equality(kp, kq, ws, trials=50)
        assert (got.status, got.witness, got.grid) == (want.status, want.witness, want.grid)
        assert len(calls) == 2 * 39

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_cases_are_the_distinct_draws(self, seed):
        # the same cases, trial indices and order as the reference's distinct
        ws = WitnessSet((0.0, -0.0, 1.0), (0.5,), random_seed=seed)

        def rows(cases):
            return [repr((head, s.xs, s.weights, tail)) for head, s, tail in cases]

        want = rows(_distinct(reference_random_cases(ws, 3, 60)))
        assert rows(_random_cases(ws, 3, 60)) == want
        assert len(want) < 60

    def test_direct_builds_one_sample_per_distinct_draw(self, monkeypatch):
        ws = WitnessSet((1.0, 2.0), (1.5,))
        draws = [s.xs for _, s, _ in reference_random_cases(ws, 2, 50)]
        built = []
        post_init = WeightedSample.__post_init__
        monkeypatch.setattr(WeightedSample, "__post_init__",
                            lambda s: built.append(s.xs) or post_init(s))
        assert check_direct(MEAN, MEAN, ws, max_n=2, trials=50).status == \
            NO_COUNTEREXAMPLE
        assert built == list(dict.fromkeys(draws))
        assert len(built) == 6 < len(draws)

    def test_negative_zero_is_no_repeat(self, monkeypatch):
        ws = WitnessSet((0.0, -0.0), (0.5,), random_seed=2)
        samples = [s.xs for _, s, _ in reference_random_cases(ws, 1, 20)]
        calls = self._count_solves(monkeypatch)
        check_direct(MEAN, MEAN, ws, max_n=1, trials=20)
        distinct = {repr(xs) for xs in samples}
        assert distinct == {"(0.0,)", "(-0.0,)"}
        assert len(calls) == 2 * 2


# Pairs whose kernels both have an estimator formula, so the ordering scans
# screen their solves: (name, psi, phi, observation range).  The ordered
# pairs of gen.py, four more rows at two known values (lognormal_mu's
# estimator does not depend on sigma2, so its pair ties on every sample),
# and two pairs whose estimates are about as close as the scan tells apart.
_SCREENED_PAIRS = [
    (name, FamilySpec(family, lo), FamilySpec(family, hi), _ORACLE_RANGES[name])
    for name, family, lo, hi, _ in gen.ORDERED_PAIRS] + [
    ("normal_var", FamilySpec("normal_var", {"m": 0.0}),
     FamilySpec("normal_var", {"m": 1.0}), (1.5, 10.0)),
    ("gamma_rate", FamilySpec("gamma_rate", {"p": 1.0}),
     FamilySpec("gamma_rate", {"p": 2.0}), (0.2, 5.0)),
    ("lognormal_mu", FamilySpec("lognormal_mu", {"sigma2": 1.0}),
     FamilySpec("lognormal_mu", {"sigma2": 4.0}), (0.2, 5.0)),
    ("laplace_scale", FamilySpec("laplace_scale", {"mu": 0.0}),
     FamilySpec("laplace_scale", {"mu": 1.0}), (1.5, 10.0)),
    # estimates apart by about the scan's tolerance, 10 width_tol
    ("expectile_close", FamilySpec("expectile", {"alpha": 0.5}),
     FamilySpec("expectile", {"alpha": 0.5 + 1e-11}), (-2.0, 6.0)),
    ("gamma_rate_close", FamilySpec("gamma_rate", {"p": 1.0}),
     FamilySpec("gamma_rate", {"p": 1.0 + 1e-11}), (0.2, 5.0)),
]


@st.composite
def screened_cases(draw):
    name, sp, sq, (lo, hi) = draw(st.sampled_from(_SCREENED_PAIRS))
    kp, kq = make_kernel(sp), make_kernel(sq)
    if draw(st.booleans()):
        name, kp, kq = name + " reversed", kq, kp
    ws = WitnessSet(_lattice_obs(draw, lo, hi), (), draw(st.integers(0, 5)))
    args = {"max_n": draw(st.integers(1, 6)), "trials": draw(st.integers(1, 30)),
            "max_km": draw(st.integers(2, 10)),
            "cfg": SolverConfig(draw(st.sampled_from((1e-12, 1e-6, 1e-3))))}
    return name, kp, kq, ws, args


class TestScreenKeepsVerdicts:
    """The direct and two-point checks skip the solves of a sample whose
    order the kernels' estimators settle; they give the reference's status,
    witness (in key order) and grid meta, or raise its error, which solves
    every sample.  TestAgainstReference cannot see the screen: its counted
    kernels come from dataclasses.replace, which drops the estimator."""

    @settings(deadline=None)
    @given(screened_cases())
    def test_same_verdicts(self, case):
        name, kp, kq, ws, args = case
        max_n, trials, max_km, cfg = args["max_n"], args["trials"], args["max_km"], args["cfg"]
        got = _outcome(lambda: check_direct(kp, kq, ws, max_n, trials, cfg))
        want = _outcome(lambda: reference_direct(kp, kq, ws, max_n, trials, cfg))
        assert json.dumps(got) == json.dumps(want), (name, ws)
        x, y = min(ws.observations), max(ws.observations)
        if x < y:
            got = _outcome(lambda: check_two_point(kp, kq, x, y, max_km, cfg))
            want = _outcome(lambda: reference_two_point(kp, kq, x, y, max_km, cfg))
            assert json.dumps(got) == json.dumps(want), (name, ws)

    def test_two_point_solves_only_what_is_unsettled(self, monkeypatch):
        # forward beta_alpha: every two-point sample is settled; reversed,
        # the first is solved and is the counterexample
        calls = TestScanSkipsRepeats._count_solves(monkeypatch)
        kp, kq = (make_kernel(FamilySpec("beta_alpha", {"beta": b})) for b in (1.0, 2.0))
        assert check_two_point(kp, kq, 0.3, 0.7).status == NO_COUNTEREXAMPLE
        assert calls == []
        assert check_two_point(kq, kp, 0.3, 0.7).status == COUNTEREXAMPLE
        assert len(calls) == 2

    _LOMAX = [make_kernel(FamilySpec("lomax_rate_lambda", {"alpha": a}))
              for a in (1.0, 2.0, 0.5)]

    @pytest.mark.parametrize("obs", [(1.0, 3.0), (0.2, 1.4, 2.6, 5.0), (0.5, 0.5 + 1e-9),
                                     (1.0, 1e9), (3.0,), (0.3, 7.0, 1e-3, 40.0),
                                     (1.0, math.inf), (1.0, 1e308)])
    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (2, 0), (0, 2), (0, 0)])
    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_lomax_pairs(self, obs, pair, tol):
        # lomax_rate_lambda's Newton estimate screens its scans: both
        # orders, a near tie, a spread where the estimate declines, one
        # observation, a pair that ties on every sample, and samples whose
        # sums are not finite (an x of inf, or near the largest float),
        # which the solver fails on
        kp, kq = (self._LOMAX[i] for i in pair)
        ws, cfg = WitnessSet(obs, (), 3), SolverConfig(tol)
        got = _outcome(lambda: check_direct(kp, kq, ws, 6, 40, cfg))
        want = _outcome(lambda: reference_direct(kp, kq, ws, 6, 40, cfg))
        assert json.dumps(got) == json.dumps(want)
        x, y = min(obs), max(obs)
        if x < y:
            got = _outcome(lambda: check_two_point(kp, kq, x, y, 12, cfg))
            want = _outcome(lambda: reference_two_point(kp, kq, x, y, 12, cfg))
            assert json.dumps(got) == json.dumps(want)

    def test_lomax_two_point_solves_only_what_is_unsettled(self, monkeypatch):
        # forward, every two-point sample is settled; reversed, the first is
        # solved and is the counterexample
        calls = TestScanSkipsRepeats._count_solves(monkeypatch)
        kp, kq = self._LOMAX[:2]
        assert check_two_point(kp, kq, 1.0, 3.0).status == NO_COUNTEREXAMPLE
        assert calls == []
        assert check_two_point(kq, kp, 1.0, 3.0).status == COUNTEREXAMPLE
        assert len(calls) == 2

    def test_out_of_reach_is_solved(self):
        # the estimates 2e100 and 3e100 are ordered, but lie past 2**100,
        # where the search's expansion does not reach: the solve fails, and
        # the verdict stays Inconclusive
        kp = make_kernel(FamilySpec("laplace_scale", {"mu": 0.0}))
        kq = make_kernel(FamilySpec("laplace_scale", {"mu": -1e100}))
        ws = WitnessSet((1e100, 3e100), ())
        sample = WeightedSample.uniform((1e100, 3e100))
        assert kp._estimate(sample) < kq._estimate(sample)
        got = check_direct(kp, kq, ws)
        assert got.status == INCONCLUSIVE
        assert got.witness["error"] == "solver failed with status NoNegativePart"


class TestCertificateAgreesWithScan:
    """The ratio check, certified through the multiplier where it can be,
    gives the full pairwise scan's status, witness, grid meta or error."""

    @settings(max_examples=100, deadline=None)
    @given(ratio_cases())
    # a product overflows: Inconclusive
    @example(("overflow", PsiKernel(LINE, compile_expr(parse("exp(x-t)-1"))),
              PsiKernel(LINE, compile_expr(parse("x-t"))),
              WitnessSet((0.0, 1000.0), (1.0, 2.0, 100.0))))
    # phi(0, 0.5) = 0
    @example(("phi_zero", MEAN, PsiKernel(
        LINE, compile_expr(parse("sign(x - t) + sign(x - t + 1)")), theta1=lambda x: x),
        WitnessSet((0.0, 3.0), (0.5, 2.0))))
    # the grid point -1 lies outside Theta = (0, inf)
    @example(("outside_theta", MEAN,
              PsiKernel(OpenInterval(0.0, math.inf), lambda x, t: x - t,
                        theta1=lambda x: x),
              WitnessSet((-2.0, 2.0), (-1.0, 1.0))))
    # phi > 0 on both sides: the ratios alone would vouch for a failing pair
    @example(("phi_positive", PsiKernel(LINE, lambda x, t: t - x, theta1=lambda x: x),
              PsiKernel(LINE, lambda x, t: 1.0, theta1=lambda x: x),
              WitnessSet((0.0, 2.0), (1.0,))))
    # every value finite, every ratio 1, but the products overflow
    @example(("products_overflow",
              PsiKernel(LINE, lambda x, t: 1e200 * (x - t), theta1=lambda x: x),
              PsiKernel(LINE, lambda x, t: 1e200 * (x - t), theta1=lambda x: x),
              WitnessSet((0.0, 2.0), (1.0,))))
    # ratios 4e-4 apart: a counterexample, if only just
    @example(("expectile_close", expectile(0.5001), expectile(0.5),
              WitnessSet((0.0, 1.0), (0.5,))))
    # psi raises at x = 5, which the scan never reaches: it fails at x = 0
    @example(("raises_after_counterexample",
              PsiKernel(LINE, _expectile_upto4, theta1=lambda x: x), expectile(0.3),
              WitnessSet((0.0, 1.0, 5.0), (0.5, 2.0))))
    def test_same_verdict(self, case):
        name, kp, kq, ws = case
        got = _outcome(lambda: check_ratio_condition(kp, kq, ws))
        want = _outcome(lambda: reference_ratio(kp, kq, ws))
        assert json.dumps(got) == json.dumps(want), (name, ws)



# --------------------------------------------------------------------------
# The ratio stage as it was with one shared helper, _ratio_bounds, copied
# verbatim apart from their names.  TestRatioStageAgainstReference holds
# _multiplier_certifies and construct_multiplier to them.


def reference_ratio_bounds(below, above, t: float):
    """(least r over below, greatest r over above, sound) for
    r(x) = psi(x, t)/phi(x, t), given below and above as (x, psi(x, t),
    phi(x, t)) each, read in order, below first; each extreme is None where
    its side has no x, and the least is taken as min() takes it.  sound says
    each product test psi(x,t) phi(y,t) <= psi(y,t) phi(x,t), x below and y
    above, follows from greatest <= least within a few ulps: phi < 0 below
    and > 0 above, every psi, phi and r finite, and the largest |psi| times
    the largest |phi| finite, so no product is inf or NaN.  A phi(x, t) of 0
    leaves r undefined: DomainError."""
    least = greatest = None
    sound = True
    top_psi = top_phi = 0.0
    for sign, values in ((-1.0, below), (1.0, above)):
        for x, p, q in values:
            if q == 0.0:
                raise DomainError(f"phi({x!r}, {t!r}) is 0, so psi/phi is undefined")
            r = p / q
            if sign < 0.0:
                least = r if least is None or r < least else least
            else:
                greatest = r if greatest is None or r > greatest else greatest
            sound = (sound and sign * q > 0.0 and math.isfinite(p)
                     and math.isfinite(q) and math.isfinite(r))
            top_psi, top_phi = max(top_psi, abs(p)), max(top_phi, abs(q))
    return least, greatest, sound and math.isfinite(top_psi * top_phi)


def reference_multiplier_certifies(kpsi, kphi, t1, grid) -> bool:
    """Whether every cross instance of the ratio check holds, read off the
    paper's multiplier at each grid t that some pair straddles: t in both
    kernels' Theta and, by _ratio_bounds, the witnesses above t bounded by
    those below.  The witnesses are sorted once by their phi estimate, so
    those below and above t are two slices, found by bisection; a NaN
    estimate is left out, as the pairwise scan leaves it out.  Each kernel's
    column of every witness is computed once, and at each t one terms call
    per kernel gives psi at both slices.  Never raises: an error, a phi of
    0 or a t outside Theta only means the instances are left to the
    pairwise scan."""
    ranked = sorted((w for w in t1 if not math.isnan(w[2])), key=lambda w: w[2])
    xs = [x for x, _, _ in ranked]
    bs = [b for _, _, b in ranked]
    try:
        cp, cq = kpsi.columns(xs), kphi.columns(xs)
    except Exception:
        return False
    for t in grid:
        i, j = bisect.bisect_left(bs, t), bisect.bisect_right(bs, t)
        if i == 0 or j == len(bs):  # no witness below t, or none above
            continue
        if not (kpsi.theta.contains(t) and kphi.theta.contains(t)):
            return False
        try:
            ps = kpsi.terms(cp[:i] + cp[j:], t)
            qs = kphi.terms(cq[:i] + cq[j:], t)
            least, greatest, sound = reference_ratio_bounds(
                zip(xs[:i], ps[:i], qs[:i]), zip(xs[j:], ps[i:], qs[i:]), t)
        except Exception:
            # left to the scan, which raises it unless a counterexample comes first
            return False
        if not (sound and greatest <= least):
            return False
    return True


def reference_construct_multiplier(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    t: float,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Finite-witness infimum of psi(x,t)/phi(x,t) over witnesses whose phi
    estimate lies below t.  When the ratio condition holds, this multiplier
    satisfies psi(z,t) <= p(t) phi(z,t) for every witness z.  A witness with
    phi(x,t) = 0 leaves the ratio undefined: DomainError."""
    below = ((x, kpsi.eval(x, t), kphi.eval(x, t))
             for x in ws.observations if theta1(kphi, x, cfg) < t)
    least, _, _ = reference_ratio_bounds(below, (), t)
    if least is None:
        raise EmptyLowerSet(f"no witness has a phi-estimate below {t!r}")
    return least


# Grid points, and the phi estimates drawn among them and between them.
_TABLE_TS = (0.5, 1.0, 0.0, 2.0, -1.0, 3.0, -2.0)
_TABLE_ESTIMATES = (-0.5, 1.5) + _TABLE_TS + (math.nan,)
# A table cell that raises in place of a value.
_RAISES = "raises"
# Values past the ordinary: signed zeros, infinities, NaN, subnormals, and
# magnitudes whose products overflow or underflow.
_SPECIAL_CELLS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  1e-310, -1e-310, 1e300, -1e300, 1e-300, -1e-300, _RAISES)


def _table_kernel(table, theta, estimates=None):
    """A kernel whose psi(x, t) is table[x, t], raising at a _RAISES cell;
    with estimates, its theta1 is estimates[x]."""

    def ev(x, t):
        v = table[x, t]
        if v is _RAISES:
            raise DomainError(f"no value at ({x!r}, {t!r})")
        return v

    theta1 = None if estimates is None else estimates.__getitem__
    return PsiKernel(theta, ev, theta1=theta1)


def _finite(v) -> bool:
    return isinstance(v, float) and math.isfinite(v)


@st.composite
def table_cases(draw):
    """(kernel psi, kernel phi, theta1 list, grid, t): kernels from tables
    of psi and phi values per witness x and t of _TABLE_TS, phi estimates
    with NaN, ties and grid points among them.  A draw makes no cell
    special, one in two or one in twelve (the zeros are special).  A signed
    draw makes phi's finite values negative below each x's estimate and
    positive above; a ratio draw makes psi's finite values phi's times a
    ratio per x, nonincreasing in the estimate, so that, signed too, the
    certificate holds, ties included, wherever no special cell or rounding
    breaks it.  Then each x's finite values are scaled, per kernel, by 1 or
    by a power whose products or ratios overflow or underflow."""
    n = draw(st.integers(2, 5))
    xs = [float(i) for i in range(n)]
    bs = draw(st.permutations(_TABLE_ESTIMATES))[:n]
    if draw(st.booleans()):
        bs[-1] = bs[0]  # a tie
    estimates = dict(zip(xs, bs))
    ratios = sorted(draw(st.lists(st.sampled_from((2.0, 0.5, 0.0, -1.0, 0.1, 3.0)),
                                  min_size=n, max_size=n)))
    ratio = dict(zip(sorted(xs, key=lambda x: (math.isnan(estimates[x]), estimates[x])),
                     reversed(ratios)))
    scales = st.sampled_from((1.0, 1.0, 1.0, 1e300, 1e-300, 1e-310))
    scale = {x: (draw(scales), draw(scales)) for x in xs}
    signed, ratioed = draw(st.booleans()), draw(st.booleans())
    ordinary = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)
    special = st.sampled_from(_SPECIAL_CELLS)
    cell = draw(st.sampled_from(
        (ordinary, ordinary | special, st.one_of(*[ordinary] * 11, special))))
    psi, phi = {}, {}
    for x in xs:
        b = estimates[x]
        for t in _TABLE_TS:
            p, q = draw(cell), draw(cell)
            if signed and _finite(q):
                q = -abs(q) if b < t else abs(q) if b > t else q
            if ratioed and _finite(p) and _finite(q):
                p = q * ratio[x]
            sp, sq = scale[x]
            psi[x, t] = p * sp if _finite(p) else p
            phi[x, t] = q * sq if _finite(q) else q
    thetas = st.sampled_from((LINE, LINE, LINE, OpenInterval(-1.5, math.inf)))
    kp = _table_kernel(psi, draw(thetas))
    kq = _table_kernel(phi, draw(thetas), estimates)
    t1 = [(x, estimates[x], estimates[x]) for x in xs]
    grid = draw(st.permutations(_TABLE_TS))[:draw(st.integers(1, 4))]
    grid += draw(st.lists(st.sampled_from(grid), max_size=2))  # repeats
    return kp, kq, t1, grid, draw(st.sampled_from(_TABLE_TS))


def _constant_case(estimates, psi, phi, grid, t):
    """A table case whose psi and phi do not vary with t: psi[i] and phi[i]
    at the witness x = i, whose phi estimate is estimates[i]."""
    xs = [float(i) for i in range(len(estimates))]
    est = dict(zip(xs, estimates))
    kp, kq = (_table_kernel({(x, s): v for x, v in zip(xs, values) for s in _TABLE_TS},
                            LINE, est) for values in (psi, phi))
    return kp, kq, [(x, est[x], est[x]) for x in xs], list(grid), t


def _result(fn):
    """repr of fn's value, or the type and message of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestRatioStageAgainstReference:
    """_multiplier_certifies gives the reference's bool, and
    construct_multiplier its value to the bit or its error, on kernels
    given as tables of values that include every kind of float."""

    @settings(max_examples=500, deadline=None)
    @given(table_cases())
    # the ratios tie across t = 1: certified
    @example(_constant_case((0.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), [1.0], 1.0))
    # psi/phi overflows below, every value and product finite: not certified
    @example(_constant_case((0.0, 2.0), (-1.0, 1.0), (-1e-310, 4.0), [1.0], 1.0))
    # every ratio finite and ordered, but |psi| |phi| overflows
    @example(_constant_case((0.0, 2.0), (-1e200, 1.0), (-1.0, 1e200), [1.0], 1.0))
    # the ratios are ordered, but phi < 0 above t, or > 0 below: not certified
    @example(_constant_case((0.0, 2.0), (-2.0, 1.0), (-1.0, -1.0), [1.0], 1.0))
    @example(_constant_case((0.0, 2.0), (2.0, 1.0), (1.0, 1.0), [1.0], 1.0))
    # phi is 0 below t: not certified, and the multiplier raises
    @example(_constant_case((0.0, 2.0), (1.0, 1.0), (0.0, 1.0), [1.0], 1.0))
    # a NaN ratio between two others: min keeps 1.0, where a sort keeps 2.0
    @example(_constant_case((0.0, 0.0, 0.0), (2.0, math.nan, 1.0), (1.0, 1.0, 1.0),
                            [1.0], 1.0))
    # 0.0 and -0.0 tie: min keeps the first
    @example(_constant_case((0.0, 0.0), (0.0, -0.0), (1.0, 1.0), [1.0], 1.0))
    def test_same_as_reference(self, case):
        kp, kq, t1, grid, t = case
        assert _multiplier_certifies(kp, kq, t1, grid) == \
            reference_multiplier_certifies(kp, kq, t1, grid)
        ws = WitnessSet([x for x, _, _ in t1], grid)
        assert _result(lambda: construct_multiplier(kp, kq, ws, t)) == \
            _result(lambda: reference_construct_multiplier(kp, kq, ws, t))


if __name__ == "__main__":
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: _verdict_record(kp, kq, obs)
                   for name, kp, kq, obs in _pinned_pairs()}, fh, indent=1)
        fh.write("\n")
