import math

import pytest

import gen
from psiest import (
    EmptyLowerSet,
    InvalidArgument,
    FamilySpec,
    OpenInterval,
    PsiKernel,
    SolverConfig,
    WeightedSample,
    build_witness_set,
    check_derivative_condition,
    check_direct,
    check_equality,
    check_ratio_condition,
    check_two_point,
    construct_multiplier,
    empirical_theta1_hull,
    make_kernel,
    solve_sign_change,
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
