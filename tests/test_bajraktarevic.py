import math
import os
import random
import subprocess
import sys

import mpmath
import pytest

import gen
from psiest import (
    BajraktarevicSpec,
    DegenerateDerivative,
    DegenerateProbes,
    DomainError,
    InvalidArgument,
    MobiusCoefficients,
    OpenInterval,
    SignViolation,
    SolverError,
    WeightedSample,
    apply_mobius,
    as_kernel,
    determinant_scale,
    determinant_test,
    estimate,
    mobius_fit,
    schwarzian,
    solve_sign_change,
    theta_psi_empty,
)

LINE = OpenInterval(-math.inf, math.inf)
POS = OpenInterval(0.0, math.inf)


def identity_spec(p=lambda x: 1.0):
    return BajraktarevicSpec(lambda t: t, p, lambda x: x, LINE,
                             fprime=lambda t: 1.0)


def step_function(t):
    if t <= 1.0:
        return t
    if t <= 2.0:
        return t + 1.0
    return t + 2.0


class TestSpecValidation:
    def test_decreasing_f_rejected(self):
        with pytest.raises(InvalidArgument):
            BajraktarevicSpec(lambda t: -t, lambda x: 1.0, lambda x: x, LINE)

    def test_nan_f_rejected(self):
        # every comparison with NaN is False; the check must read that as failure
        with pytest.raises(InvalidArgument, match="NaN"):
            BajraktarevicSpec(lambda t: t if t < 5.0 else math.nan,
                              lambda x: 1.0, lambda x: x, LINE)

    def test_fall_from_inf_rejected(self):
        # inf at the probe near 0, then finite: inf - 1e-13*inf is NaN, so a
        # "b < a - tol" test missed this fall
        with pytest.raises(InvalidArgument, match="strictly increasing"):
            BajraktarevicSpec(lambda t: math.inf if -1.0 < t < 1.0 else t,
                              lambda x: 1.0, lambda x: x, LINE)

    def test_saturating_at_inf_accepted(self):
        BajraktarevicSpec(lambda t: math.inf if t > 50.0 else t,
                          lambda x: 1.0, lambda x: x, LINE)

    def test_mobius_zero_determinant_rejected(self):
        with pytest.raises(InvalidArgument):
            MobiusCoefficients(1.0, 2.0, 2.0, 4.0)


class TestAsKernel:
    def test_identity(self):
        k = as_kernel(identity_spec())
        assert k.eval(3.0, 1.0) == 2.0

    def test_log(self):
        spec = BajraktarevicSpec(math.log, lambda x: 1.0, math.log, POS)
        k = as_kernel(spec)
        assert k.eval(math.e ** 2, 1.0) == pytest.approx(2.0)

    def test_weighting_function(self):
        spec = BajraktarevicSpec(lambda t: t, lambda x: x, lambda x: x, LINE)
        k = as_kernel(spec)
        assert k.eval(2.0, 5.0) == pytest.approx(-6.0)

    def test_theta1_through_left_inverse(self):
        spec = identity_spec()
        k = as_kernel(spec)
        assert abs(k.theta1(4.0) - 4.0) <= 1e-10

    def test_d2_from_fprime(self):
        spec = BajraktarevicSpec(math.log, lambda x: 2.0, math.log, POS,
                                 fprime=lambda t: 1.0 / t)
        k = as_kernel(spec)
        assert k.d2(5.0, 2.0) == pytest.approx(-1.0)


class TestEstimate:
    def test_arithmetic_mean(self):
        t = estimate(identity_spec(), WeightedSample.uniform([1, 2, 3]))
        assert abs(t - 2.0) <= 1e-10

    def test_geometric_mean(self):
        spec = BajraktarevicSpec(math.log, lambda x: 1.0, math.log, POS)
        t = estimate(spec, WeightedSample.uniform([1, 4]))
        assert abs(t - 2.0) <= 1e-10

    def test_weighted_by_p(self):
        spec = BajraktarevicSpec(lambda t: t, lambda x: x, lambda x: x, LINE)
        t = estimate(spec, WeightedSample.uniform([1, 3]))
        assert abs(t - 2.5) <= 1e-10

    def test_zero_weight_not_evaluated(self):
        # p(-1) = -1 would be rejected, but x = -1 has weight 0
        spec = BajraktarevicSpec(lambda t: t, lambda x: x, lambda x: x, LINE)
        t = estimate(spec, WeightedSample((1.0, -1.0, 3.0), (1.0, 0.0, 1.0)))
        assert abs(t - 2.5) <= 1e-10

    def test_nan_between_probes_is_an_error(self):
        # the probe grid of (0, 10) steps by 0.3125 and misses (7, 7.1)
        spec = BajraktarevicSpec(lambda t: math.nan if 7.0 < t < 7.1 else t,
                                 lambda x: 1.0, lambda x: x,
                                 OpenInterval(0.0, 10.0))
        with pytest.raises(SolverError, match="NaN"):
            estimate(spec, WeightedSample.uniform([7.0, 7.1]))

    def test_overflowing_sum(self):
        # F(1e44) = 1e308, so sum w p F overflows although its mean does not
        def seventh(t):
            return t * t * t * t * t * t * t

        spec = BajraktarevicSpec(seventh, lambda x: 1.0, seventh, LINE)
        assert estimate(spec, WeightedSample.uniform([1e44, 1e44])) == 1e44

    def test_nonpositive_p_rejected_before_F(self):
        calls = []

        def p(x):
            calls.append(("p", x))
            return x

        def F(x):
            calls.append(("F", x))
            return x

        spec = BajraktarevicSpec(lambda t: t, p, F, LINE)
        with pytest.raises(DomainError, match=r"p\(-1\.0\) = -1\.0 must be positive"):
            estimate(spec, WeightedSample.uniform([2.0, -1.0, 3.0]))
        assert calls == [("p", 2.0), ("F", 2.0), ("p", -1.0)]

    def test_nan_p_rejected_naming_x(self):
        # NaN > 0 is False, so a NaN p(x) fails the positivity test
        calls = []

        def p(x):
            calls.append(("p", x))
            return math.nan if x == 2.0 else 1.0

        def F(x):
            calls.append(("F", x))
            return x

        spec = BajraktarevicSpec(lambda t: t, p, F, LINE)
        with pytest.raises(DomainError, match=r"p\(2\.0\) = nan must be positive"):
            estimate(spec, WeightedSample.uniform([1.0, 2.0, 3.0]))
        assert calls == [("p", 1.0), ("F", 1.0), ("p", 2.0)]

    def test_nan_F_rejected_naming_x(self):
        calls = []

        def p(x):
            calls.append(("p", x))
            return 1.0

        def F(x):
            calls.append(("F", x))
            return math.nan if x == 2.0 else x

        spec = BajraktarevicSpec(lambda t: t, p, F, LINE)
        with pytest.raises(DomainError, match=r"F\(2\.0\) is NaN"):
            estimate(spec, WeightedSample.uniform([1.0, 2.0, 3.0]))
        assert calls == [("p", 1.0), ("F", 1.0), ("p", 2.0), ("F", 2.0)]

    def test_underflowing_total_p_weight(self):
        # each w p(x) = 1e-200 * 1e-200 underflows to 0
        spec = BajraktarevicSpec(lambda t: t, lambda x: 1e-200, lambda x: x, LINE)
        sample = WeightedSample((1.0, 2.0), (1e-200, 1e-200))
        with pytest.raises(InvalidArgument, match="total p-weight must be positive"):
            estimate(spec, sample)

    def test_agrees_with_solver_on_random_specs(self):
        rng = random.Random(21)
        for _ in range(200):
            spec = gen.random_spec(rng)
            sample = gen.random_sample(rng)
            closed = estimate(spec, sample)
            res = solve_sign_change(as_kernel(spec), sample)
            assert res.converged, res.status
            assert abs(closed - res.theta) <= 1e-8


class TestApplyMobius:
    def test_identity_coefficients(self):
        spec = identity_spec()
        out = apply_mobius(spec, MobiusCoefficients(1.0, 0.0, 0.0, 1.0))
        for t in (0.5, 1.0, 2.0):
            assert out.f(t) == pytest.approx(spec.f(t))

    def test_reciprocal_on_positives(self):
        spec = BajraktarevicSpec(lambda t: t, lambda x: 1.0, lambda x: x, POS)
        out = apply_mobius(spec, MobiusCoefficients(0.0, -1.0, 1.0, 0.0))
        assert out.f(2.0) == pytest.approx(-0.5)
        assert out.F(4.0) == pytest.approx(-0.25)
        assert out.p(3.0) == pytest.approx(3.0)

    def test_affine(self):
        spec = identity_spec()
        out = apply_mobius(spec, MobiusCoefficients(2.0, 3.0, 0.0, 1.0))
        assert out.f(1.5) == pytest.approx(6.0)
        assert out.F(2.0) == pytest.approx(7.0)
        assert out.p(2.0) == pytest.approx(1.0)

    def test_sign_violation(self):
        spec = identity_spec()
        # ad - bc = 1 > 0 but the denominator t - 1 changes sign
        with pytest.raises(SignViolation):
            apply_mobius(spec, MobiusCoefficients(1.0, -2.0, 1.0, -1.0))

    def test_nonpositive_determinant_rejected(self):
        spec = identity_spec()
        with pytest.raises(InvalidArgument):
            apply_mobius(spec, MobiusCoefficients(-1.0, 0.0, 0.0, 1.0))


class TestSchwarzian:
    def test_mobius_vanishes(self):
        s = schwarzian(lambda s: (2 * s + 1) / (s + 3), 1.0)
        assert abs(s) <= 1e-5

    def test_exponential(self):
        s = schwarzian(math.exp, 0.0, step=1e-3)
        assert abs(s + 0.5) <= 1e-5

    @pytest.mark.parametrize("s", [5.0, 300.0, 700.0])
    def test_exponential_default_step_far_out(self, s):
        # S(exp) = -1/2 everywhere; a step growing with |s| drifted off it
        assert abs(schwarzian(math.exp, s) + 0.5) <= 1e-3

    def test_identity(self):
        assert abs(schwarzian(lambda s: s, 5.0)) <= 1e-12

    def test_degenerate_derivative(self):
        with pytest.raises(DegenerateDerivative):
            schwarzian(lambda s: 1.0, 0.0)


class TestMobiusFit:
    PROBES = (0.5, 1.0, 2.0, 4.0)

    def test_recovers_ratio(self):
        fv = [(t, t) for t in self.PROBES]
        gv = [(t, (2 * t + 1) / (t + 3)) for t in self.PROBES]
        fit = mobius_fit(fv, gv)
        assert fit is not None
        scale = fit.a / 2.0
        assert fit.b == pytest.approx(scale, rel=1e-8)
        assert fit.c == pytest.approx(scale, rel=1e-8)
        assert fit.d == pytest.approx(3 * scale, rel=1e-8)

    def test_identity(self):
        fv = [(t, t) for t in self.PROBES]
        fit = mobius_fit(fv, fv)
        assert fit is not None
        assert abs(fit.b) <= 1e-10 and abs(fit.c) <= 1e-10
        assert fit.a == pytest.approx(fit.d, rel=1e-10)

    def test_cube_rejected(self):
        probes = (1.0, 2.0, 3.0, 4.0)
        fv = [(t, t) for t in probes]
        gv = [(t, t ** 3) for t in probes]
        assert mobius_fit(fv, gv) is None

    def test_degenerate_probes(self):
        fv = [(t, t) for t in (1.0, 1.0, 1.0, 2.0)]
        with pytest.raises(DegenerateProbes):
            mobius_fit(fv, fv)

    def test_constant_g_rank_deficient(self):
        # (c f + d) g = a f + b has a two-dimensional solution space
        fv = [(t, t) for t in (1.0, 2.0, 3.0, 4.0)]
        gv = [(t, 5.0) for t in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(DegenerateProbes):
            mobius_fit(fv, gv)

    @pytest.mark.parametrize("nan_at", [1, 5])
    def test_nan_g_is_no_fit(self, nan_at):
        # NaN at an anchor (largest f) makes the coefficients NaN, elsewhere
        # a residual; both used to pass as a fit
        ts = (1.0, 2.0, 3.0, 4.0, 5.0)
        fv = [(t, t) for t in ts]
        gv = [(t, math.nan if t == nan_at else 2.0 * t + 1.0) for t in ts]
        assert mobius_fit(fv, gv) is None

    def test_near_constant_mobius_fits(self):
        # g = base + eps * (Mobius of t) is Mobius for every eps > 0; a null
        # vector taken from the signed 3x3 minors loses it near eps = 1e-8
        rng = random.Random(8)
        for k in range(400):
            eps = 10.0 ** -(8.0 * k / 399)
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
            c, d = rng.uniform(0.0, 0.3), rng.uniform(2.5, 3.5)
            base = rng.uniform(-5.0, 5.0)
            ts = sorted(rng.uniform(-5.0, 5.0) for _ in range(rng.randint(4, 12)))
            fv = [(t, t) for t in ts]
            gv = [(t, base + eps * (a * t + b) / (c * t + d)) for t in ts]
            assert mobius_fit(fv, gv) is not None, (k, eps)

    @mpmath.workdps(50)
    def test_matches_mpmath_null_vector(self):
        rng = random.Random(9)
        for _ in range(100):
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
            c, d = rng.uniform(-0.3, 0.3), rng.uniform(2.5, 3.5)
            ts = sorted(rng.uniform(-5.0, 5.0) for _ in range(rng.randint(4, 12)))
            fv = [(t, t) for t in ts]
            gv = [(t, (a * t + b) / (c * t + d)) for t in ts]
            fit = mobius_fit(fv, gv)
            # the same anchors (smallest, median, largest f), exact null
            # vector from the signed 3x3 minors at 50 digits
            anchors = [ts[0], ts[len(ts) // 2], ts[-1]]
            g = dict(gv)
            rows = [[mpmath.mpf(t), 1, -mpmath.mpf(t) * g[t], -g[t]]
                    for t in anchors]
            ref = [(-1) ** j * mpmath.det(mpmath.matrix(
                       [r[:j] + r[j + 1:] for r in rows])) for j in range(4)]
            norm = mpmath.sqrt(sum(v * v for v in ref))
            if max(ref, key=abs) < 0:
                norm = -norm
            got = (fit.a, fit.b, fit.c, fit.d)
            for x, r in zip(got, ref):
                assert abs(x - float(r / norm)) <= 1e-12

    def test_succeeds_iff_schwarzian_small(self):
        rng = random.Random(44)
        grid = [0.2 + 0.3 * k for k in range(12)]
        cases = [
            (lambda t: (2 * t + 1) / (t + 3), True),
            (lambda t: 5 * t - 2, True),
            (lambda t: t ** 3 + t, False),
            (lambda t: math.exp(t), False),
        ]
        for g, is_mobius in cases:
            fv = [(t, t) for t in grid]
            gv = [(t, g(t)) for t in grid]
            fit = mobius_fit(fv, gv)
            max_s = max(abs(schwarzian(g, s)) for s in grid)
            if is_mobius:
                assert fit is not None
                assert max_s <= 1e-4
            else:
                assert fit is None
                assert max_s > 1e-4


class TestDeterminant:
    def test_affine_vanishes(self):
        ts = (1.0, 2.0, 3.0, 4.0)
        fv = list(ts)
        gv = [2 * t + 3 for t in ts]
        det = determinant_test(fv, gv)
        assert abs(det) <= 1e-9 * determinant_scale(fv, gv)

    def test_mobius_vanishes(self):
        ts = (0.5, 1.0, 2.0, 4.0)
        fv = list(ts)
        gv = [(2 * t + 1) / (t + 3) for t in ts]
        det = determinant_test(fv, gv)
        assert abs(det) <= 1e-9 * determinant_scale(fv, gv)

    def test_cube_nonzero(self):
        fv = [1.0, 2.0, 3.0, 4.0]
        gv = [t ** 3 for t in fv]
        assert abs(determinant_test(fv, gv)) > 1.0

    @mpmath.workdps(50)
    def test_matches_mpmath(self):
        rng = random.Random(10)
        for k in range(300):
            fv = [rng.uniform(-5.0, 5.0) for _ in range(4)]
            if k % 2:
                gv = [rng.uniform(-5.0, 5.0) for _ in range(4)]
            else:
                gv = [(2.0 * f + 1.0) / (0.2 * f + 3.0) for f in fv]
            ref = mpmath.det(mpmath.matrix(
                [[1, f, g, mpmath.mpf(f) * g] for f, g in zip(fv, gv)]))
            err = abs(determinant_test(fv, gv) - ref)
            assert err <= 1e-12 * determinant_scale(fv, gv)

    def test_scale_overflows_to_inf(self):
        # (f g)^2 overflows: the scale is inf, not an OverflowError
        assert determinant_scale([1e200] * 4, [1e200] * 4) == math.inf

    def test_wrong_arity(self):
        with pytest.raises(InvalidArgument):
            determinant_test([1.0, 2.0], [1.0, 2.0])


class TestThetaPsiEmpty:
    def test_constant_F(self):
        spec = BajraktarevicSpec(lambda t: t, lambda x: 1.0, lambda x: 5.0, LINE)
        assert theta_psi_empty(spec, [1.0, 2.0, 3.0])

    def test_identity_F(self):
        assert not theta_psi_empty(identity_spec(), [1.0, 2.0])

    def test_jump_gap_absorbs_range(self):
        spec = BajraktarevicSpec(step_function, lambda x: 1.0,
                                 lambda x: 1.2 if x < 0 else 1.8,
                                 OpenInterval(-10.0, 10.0))
        assert theta_psi_empty(spec, [-1.0, 1.0])


class TestStructuralLemmas:
    def test_accepted_coefficients_have_positive_determinant(self):
        # whenever both f and its transform are increasing, ad > bc
        rng = random.Random(55)
        for _ in range(50):
            spec = gen.random_spec(rng)
            m = gen.random_mobius(rng, spec)
            out = apply_mobius(spec, m)  # validates monotonicity of g
            assert m.determinant > 0.0
            del out

    def test_ratio_map_positive_and_increasing(self):
        rng = random.Random(66)
        for _ in range(30):
            spec = gen.random_spec(rng)
            k = as_kernel(spec)
            x, y = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            tx, ty = k.theta1(x), k.theta1(y)
            if tx > ty:
                x, y, tx, ty = y, x, ty, tx
            if ty - tx < 1e-3:
                continue
            span = ty - tx
            grid = [tx + span * (i + 1) / 12.0 for i in range(10)]
            vals = [-k.eval(x, u) / k.eval(y, u) for u in grid]
            assert all(v > 0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quasi_arithmetic_affine_equality(self):
        rng = random.Random(77)
        f = math.log
        spec = BajraktarevicSpec(f, lambda x: 1.0, f, POS)
        a, b = 3.0, -1.0
        spec2 = BajraktarevicSpec(lambda t: a * f(t) + b, lambda x: 1.0,
                                  lambda x: a * f(x) + b, POS)
        for _ in range(20):
            sample = gen.random_sample(rng)
            t1 = estimate(spec, sample)
            t2 = estimate(spec2, sample)
            assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))

    def test_quasi_arithmetic_cube_differs(self):
        spec1 = identity_spec()
        spec2 = BajraktarevicSpec(lambda t: t ** 3, lambda x: 1.0,
                                  lambda x: x ** 3, LINE)
        rng = random.Random(88)
        found = False
        for _ in range(20):
            sample = gen.random_sample(rng)
            if abs(estimate(spec1, sample) - estimate(spec2, sample)) > 1e-6:
                found = True
                break
        assert found


def test_import_leaves_numpy_out():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys, psiest; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
