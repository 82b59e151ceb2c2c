import argparse
import json
import math
import os

import pytest

import golden_cases
from psiest import (DataParseError, EmptyData, FamilySpec, NegativeWeight, build_witness_set,
                    cli, make_kernel, solver)
from psiest.cli import _max_abs, main, read_data

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestReadData:
    def test_plain_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\n2\n3\n")
        s = read_data(str(p))
        assert s.xs == (1.0, 2.0, 3.0)
        assert s.weights == (1.0, 1.0, 1.0)

    def test_weight_column(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1,2\n3,1\n")
        s = read_data(str(p))
        assert s.xs == (1.0, 3.0)
        assert s.weights == (2.0, 1.0)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# header\n1  # one\n\n2\n")
        assert read_data(str(p)).xs == (1.0, 2.0)

    def test_negative_weight(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1,-1\n")
        with pytest.raises(NegativeWeight) as exc:
            read_data(str(p))
        assert exc.value.line == 1

    def test_bad_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\nfoo\n")
        with pytest.raises(DataParseError) as exc:
            read_data(str(p))
        assert exc.value.line == 2

    def test_empty(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# nothing\n")
        with pytest.raises(EmptyData):
            read_data(str(p))

    def test_inline_literal(self):
        s = read_data("[1,-2.5,3]")
        assert s.xs == (1.0, -2.5, 3.0)

    def test_separate_weights_file(self, tmp_path):
        d = tmp_path / "d.txt"
        d.write_text("1\n2\n")
        w = tmp_path / "w.txt"
        w.write_text("3\n4\n")
        s = read_data(str(d), str(w))
        assert s.weights == (3.0, 4.0)

    def test_weights_file_comments_and_line_numbers(self, tmp_path):
        d = tmp_path / "d.txt"
        d.write_text("1\n2\n")
        w = tmp_path / "w.txt"
        w.write_text("# weights\n3  # first\n\n4\n")
        assert read_data(str(d), str(w)).weights == (3.0, 4.0)
        w.write_text("# weights\n3\n\n-4\n")
        with pytest.raises(NegativeWeight) as neg:
            read_data(str(d), str(w))
        assert neg.value.line == 4
        w.write_text("3\n# x\nfour\n")
        with pytest.raises(DataParseError, match="bad weight 'four'") as bad:
            read_data(str(d), str(w))
        assert bad.value.line == 3

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text", [
        b"1,2\n3,0.5\n", b"# w\n1\n2,3\n", b"1\n2\n", b"1,2\nx\n", b"1\n\xff\n", b"# none\n"])
    def test_pipe_reads_as_a_file(self, text, tmp_path):
        # a pipe can be read once: `--data <(printf '1,2\n')` in a shell
        def outcome(path, weights=None):
            try:
                s = read_data(path, weights)
            except Exception as exc:
                return type(exc).__name__, getattr(exc, "line", None)
            return s.xs, s.weights

        def pipe():
            r, w = os.pipe()
            os.write(w, text)
            os.close(w)
            return r

        f = tmp_path / "d.txt"
        f.write_bytes(text)
        r = pipe()
        try:
            assert outcome(f"/dev/fd/{r}") == outcome(str(f))
        finally:
            os.close(r)
        if outcome(str(f))[0] == (1.0, 2.0):  # the same lines as weights
            d = tmp_path / "x.txt"
            d.write_text("5\n6\n")
            r = pipe()
            try:
                assert outcome(str(d), f"/dev/fd/{r}") == outcome(str(d), str(f))
            finally:
                os.close(r)

    def test_pipe_estimate_exits_0(self, capsys):
        r, w = os.pipe()
        os.write(w, b"1,2\n")
        os.close(w)
        try:
            code = main(["estimate", "--family", "expectile", "--param", "alpha=0.5",
                         "--data", f"/dev/fd/{r}"])
        finally:
            os.close(r)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1

    def test_weights_length_mismatch(self, tmp_path):
        d = tmp_path / "d.txt"
        d.write_text("1\n2\n")
        w = tmp_path / "w.txt"
        w.write_text("3\n")
        with pytest.raises(DataParseError):
            read_data(str(d), str(w))


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["estimate", "--data", "[1]"]) == 1
        capsys.readouterr()

    def test_unknown_family(self, capsys):
        assert main(["estimate", "--family", "nope", "--data", "[1]"]) == 1
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["estimate", "--family", "expectile",
                     "--param", "alpha=0.5", "--data", "/no/such/file"]) == 1
        capsys.readouterr()

    def test_solver_failure(self, capsys):
        # a kernel that is negative everywhere never shows a positive part
        assert main(["estimate", "--psi", "0 - 1", "--theta", "0,1",
                     "--data", "[1]"]) == 2
        capsys.readouterr()

    def test_nan_sum_exits_2(self, capsys):
        # exp(t) overflows past t ~ 709.78, so the sum is inf - inf = NaN;
        # it used to converge there with status Converged
        code = main(["estimate", "--psi", "exp(x) - exp(t)", "--theta=-inf,inf",
                     "--data", "[800,801]"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["status"] == "NonFiniteSum"
        assert "Traceback" not in captured.err

    def test_beta_alpha_where_the_power_rounds_to_one(self, capsys):
        # x**0.5 rounds to 1.0 at this x, where log1p(-x**0.5) has no value
        code = main(["estimate", "--family", "beta_alpha", "--param", "beta=0.5",
                     "--data", "[0.9999999999999999]"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["theta"] == pytest.approx(0.02671657483, rel=1e-9)
        assert captured.err == ""
        code = main(["compare", "--family", "beta_alpha", "--param", "beta=0.5",
                     "--family-phi", "beta_alpha", "--param-phi", "beta=2",
                     "--data", "[0.5,0.9999999999999999]", "--condition", "all"])
        captured = capsys.readouterr()
        assert code == 2  # theta1 differs, so derivative and equality are Inconclusive
        assert [v["status"] for v in json.loads(captured.out)["verdicts"]] == [
            "NoCounterexample"] * 3 + ["Inconclusive"] * 2
        assert captured.err == ""

    def test_beta_alpha_column_of_zero_exits_2(self, capsys):
        code = main(["estimate", "--family", "beta_alpha", "--param", "beta=1e-310",
                     "--data", "[0.9999999999999999]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: 1 - x^beta rounds to 0 at "
                                "x=0.9999999999999999, beta=1e-310\n")

    def test_power_overflow_keeps_sign(self, capsys):
        # (-10)^400 overflows to +inf, so the sum is positive for every t
        code = main(["estimate", "--psi", "(0-10)^x - t", "--theta=-inf,inf",
                     "--data", "[400]"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "NoNegativePart"

    @pytest.mark.parametrize("closed_form,message", [
        ([], ""),
        (["--closed-form"], "error: normal_var: weighted mean of F(x) is inf\n"),
    ])
    def test_normal_var_square_overflow(self, closed_form, message, capsys):
        # (1e200 - 0) ** 2 raises OverflowError in a float **; it was a
        # traceback with exit 1
        code = main(["estimate", "--family", "normal_var", "--param", "m=0",
                     "--data", "[1e200,1,2]", *closed_form])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == message
        if not closed_form:
            assert json.loads(captured.out)["status"] == "NoNegativePart"

    def test_laplace_d2_cube_overflow(self, capsys):
        # d2 at theta1 = 1e120 computes t ** 3, past the largest double
        code = main(["compare", "--family", "laplace_scale", "--param", "mu=0",
                     "--family-phi", "laplace_scale", "--param-phi", "mu=1",
                     "--data", "[1e120,2e120]", "--condition", "derivative"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: parameter derivative vanishes at theta1(1e+120)\n")

    @pytest.mark.parametrize("phi", ["mu=1", "mu=-1e100"])
    def test_direct_past_the_search_reach_is_inconclusive(self, phi, capsys):
        # the estimates, 2e100 and 2e100 or 3e100, lie past 2**100, where the
        # search's expansion does not reach, so the samples are solved and
        # the solve fails; with mu=-1e100 the estimates alone would order them
        code = main(["compare", "--family", "laplace_scale", "--param", "mu=0",
                     "--family-phi", "laplace_scale", "--param-phi", phi,
                     "--data", "[1e100,3e100]", "--condition", "direct"])
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert code == 2
        assert verdict["status"] == "Inconclusive"
        assert verdict["witness"]["error"] == "solver failed with status NoNegativePart"

    @pytest.mark.parametrize("family,psi,phi,data,condition", [
        ("normal_var", "m=0", "m=0", "[1e-100,1e-90]", "ratio"),
        ("laplace_scale", "mu=0", "mu=0", "[1e-170,1e-160]", "all"),
        ("lomax_rate_lambda", "alpha=1", "alpha=2", "[1e-170,1e-160]", "all"),
    ])
    def test_kernel_arithmetic_error_exits_2(self, family, psi, phi, data,
                                             condition, capsys):
        # t * t (or t * (t + x)) underflows to 0 and a kernel divides by it;
        # it was a ZeroDivisionError traceback with exit 1
        code = main(["compare", "--family", family, "--param", psi,
                     "--family-phi", family, "--param-phi", phi,
                     "--data", data, "--condition", condition])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: float division by zero\n"

    def test_closed_form_skips_zero_weights(self, tmp_path, capsys):
        # F(1e200) is inf, but its weight is 0: the solver's 2.5, not NaN
        data = tmp_path / "d.txt"
        data.write_text("1e200,0\n1,1\n2,1\n")
        code = main(["estimate", "--family", "normal_var", "--param", "m=0",
                     "--data", str(data), "--closed-form"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 2.5

    def test_closed_form_non_finite_mean_exits_2(self, capsys):
        # F(1e308) = |1e308 - (-1e308)| overflows, so the mean is inf
        code = main(["estimate", "--family", "laplace_scale", "--param", "mu=-1e308",
                     "--closed-form", "--data", "[1e308]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: laplace_scale: weighted mean of F(x) is inf\n")

    def test_closed_form_overflowing_sum(self, capsys):
        # 1e308 + 1e308 overflows, but the mean of F is 1e308
        code = main(["estimate", "--family", "laplace_scale", "--param", "mu=0",
                     "--closed-form", "--data", "[1e308,-1e308]"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 1e308

    def test_theta1_outside_theta_exits_2(self, capsys):
        # F(1e200) overflows, so theta1(1e200) = inf: no grid is laid in a
        # clamped window, no witness reported where both products are -inf
        code = main(["compare", "--family", "normal_var", "--param", "m=0",
                     "--family-phi", "normal_var", "--param-phi", "m=0",
                     "--data", "[1,1e200]", "--condition", "ratio"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: theta1(1e+200) = inf lies outside Theta "
                                "for normal_var\n")

    def test_negative_base_infinite_exponent(self, capsys):
        code = main(["estimate", "--psi", "(0-2)^exp(x) - t", "--theta=-inf,inf",
                     "--data", "[1000]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: at offset 5: negative base with "
                                "non-integer exponent\n")

    @pytest.mark.parametrize("fg,message", [
        (("t + (exp(t) - exp(t))", "t"), "error: f must be strictly increasing on theta\n"),
        (("t", "t + (exp(t) - exp(t))"), "error: g(714.2852857142857) is NaN\n"),
    ], ids=["f_nan", "g_nan"])
    def test_mobius_nan(self, fg, message, capsys):
        code = main(["mobius-test", "--f", fg[0], "--g", fg[1], "--theta", "0,1000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("g,theta,message", [
        ("exp(t)", ["0,1000"], "error: g(714.2852857142857) is inf\n"),
        ("exp(t)", ["700,1000", "--probes", "8"], "error: g(742.8573571428572) is inf\n"),
        ("0 - exp(t)", ["0,1000"], "error: g(714.2852857142857) is -inf\n"),
    ], ids=["inf", "inf_8_probes", "minus_inf"])
    def test_mobius_infinite_g(self, g, theta, message, capsys):
        # these used to end in an OverflowError traceback
        code = main(["mobius-test", "--f", "t", "--g", g, "--theta", *theta])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message

    def test_mobius_nan_determinant_maxima(self, capsys):
        # g is finite at every probe, but f*g*f*g overflows and most
        # determinants are inf - inf; the maxima must say so
        code = main(["mobius-test", "--f", "t", "--g", "exp(t)", "--theta", "0,700"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["determinant"]["max_abs"] == "nan"
        assert report["determinant"]["max_rel"] == "nan"
        assert report["status"] == "NoFit"

    def test_mobius_huge_schwarzian_step(self, capsys):
        # the Schwarzian's step is ~1e198 here; its cube used to raise
        # OverflowError (a traceback) where a product gives inf
        code = main(["mobius-test", "--f", "t", "--g", "2*t", "--theta", "0,1e200"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0:
            assert json.loads(captured.out)["command"] == "mobius-test"
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("theta", ["1e20,inf", "-inf,1e19", "-inf,1e15", "1e8,inf"])
    def test_mobius_next_to_a_huge_end(self, theta, capsys):
        # the probe window used to collapse to one point (f read as not
        # increasing), and the Schwarzian's stencil to reach below f's range
        code = main(["mobius-test", "--f", "t", "--g", "2*t", f"--theta={theta}"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["determinant"]["max_abs"] == 0
        assert abs(report["schwarzian_max_abs"]) < 1e-6

    @pytest.mark.parametrize("theta,x", [("1e20,inf", 1e21), ("-inf,-1e20", -1e21)])
    def test_far_half_line_converges(self, theta, x, capsys):
        # the seed lo + 1.0 used to round back to lo = 1e20, outside Theta
        code = main(["estimate", "--psi", "x - t", f"--theta={theta}",
                     "--data", f"[{x!r}]"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "Converged"
        assert abs(report["theta"] - x) <= 2 * solver.SolverConfig().width_tol(x)

    @pytest.mark.parametrize("theta", ["0,5", "0,300", "0,700"])
    def test_mobius_schwarzian_of_exp(self, theta, capsys):
        # |S(exp)| = 1/2 on every interval; the old step drifted to 17 on 0,700
        code = main(["mobius-test", "--f", "t", "--g", "exp(t)", "--theta", theta])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(report["schwarzian_max_abs"] - 0.5) <= 1e-3

    def test_mobius_infinite_literal_rendered(self, capsys):
        # pretty() used to call int(inf) on the literal, an OverflowError
        code = main(["mobius-test", "--f", "t", "--g", "t + exp(0-1e999)",
                     "--theta", "0,10"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["g"] == "t + exp(0 - 1e999)"
        assert report["status"] == "Fit"

    def test_huge_interval_converges(self, capsys):
        # the bracket (0, 5e299) needs ~1035 bisection steps, beyond
        # MAX_BISECT; the ITP steps find theta = 1 well within it
        code = main(["estimate", "--psi", "x - t", "--theta=-1e300,1e300",
                     "--data", "[1]"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "Converged"
        assert abs(report["theta"] - 1.0) <= 2 * solver.SolverConfig().width_tol(1.0)

    def test_max_abs_keeps_nan(self):
        assert _max_abs([1.0, -3.0, 2.0]) == 3.0
        assert math.isnan(_max_abs([1.0, math.nan, -2.0]))

    def test_max_iterations_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(solver, "MAX_BISECT", 5)
        code = main(["estimate", "--family", "gamma_shape", "--param", "lambda=2",
                     "--data", "[0.5,1.5,3]"])
        out = capsys.readouterr().out
        assert code == 2
        assert '"status":"MaxIterations"' in out
        assert '"residual":"nan"' in out

    def test_bounds_not_converged(self, monkeypatch, capsys):
        res = solver.SignChangeResult(
            1.25, 1.0, 1.5, 202, solver.MAX_ITERATIONS, solver.STOP_LIMIT,
            (1, 1, 200))
        monkeypatch.setattr(cli, "solve_sign_change", lambda *a, **k: res)
        code = main(golden_cases.CASES["bounds_alpha_two"])
        out = capsys.readouterr().out
        assert code == 2
        assert '"estimate":null' in out
        assert '"inside":false' in out
        assert list(json.loads(out)) == [
            "command", "alpha", "n", "lower", "upper", "estimate", "inside",
            "status"]
        assert json.loads(out)["status"] == "MaxIterations"

    def test_counterexample_exit(self, capsys):
        code = main(golden_cases.CASES["compare_expectile_reversed"])
        capsys.readouterr()
        assert code == 3


class TestRejectedInput:
    LAPLACE = ["estimate", "--family", "laplace_scale", "--param", "mu=0"]
    REVERSED = ["compare", "--family", "expectile", "--param", "alpha=0.7",
                "--family-phi", "expectile", "--param-phi", "alpha=0.3",
                "--data", "[0,1,2,5]"]

    def assert_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_bounds_non_finite_alpha(self, alpha, capsys):
        # inf is > 0: the fault to name is that it is not finite
        assert main(["bounds", f"--alpha={alpha}", "--data", "[0.3,0.5]"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: alpha={float(alpha)!r} must be finite\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    def test_bad_tolerance(self, tol, capsys):
        argv = self.LAPLACE + ["--data", "[1,-2,3]", "--tol", tol]
        self.assert_usage_error(argv, capsys)

    # each float option, with a value that ends the argv list
    FLOAT_OPTIONS = [
        ["bounds", "--data", "[0.3,0.5]", "--alpha"],
        LAPLACE + ["--data", "[1,-2,3]", "--tol"],
        REVERSED + ["--condition", "direct", "--tol"],
        ["mobius-test", "--f", "t", "--g", "2*t+3", "--theta", "0,10", "--tol"],
        ["bounds", "--alpha", "1", "--data", "[0.3,0.5]", "--tol"],
    ]

    @pytest.mark.parametrize("value", ["-inf", "-1e5", "-0.5"])
    @pytest.mark.parametrize("argv", FLOAT_OPTIONS, ids=lambda a: a[0] + a[-1])
    def test_negative_value_reaches_its_check(self, argv, value, capsys):
        # `--alpha -inf` is `--alpha=-inf`, not an option missing its value
        assert main(argv + [value]) == 1
        spaced = capsys.readouterr()
        assert spaced.out == "" and spaced.err.startswith("error: ")
        assert main(argv[:-1] + [f"{argv[-1]}={value}"]) == 1
        assert spaced == capsys.readouterr()

    def test_argparse_keeps_its_negative_number_matcher(self):
        # cli._Parser replaces this private attribute; were it renamed,
        # `--alpha -inf` would quietly be read as an option again.
        matcher = argparse.ArgumentParser()._negative_number_matcher
        assert matcher.match("-1") and not matcher.match("-inf")
        assert cli.build_parser()._negative_number_matcher is cli._NEGATIVE_VALUE

    @pytest.mark.parametrize("arg, value", [
        ("-inf", True), ("-Infinity", True), ("-NaN", True), ("-1e5", True),
        ("-.5", True), ("-5,5", True), ("-0", True),
        ("-nanx", True), ("-infx", True), ("-t+x", True), ("--tol", False),
        ("-", True), ("-.", True),
    ])
    def test_negative_value_pattern(self, arg, value):
        assert bool(cli._NEGATIVE_VALUE.match(arg)) == value

    # each expression option, with a value that starts with `-` and a letter
    EXPRESSION_OPTIONS = [
        ["estimate", "--theta=-9,9", "--data", "[1,2]", "--psi", "-t+x"],
        ["compare", "--family", "expectile", "--param", "alpha=0.5",
         "--theta=-9,9", "--data", "[0,1,2]", "--condition", "direct",
         "--phi", "-t+x"],
        ["mobius-test", "--g", "2*t+1", "--theta", "1,2", "--f", "-t^-1"],
        ["mobius-test", "--f", "t", "--theta", "0,1", "--g", "-t"],
    ]

    @pytest.mark.parametrize("argv", EXPRESSION_OPTIONS, ids=lambda a: a[-2])
    def test_expression_value_starting_with_minus(self, argv, capsys):
        # `--psi -t+x` is `--psi=-t+x`, not an option missing its value
        code = main(argv)
        spaced = capsys.readouterr()
        assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == code == 0
        joined = capsys.readouterr()
        assert spaced.out == joined.out != ""
        assert spaced.err == joined.err == ""

    def test_single_dash_options_as_before(self, capsys):
        # -h is still the help option, and an unknown -tol still unrecognized
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["estimate", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: psiest estimate")
        assert main(self.LAPLACE + ["--data", "[1,2]", "-tol", "3"]) == 1
        assert "unrecognized arguments: -tol 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data", "--weights"])
    @pytest.mark.parametrize("line", [1, 3])
    def test_file_not_utf8(self, flag, line, tmp_path, capsys):
        rows = [b"1", b"2", b"3"]
        rows[line - 1] += b" \xff"
        path = tmp_path / "f.txt"
        path.write_bytes(b"\n".join(rows) + b"\n")
        data = [str(path)] if flag == "--data" else ["[1,2,3]", "--weights", str(path)]
        assert main(self.LAPLACE + ["--data", *data]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line {line}: not UTF-8 text\n"

    def test_seed_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PSIEST_SEED", "abc")
        assert main(self.REVERSED) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PSIEST_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_nonfinite_weight(self, weight, tmp_path, capsys):
        p = tmp_path / "d.txt"
        p.write_text(f"1\n2,{weight}\n3\n")
        self.assert_usage_error(self.LAPLACE + ["--data", str(p)], capsys)

    @pytest.mark.parametrize("extra", [
        ["--grid", "1"],
        ["--max-n", "0"],
        ["--trials", "0", "--condition", "direct"],
        ["--trials", "0", "--condition", "equality"],
        ["--max-km", "1", "--condition", "two-point"],
    ])
    def test_bad_comparison_counts(self, extra, capsys):
        self.assert_usage_error(self.REVERSED + extra, capsys)

    @pytest.mark.parametrize("probes", ["3", "2", "1", "0", "-1"])
    def test_too_few_probes(self, probes, capsys):
        argv = ["mobius-test", "--f", "t", "--g", "2*t + 1", "--theta", "0,1",
                "--probes", probes]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("psi", [
        "+".join(["x"] * 2000) + " - t",
        "-" * 2000 + "x - t",
        "(" * 2000 + "x" + ")" * 2000 + " - t",
        "abs(" * 2000 + "x" + ")" * 2000 + " - t",
        "x^" * 2000 + "x - t",
    ], ids=["sum", "minus", "parens", "calls", "power"])
    def test_deep_expression(self, psi, capsys):
        # these used to end in a RecursionError traceback
        argv = ["estimate", "--psi", psi, "--theta=-inf,inf", "--data", "[1,2]"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: syntax error at offset ")
        assert captured.err.endswith("levels of nesting\n")

    def test_two_point_needs_distinct_observations(self, capsys):
        argv = self.REVERSED[:-1] + ["[2,2]", "--condition", "two-point"]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--family", "gamma_rate", "--param", "p=2", "--param", "q=5",
          "--data", "[1,2]"], "error: gamma_rate has no parameter 'q'\n"),
        (["estimate", "--family", "expectile", "--param", "alpha=0.3",
          "--param", "alpha=0.9", "--data", "[1,2]"],
         "error: parameter 'alpha' given twice\n"),
    ], ids=["unknown_key", "repeated_key"])
    def test_bad_parameter_keys(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--psi", "x-t", "--family", "expectile", "--param", "alpha=0.3",
         "--theta=0,1", "--data", "[0.5]"],
        REVERSED[:5] + ["--family-phi", "expectile", "--param-phi", "alpha=0.3",
                        "--phi", "x-t", "--theta=0,9", "--data", "[0,1,2,5]"],
        ["estimate", "--psi", "x-t", "--theta=0,9", "--param", "a=1", "--data", "[1]"],
        ["compare", "--psi", "x-t", "--theta=0,9", "--param", "a=1",
         "--family-phi", "expectile", "--param-phi", "alpha=0.3", "--data", "[1,2]"],
        ["compare", "--family", "expectile", "--param", "alpha=0.3", "--phi", "x-t",
         "--theta=-9,9", "--param-phi", "a=1", "--data", "[1,2]"],
        LAPLACE + ["--theta=0,1", "--data", "[1,-2,3]"],
        REVERSED + ["--theta=0,1", "--condition", "direct"],
    ], ids=["psi_beside_family", "phi_beside_family_phi", "param_beside_psi",
            "compare_param_beside_psi", "param_phi_beside_phi", "estimate_unused_theta",
            "compare_unused_theta"])
    def test_unused_kernel_flags(self, argv, capsys):
        # each of these used to exit 0, the flag silently dropped
        self.assert_usage_error(argv, capsys)

    def test_theta_for_one_expression_kernel(self, capsys):
        argv = ["compare", "--family", "expectile", "--param", "alpha=0.3",
                "--phi", "x-t", "--theta=-9,9", "--data", "[1,2]", "--condition", "direct"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["kernel_phi"]["interval"] == [-9, 9]

    def test_reversed_ordering_found_by_default(self, capsys):
        assert main(self.REVERSED + ["--condition", "direct"]) == 3
        capsys.readouterr()


class TestCompareAll:
    """compare --condition all runs the five checks in one report, each the
    verdict that --condition alone gives."""

    FORWARD = ["compare", "--family", "expectile", "--param", "alpha=0.3",
               "--family-phi", "expectile", "--param-phi", "alpha=0.7",
               "--data", "[0,1,2,5]"]
    REVERSED = TestRejectedInput.REVERSED

    def run(self, argv, capsys):
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv,statuses", [
        (FORWARD, ["NoCounterexample"] * 4 + ["Counterexample"]),
        (REVERSED, ["Counterexample"] * 5),
    ])
    def test_all_matches_single_conditions(self, argv, statuses, capsys):
        code, report = self.run(argv + ["--condition", "all"], capsys)
        assert code == 3
        assert report["status"] == "Counterexample"
        verdicts = report["verdicts"]
        assert [v["condition"] for v in verdicts] == list(cli._CONDITIONS)
        assert [v["status"] for v in verdicts] == statuses
        for verdict in verdicts:
            single_code, single = self.run(
                argv + ["--condition", verdict["condition"]], capsys)
            assert single["verdicts"] == [verdict]
            assert single["status"] == verdict["status"]
            assert single_code == (3 if verdict["status"] == "Counterexample" else 0)


class TestEstimate:
    def test_expression_kernel(self, capsys):
        code = main(["estimate", "--psi", "x - t", "--theta=-inf,inf",
                     "--data", "[1,2,3]"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert abs(report["theta"] - 2.0) <= 1e-10

    def test_psi_interval_echoed(self, capsys):
        # the --psi interval has its own key; `theta` is the estimate alone
        code = main(["estimate", "--psi", "x - t", "--theta=-10,10",
                     "--data", "[1,2,3]"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count('"theta":') == 1
        report = json.loads(out)
        assert list(report)[:3] == ["command", "psi", "interval"]
        assert report["interval"] == [-10, 10]
        assert abs(report["theta"] - 2.0) <= 1e-10

    def test_negative_interval_after_a_space(self, capsys):
        argv = ["estimate", "--psi", "x - t", "--data", "[1,2,3]"]
        assert main(argv + ["--theta", "-5,5"]) == 0
        spaced = capsys.readouterr().out
        assert main(argv + ["--theta=-5,5"]) == 0
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "1.5\n-2\n3\n",
        "# a sample\n1.5\n\n  -2   # second\n\n3\n\n",
        "1.5\r\n-2,1\r\n# last\r\n3",
    ], ids=["plain", "comments-blanks", "crlf-weight-column"])
    @pytest.mark.parametrize("kernel", [
        ["--family", "laplace_scale", "--param", "mu=0"],
        ["--family", "expectile", "--param", "alpha=0.3"],
        ["--psi", "x - t", "--theta=-10,10"],
    ], ids=["laplace", "expectile", "psi"])
    def test_data_file_prints_as_inline(self, kernel, text, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        assert main(["estimate", *kernel, "--data", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["estimate", *kernel, "--data", "[1.5,-2,3]"]) == 0
        assert from_file == capsys.readouterr().out

    def test_closed_form_flag(self, capsys):
        code = main(["estimate", "--family", "laplace_scale", "--param", "mu=0",
                     "--data", "[1,-2,3]", "--closed-form"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "closed_form"
        assert report["theta"] == 2.0

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = golden_cases.CASES["compare_expectile_forward"]
        monkeypatch.setenv("PSIEST_SEED", "7")
        main(argv)
        out7 = capsys.readouterr().out
        assert json.loads(out7)["seed"] == 7
        monkeypatch.delenv("PSIEST_SEED")
        main(argv)
        assert json.loads(capsys.readouterr().out)["seed"] == 0


class TestKernelFlags:
    # Each subparser's (option strings, dest) in order, as they were before
    # the kernel flags came from one table (cli._KERNEL_FLAGS).
    OPTIONS = {
        "estimate": [
            (("-h", "--help"), "help"), (("--family",), "family"),
            (("--psi",), "psi"), (("--theta",), "theta"), (("--param",), "param"),
            (("--data",), "data"), (("--weights",), "weights"),
            (("--closed-form",), "closed_form"), (("--tol",), "tol"),
            (("--seed",), "seed")],
        "compare": [
            (("-h", "--help"), "help"), (("--family",), "family"),
            (("--psi",), "psi"), (("--param",), "param"),
            (("--family-phi",), "family_phi"), (("--phi",), "psi_phi"),
            (("--param-phi",), "param_phi"), (("--theta",), "theta"),
            (("--data",), "data"), (("--condition",), "condition"),
            (("--grid",), "grid"), (("--trials",), "trials"),
            (("--max-n",), "max_n"), (("--max-km",), "max_km"),
            (("--tol",), "tol"), (("--seed",), "seed")],
        "mobius-test": [
            (("-h", "--help"), "help"), (("--f",), "f"), (("--g",), "g"),
            (("--theta",), "theta"), (("--probes",), "probes"),
            (("--tol",), "tol"), (("--seed",), "seed")],
        "bounds": [
            (("-h", "--help"), "help"), (("--alpha",), "alpha"),
            (("--data",), "data"), (("--tol",), "tol"), (("--seed",), "seed")],
    }

    def test_options_and_dests_as_before(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        got = {name: [(tuple(a.option_strings), a.dest) for a in p._actions]
               for name, p in sub.choices.items()}
        assert got == self.OPTIONS

    FAMILY = ["--family", "expectile", "--param", "alpha=0.5"]
    FAMILY_PHI = ["--family-phi", "expectile", "--param-phi", "alpha=0.5"]

    # each of _build_kernel's errors, for each kernel, as before the table
    @pytest.mark.parametrize("argv, err", [
        (["estimate", "--family", "expectile", "--psi", "x-t"],
         "--family and --psi are exclusive"),
        (["estimate"], "supply --family or --psi"),
        (["estimate", "--psi", "x-t", "--param", "a=1"],
         "--param applies only to --family"),
        (["estimate", "--psi", "x-t"], "--psi requires --theta lo,hi"),
        (["estimate", *FAMILY, "--theta", "0,1"],
         "--theta applies only to an expression kernel"),
        (["compare", *FAMILY, "--family-phi", "expectile", "--phi", "x-t"],
         "--family-phi and --phi are exclusive"),
        (["compare", *FAMILY], "supply --family-phi or --phi"),
        (["compare", *FAMILY, "--phi", "x-t", "--param-phi", "a=1"],
         "--param-phi applies only to --family-phi"),
        (["compare", *FAMILY, "--phi", "x-t"], "--phi requires --theta lo,hi"),
        (["compare", "--psi", "x-t", *FAMILY_PHI], "--psi requires --theta lo,hi"),
        (["compare", *FAMILY, *FAMILY_PHI, "--theta", "0,1"],
         "--theta applies only to an expression kernel"),
    ])
    def test_kernel_errors_name_the_flags(self, argv, err, capsys):
        assert main(argv + ["--data", "[1]"]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")


class TestLargestDoubles:
    REVERSED = ["compare", "--family", "expectile", "--param", "alpha=0.7",
                "--family-phi", "expectile", "--param-phi", "alpha=0.3"]

    @pytest.mark.parametrize("data", ["[1e307,1.5e307]", "[1e308,1.5e308]"])
    def test_derivative_past_half_the_largest_double(self, data, capsys):
        # past 9e307 the sum of the two theta1 values overflows
        assert main(self.REVERSED + ["--data", data, "--condition", "derivative"]) == 3
        verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
        assert (verdict["status"], verdict["witness"]["t0"]) == (
            "Counterexample", float(data[1:].split(",")[0]))

    @pytest.mark.parametrize("data", ["[-1e307,1e307]", "[-1e308,1e308]", "[0,1e308]"])
    def test_ratio_on_a_window_wider_than_the_largest_double(self, data, capsys):
        # the width of (-1e308, 1e308) overflows, and the grid's step sum
        # (hi - lo) k on all three; every grid t must be finite
        assert main(self.REVERSED + ["--data", data, "--condition", "ratio"]) == 2
        verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
        assert verdict["status"] == "Inconclusive"
        assert verdict["witness"]["stage"] == "cross"
        kphi = make_kernel(FamilySpec("expectile", {"alpha": 0.3}))
        grid = build_witness_set(kphi, json.loads(data)).parameter_grid
        assert len(grid) == 513 and all(map(math.isfinite, grid))


class TestGoldenDeterminism:
    @pytest.mark.parametrize("name", sorted(golden_cases.CASES))
    def test_matches_golden_and_repeats(self, name):
        argv = golden_cases.CASES[name]
        code1, out1 = golden_cases.run_case(argv)
        code2, out2 = golden_cases.run_case(argv)
        assert code1 == code2 == golden_cases.EXPECTED_EXIT[name]
        assert out1 == out2  # byte-identical across runs
        with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
            assert out1 == fh.read()

    def test_check_names_each_mismatch(self, tmp_path):
        assert golden_cases.check(GOLDEN_DIR) == {}
        edits = {
            "mobius_cube": [("t ^ 3", "t ^ 2")],
            # a number's digits, a nested key and a list item
            "estimate_laplace": [('"iterations":7', '"iterations":7.0'),
                                 ('"mu":0', '"mu":1'), ("[1.9999999999995,", "[1.5,")],
            "bounds_alpha_one": [('"status"', '"state"')],
            "estimate_expectile": [("", "[")],  # not JSON
        }
        for name in golden_cases.CASES:
            with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
                text = fh.read()
            for old, new in edits.get(name, ()):
                assert old in text
                text = text.replace(old, new, 1) if old else new + text
            (tmp_path / (name + ".json")).write_text(text, encoding="utf-8")
        bad = golden_cases.check(str(tmp_path))
        assert list(bad) == [name for name in golden_cases.CASES if name in edits]
        assert bad["mobius_cube"] == ['g: "t ^ 2" -> "t ^ 3"']
        assert bad["estimate_laplace"] == [
            "params.mu: 1 -> 0", "bracket[0]: 1.5 -> 1.9999999999995",
            "iterations: 7.0 -> 7"]
        assert bad["bounds_alpha_one"] == [
            'state: "Converged" -> <missing>', 'status: <missing> -> "Converged"']
        assert bad["estimate_expectile"][0].startswith('(document): "[{')

    def test_check_names_a_wrong_exit_code(self, monkeypatch):
        monkeypatch.setitem(golden_cases.EXPECTED_EXIT, "estimate_laplace", 2)
        assert golden_cases.check(GOLDEN_DIR) == {"estimate_laplace": ["exit code: 2 -> 0"]}

    @pytest.mark.parametrize("name", sorted(golden_cases.CASES))
    def test_golden_is_valid_json(self, name):
        with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
            json.loads(fh.read())
