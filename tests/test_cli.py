import json
import math
import os

import pytest

import golden_cases
from psiest import DataParseError, EmptyData, NegativeWeight, cli, solver
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

    def test_closed_form_skips_zero_weights(self, tmp_path, capsys):
        # F(1e200) is inf, but its weight is 0: the solver's 2.5, not NaN
        data = tmp_path / "d.txt"
        data.write_text("1e200,0\n1,1\n2,1\n")
        code = main(["estimate", "--family", "normal_var", "--param", "m=0",
                     "--data", str(data), "--closed-form"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 2.5

    def test_closed_form_non_finite_mean_exits_2(self, capsys):
        # 1e308 + 1e308 overflows: the estimate was printed as "inf", exit 0
        code = main(["estimate", "--family", "laplace_scale", "--param", "mu=0",
                     "--closed-form", "--data", "[1e308,-1e308]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: laplace_scale: weighted mean of F(x) is inf\n")

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    def test_bad_tolerance(self, tol, capsys):
        argv = self.LAPLACE + ["--data", "[1,-2,3]", "--tol", tol]
        self.assert_usage_error(argv, capsys)

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

    @pytest.mark.parametrize("name", sorted(golden_cases.CASES))
    def test_golden_is_valid_json(self, name):
        with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
            json.loads(fh.read())
