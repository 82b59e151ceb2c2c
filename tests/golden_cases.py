"""The documented CLI invocations and their golden JSON outputs.

Run `python3 golden_cases.py` from this directory to regenerate the files in
golden/ after an intentional output change, and
`PYTHONPATH=src python3 tests/golden_cases.py --check` from the repository
root to compare every case with its golden file under any interpreter: it
writes nothing, prints each JSON key path that moved with its golden and
new value, then how many cases match, and exits non-zero on a mismatch.
"""

import io
import os
import sys
from contextlib import redirect_stdout

E = "0.36787944117144233"  # exp(-1)

CASES = {
    "estimate_laplace": [
        "estimate", "--family", "laplace_scale", "--param", "mu=0",
        "--data", "[1,-2,3]"],
    "estimate_expectile": [
        "estimate", "--family", "expectile", "--param", "alpha=0.5",
        "--data", "[1,2,3]"],
    "estimate_beta_alpha": [
        "estimate", "--family", "beta_alpha", "--param", "beta=1",
        "--data", "[0.5]"],
    "compare_expectile_forward": [
        "compare", "--family", "expectile", "--param", "alpha=0.3",
        "--family-phi", "expectile", "--param-phi", "alpha=0.7",
        "--data", "[0,1,2,5]", "--condition", "direct"],
    "compare_expectile_reversed": [
        "compare", "--family", "expectile", "--param", "alpha=0.7",
        "--family-phi", "expectile", "--param-phi", "alpha=0.3",
        "--data", "[0,1,2,5]", "--condition", "direct"],
    "compare_lognormal_equality": [
        "compare", "--family", "lognormal_mu", "--param", "sigma2=1",
        "--family-phi", "lognormal_mu", "--param-phi", "sigma2=4",
        "--data", "[1,2.718281828459045,7.38905609893065]",
        "--condition", "equality", "--trials", "50"],
    "mobius_fractional": [
        "mobius-test", "--f", "t", "--g", "(2*t+1)/(t+3)", "--theta", "0,10"],
    "mobius_cube": [
        "mobius-test", "--f", "t", "--g", "t^3", "--theta", "1,5"],
    "mobius_affine": [
        "mobius-test", "--f", "t", "--g", "2*t+3", "--theta", "0,10"],
    "bounds_alpha_one": ["bounds", "--alpha", "1", "--data", f"[{E},{E}]"],
    "bounds_alpha_two": ["bounds", "--alpha", "2", "--data", f"[{E},{E}]"],
    "bounds_small_alpha": ["bounds", "--alpha", "0.5", "--data", "[0.99]"],
}

EXPECTED_EXIT = {name: 0 for name in CASES}
EXPECTED_EXIT["compare_expectile_reversed"] = 3


def run_case(argv):
    """Run one CLI invocation in-process; returns (exit_code, stdout_text)."""
    from psiest.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def regenerate(golden_dir):
    os.makedirs(golden_dir, exist_ok=True)
    for name, argv in CASES.items():
        code, out = run_case(argv)
        assert code == EXPECTED_EXIT[name], (name, code)
        with open(os.path.join(golden_dir, name + ".json"), "w",
                  encoding="utf-8") as fh:
            fh.write(out)
        print(f"wrote {name}.json ({len(out)} bytes)")


def check(golden_dir):
    """{case name: what moved} for each case whose exit code or stdout
    differs from EXPECTED_EXIT and the golden file; what moved is a list of
    lines: the exit code, then each moved JSON key path (golden_moves)."""
    from golden_moves import moved, parse

    bad = {}
    for name, argv in CASES.items():
        code, out = run_case(argv)
        with open(os.path.join(golden_dir, name + ".json"), encoding="utf-8") as fh:
            want = fh.read()
        lines = [] if code == EXPECTED_EXIT[name] else [
            f"exit code: {EXPECTED_EXIT[name]} -> {code}"]
        if out != want:
            lines += moved(parse(want), parse(out)) or ["(bytes outside the values)"]
        if lines:
            bad[name] = lines
    return bad


if __name__ == "__main__":
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    if sys.argv[1:] == ["--check"]:
        bad = check(golden)
        for name, lines in bad.items():
            for line in lines:
                print(f"{name}: {line}")
        version = ".".join(map(str, sys.version_info[:3]))
        print(f"{len(CASES) - len(bad)} of {len(CASES)} goldens match on Python {version}")
        sys.exit(f"mismatch: {', '.join(bad)}" if bad else 0)
    if sys.argv[1:]:
        sys.exit("usage: golden_cases.py [--check]")
    regenerate(golden)
