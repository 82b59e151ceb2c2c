"""The three workloads: their inputs, one op each, and an output oracle.

Every workload is a closed loop with one client: an op starts when the
previous one has finished.  A workload builds one cycle of inputs from the
seed, every kind of op once, and a run repeats whole passes over the cycle,
so each input runs several times, spread over the run.  `run(inp, tracer)`
performs and times one op; `check(inp, outcomes)` runs after the timed loop
and returns None or the reason the op failed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))

WHY = {
    "estimate_bulk": (
        "in-process psiest estimate on n=2500 data, 10 families + 2 DSL kernels: "
        "per-term psi and weighted_sum do almost all the work; per-solve "
        "overhead, comparison and start-up almost none"),
    "compare_sweep": (
        "in-process compare --condition all both ways on the 5 iff-ordered "
        "family pairs, 4-40 points: thousands of tiny solves, so per-solve "
        "overhead, theta1 recomputation and the ratio scan dominate"),
    "cli_cold": (
        "python -m psiest.cli on the 12 golden argv lists, one process per op: "
        "interpreter start and import psiest dominate and solver work is "
        "trivial; estimate_bulk bypasses start-up"),
}

NO_COUNTEREXAMPLE = "NoCounterexample"
COUNTEREXAMPLE = "Counterexample"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Outcome:
    code: Optional[int]
    stdout: object  # str in process, bytes from a child
    error: str = ""  # exception or stderr text


def _in_process(argv) -> Outcome:
    """One `psiest.cli.main(argv)` call with its output captured.  The
    attribute is looked up on every call, so a tracer's wrapper is used."""
    import psiest.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = psiest.cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue())


def _timed_in_process(argvs, tracer):
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        outs = [_in_process(argv) for argv in argvs]
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outs, seconds


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Workload:
    def check(self, inp, outs) -> Optional[str]:
        for out in outs:
            if out.code is None:
                return f"{inp.label}: raised {out.error}"
        try:
            return self._check(inp, outs)
        except (ValueError, KeyError, TypeError) as exc:
            return (f"{inp.label}: unreadable report ({exc!r}), exit codes "
                    f"{[o.code for o in outs]}, stderr {[o.error.strip() for o in outs]}")


# --------------------------------------------------------------------------
# estimate_bulk

def _laplace(r):
    return r.choice((-1.0, 1.0)) * r.expovariate(1.0)


def _normal(r):
    return r.gauss(0.0, 2.0)


INF = float("inf")

# (label, kernel, draw, closed form).  A kernel is ("family", id, params) or
# ("psi", expression, theta).  Each kernel gets data from its own
# distribution.  The DSL kernels restate laplace_scale and normal_var, so
# those families' closed forms check them too.  gamma_shape and the two DSL
# kernels take 0.25-0.4 s an op and the rest 0.04-0.1 s.
ESTIMATE_N = 2500
ESTIMATE_KERNELS = (
    ("expectile", ("family", "expectile", {"alpha": 0.3}),
     lambda r: r.gauss(2.0, 1.0), None),
    ("normal_var", ("family", "normal_var", {"m": 0.0}),
     _normal, ("normal_var", {"m": 0.0})),
    ("beta_alpha", ("family", "beta_alpha", {"beta": 2.0}),
     lambda r: r.betavariate(2.0, 2.0), ("beta_alpha", {"beta": 2.0})),
    ("beta_beta", ("family", "beta_beta", {"alpha": 2.0}),
     lambda r: r.betavariate(2.0, 3.0), None),
    ("gamma_shape", ("family", "gamma_shape", {"lambda": 1.0}),
     lambda r: r.gammavariate(3.0, 1.0), None),
    ("gamma_rate", ("family", "gamma_rate", {"p": 2.0}),
     lambda r: r.gammavariate(2.0, 0.5), ("gamma_rate", {"p": 2.0})),
    ("lomax_rate_lambda", ("family", "lomax_rate_lambda", {"alpha": 3.0}),
     lambda r: 2.0 * (r.paretovariate(3.0) - 1.0), None),
    ("lomax_shape_alpha", ("family", "lomax_shape_alpha", {"lambda": 1.0}),
     lambda r: r.paretovariate(3.0) - 1.0, ("lomax_shape_alpha", {"lambda": 1.0})),
    ("lognormal_mu", ("family", "lognormal_mu", {"sigma2": 1.0}),
     lambda r: r.lognormvariate(1.0, 1.0), ("lognormal_mu", {"sigma2": 1.0})),
    ("laplace_scale", ("family", "laplace_scale", {"mu": 0.0}),
     _laplace, ("laplace_scale", {"mu": 0.0})),
    ("dsl_laplace", ("psi", "abs(x)/(t*t) - 1/t", (0.0, INF)),
     _laplace, ("laplace_scale", {"mu": 0.0})),
    ("dsl_normal_var", ("psi", "(x^2 - t)/(2*t*t)", (0.0, INF)),
     _normal, ("normal_var", {"m": 0.0})),
)


def _kernel_argv(kernel, suffix=""):
    kind, what, extra = kernel
    if kind == "psi":
        return ["--psi", what, f"--theta={extra[0]!r},{extra[1]!r}"]
    argv = [f"--family{suffix}", what]
    for key, value in extra.items():
        argv.append(f"--param{suffix}={key}={value!r}")
    return argv


def _build_kernel(kernel):
    from psiest import FamilySpec, OpenInterval, PsiKernel, eval_expr, make_kernel, parse

    kind, what, extra = kernel
    if kind == "family":
        return make_kernel(FamilySpec(what, extra))
    ast = parse(what)
    return PsiKernel(OpenInterval(*extra), lambda x, t: eval_expr(ast, x, t))


@dataclass
class EstimateInput:
    label: str
    kernel: tuple
    argv: list
    xs: tuple
    closed: Optional[tuple]


class EstimateBulk(_Workload):
    name = "estimate_bulk"

    def __init__(self, root, seed, workdir, smoke):
        rng = random.Random(seed)
        n = 200 if smoke else ESTIMATE_N
        self.cycle = []
        for label, kernel, draw, closed in ESTIMATE_KERNELS:
            xs = tuple(draw(rng) for _ in range(n))
            path = os.path.join(workdir, label + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(repr(x) + "\n" for x in xs))
            argv = ["estimate", *_kernel_argv(kernel), "--data", path]
            self.cycle.append(EstimateInput(label, kernel, argv, xs, closed))

    def run(self, inp, tracer=None):
        return _timed_in_process([inp.argv], tracer)

    def _check(self, inp, outs) -> Optional[str]:
        from psiest import FamilySpec, WeightedSample, closed_form_estimate, weighted_sum

        out = outs[0]
        rep = json.loads(out.stdout)
        if out.code != 0 or rep["status"] != "Converged":
            return f"{inp.label}: exit {out.code}, status {rep['status']}"
        kernel = _build_kernel(inp.kernel)
        sample = WeightedSample.uniform(inp.xs)
        lo, hi = rep["bracket"]
        if not weighted_sum(kernel, sample, lo) > 0.0:
            return f"{inp.label}: weighted sum not > 0 at bracket[0]={lo!r}"
        if not weighted_sum(kernel, sample, hi) <= 0.0:
            return f"{inp.label}: weighted sum not <= 0 at bracket[1]={hi!r}"
        if inp.closed is not None:
            ref = closed_form_estimate(FamilySpec(*inp.closed), sample)
            if not abs(rep["theta"] - ref) <= 1e-8 * abs(ref):
                return f"{inp.label}: theta {rep['theta']!r} vs closed form {ref!r}"
        return None


# --------------------------------------------------------------------------
# compare_sweep

# Quantile functions of the observation distributions, inside each family's
# domain, keyed by family id.  A set of n points takes one point from each
# of n equal-probability strata, so the spread of the theta1 values, and with
# it the work of the ratio scan, varies little from seed to seed.
COMPARE_QUANTILES = {
    "expectile": statistics.NormalDist(2.0, 2.0).inv_cdf,
    "beta_alpha": lambda u: 0.05 + 0.9 * u,
    "gamma_shape": lambda u: 0.2 + 4.8 * u,
    "lomax_rate_lambda": lambda u: 0.2 + 4.8 * u,
    "lomax_shape_alpha": lambda u: 0.2 + 4.8 * u,
}
# The ratio check is O(|obs|^2 |grid|), so the sizes spread its share.  An op
# costs 0.1-0.25 s, or 0.3-1.5 s for gamma_shape.
COMPARE_SIZES = (4, 22, 40)


@dataclass
class CompareInput:
    label: str
    family: str
    params: tuple  # (params of psi, params of phi) in the forward order
    xs: tuple

    def argv(self, forward: bool):
        p, q = self.params if forward else self.params[::-1]
        data = "[" + ",".join(repr(x) for x in self.xs) + "]"
        return ["compare", *_kernel_argv(("family", self.family, p)),
                *_kernel_argv(("family", self.family, q), "-phi"),
                "--data", data, "--condition", "all"]


class CompareSweep(_Workload):
    """One op is one ordering decision: (psi, phi) and then (phi, psi).  A
    reversed compare alone takes ~3 ms and a forward one 0.1-1 s; pairing
    them keeps the latency distribution from splitting into two modes."""

    name = "compare_sweep"

    def __init__(self, root, seed, workdir, smoke):
        pairs = _load(os.path.join(root, "tests", "gen.py"), "_perfbench_gen").ORDERED_PAIRS
        rng = random.Random(seed)
        self.cycle = []
        for size in ((4,) if smoke else COMPARE_SIZES):
            for name, family, lo, hi, _ in pairs:
                quantile = COMPARE_QUANTILES[family]
                xs = [quantile((i + rng.uniform(0.05, 0.95)) / size) for i in range(size)]
                rng.shuffle(xs)
                xs = tuple(xs)
                self.cycle.append(CompareInput(f"{name}/{size}", family, (lo, hi), xs))

    def run(self, inp, tracer=None):
        return _timed_in_process([inp.argv(True), inp.argv(False)], tracer)

    def _check(self, inp, outs) -> Optional[str]:
        for forward, out in zip((True, False), outs):
            expect = NO_COUNTEREXAMPLE if forward else COUNTEREXAMPLE
            where = f"{inp.label} {'forward' if forward else 'reversed'}"
            rep = json.loads(out.stdout)
            verdicts = {v["condition"]: v for v in rep["verdicts"]}
            for cond in ("direct", "two-point", "ratio"):
                if verdicts[cond]["status"] != expect:
                    return f"{where}: {cond} {verdicts[cond]['status']}, expected {expect}"
            statuses = [v["status"] for v in rep["verdicts"]]
            overall = (COUNTEREXAMPLE if COUNTEREXAMPLE in statuses else
                       INCONCLUSIVE if INCONCLUSIVE in statuses else NO_COUNTEREXAMPLE)
            code = {COUNTEREXAMPLE: 3, INCONCLUSIVE: 2, NO_COUNTEREXAMPLE: 0}[overall]
            if rep["status"] != overall or out.code != code:
                return f"{where}: status {rep['status']} exit {out.code} for verdicts {statuses}"
            if rep["observations"] != list(inp.xs):
                return f"{where}: observations echoed wrongly"
            witness = verdicts["direct"]["witness"]
            if witness is not None:
                error = self._reverify(inp, forward, witness)
                if error:
                    return f"{where}: {error}"
        return None

    def _reverify(self, inp, forward, witness) -> Optional[str]:
        """A direct witness must reproduce when both estimators are solved
        again on its sample."""
        from psiest import WeightedSample, solve_sign_change

        p, q = inp.params if forward else inp.params[::-1]
        sample = WeightedSample.uniform(witness["sample"])
        tp = solve_sign_change(_build_kernel(("family", inp.family, p)), sample).theta
        tq = solve_sign_change(_build_kernel(("family", inp.family, q)), sample).theta
        if (tp, tq) != (witness["theta_psi"], witness["theta_phi"]) or not tp > tq:
            return f"direct witness does not re-verify: {witness} vs ({tp!r}, {tq!r})"
        return None


# --------------------------------------------------------------------------
# cli_cold

@dataclass
class ColdInput:
    label: str
    argv: list
    golden: bytes
    exit_code: int


class CliCold(_Workload):
    name = "cli_cold"

    def __init__(self, root, seed, workdir, smoke):
        cases = _load(os.path.join(root, "tests", "golden_cases.py"), "_perfbench_golden_cases")
        cycle = []
        for name, argv in cases.CASES.items():
            with open(os.path.join(root, "tests", "golden", name + ".json"), "rb") as fh:
                cycle.append(ColdInput(name, list(argv), fh.read(), cases.EXPECTED_EXIT[name]))
        # The argv lists are fixed; the seed only picks where the cycle starts.
        k = seed % len(cycle)
        self.cycle = cycle[k:] + cycle[:k]
        self.workdir = workdir
        src = os.path.join(root, "src")
        self.env = {k: v for k, v in os.environ.items() if k != "PSIEST_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.root = root
        self.child_rss_kb = []

    def run(self, inp, tracer=None):
        trace_path = os.path.join(self.workdir, "child-trace.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "psiest.cli", *inp.argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path,
                   "counting" if tracer.counting else "timing", *inp.argv]
        err_path = os.path.join(self.workdir, "child-stderr.txt")
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    cwd=self.root, env=self.env)
            with proc.stdout:
                stdout = proc.stdout.read()
            # wait4 instead of wait: it also returns the child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if tracer is None:
            self.child_rss_kb.append(usage.ru_maxrss)
        elif proc.returncode == inp.exit_code:
            with open(trace_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), tracer.op_id)
        return [Outcome(proc.returncode, stdout, stderr)], seconds

    def _check(self, inp, outs) -> Optional[str]:
        out = outs[0]
        if out.code != inp.exit_code:
            return f"{inp.label}: exit {out.code}, expected {inp.exit_code}: {out.error.strip()}"
        if out.stdout != inp.golden:
            return f"{inp.label}: stdout differs from tests/golden/{inp.label}.json"
        return None


WORKLOADS = {w.name: w for w in (EstimateBulk, CompareSweep, CliCold)}
