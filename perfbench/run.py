"""psiest benchmark: three workloads through the public CLI, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload estimate_bulk --seed 1 --seconds 25 --trace 0

psiest is imported from the checkout's src/, so two commits are measured
with the same benchmark code.  The run builds its inputs from --seed, runs
whole passes over its inputs for about --seconds seconds, checks every
output after the timed loop, and prints a JSON line of run details followed
by the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, op latency in units of a
reference task timed alongside (see untraced_run).  --trace 1 runs each
input once untraced and twice with spans around psiest's public functions,
a timing and a counting pass (see tracing.py), reports the per-layer
metrics, and writes the timing pass's spans to perfbench/.work/.
fail_ratio is failed / attempted.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
REQUIRED = ("src/psiest/__init__.py", "tests/gen.py", "tests/golden_cases.py", "tests/golden")

# Fresh processes per start-up sample of the traced run; their median is
# reported.
PROBES = 9
# The untraced run makes a fresh-process set-up before the first op that
# starts this long after the previous set-up.
SETUP_EVERY_S = 2.0


def _probe_seconds(code, env=None):
    """Wall time of one fresh `python -c code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def _setup_seconds(args):
    """One set-up, in a fresh process: import psiest, generate the inputs,
    write the data files."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    return float(done.stdout.split()[-1])


def _build(args, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](ROOT, args.seed, workdir, args.smoke)


def _repeat(unit, seconds, run_one):
    """Run the inputs of `unit` in order, as many whole times as are
    predicted to end within `seconds`; at least once."""
    start = time.perf_counter()
    times = 0
    while True:
        for inp in unit:
            run_one(inp)
        times += 1
        elapsed = time.perf_counter() - start
        if elapsed * (times + 1) / times > seconds:
            return times, elapsed


def _check_all(wl, done):
    failures = []
    for inp, outs in done:
        reason = wl.check(inp, outs)
        if reason:
            failures.append(reason)
    return failures


# The reference task: a fixed pure-Python bisection on a sum over a list,
# the kind of work psiest's solver does, but part of the benchmark, so no
# change to psiest changes it.
_REF_XS = [((i * 7919) % 1000) / 100.0 for i in range(3000)]


def _reference_seconds():
    start = time.perf_counter()
    lo, hi = 1e-3, 1e3
    for _ in range(12):
        mid = math.sqrt(lo * hi)
        total = 0.0
        for x in _REF_XS:
            total += abs(x) / (mid * mid) - 1.0 / mid
        if total > 0.0:
            lo = mid
        else:
            hi = mid
    return time.perf_counter() - start


def untraced_run(args, workdir):
    """Passes over the cycle for --seconds, the reference task timed right
    before every op and a fresh-process set-up every SETUP_EVERY_S.

    On a shared host the same code runs up to 1.7 times slower for minutes
    at a time, so op latency is reported in units of the reference task's
    median time in the same run, on the same CPU: the host's speed cancels
    and psiest's own cost stays.  The geometric mean over the inputs moves
    smoothly with every input, where a median over a mix of fast and slow
    inputs jumps between them.  setup_s stays in seconds, the fastest of
    the run's set-ups."""
    # One CPU for the run and its children, so that the reference, the ops,
    # the CLI children and the set-ups all run on the same host core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = _build(args, workdir)
    wl.run(wl.cycle[0])  # warm-up, not counted
    refs, setups, done = [], [], []
    by_input = {inp.label: [] for inp in wl.cycle}
    last_setup = float("-inf")

    def one(inp):
        nonlocal last_setup
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(_setup_seconds(args))
            last_setup = time.perf_counter()
        refs.append(_reference_seconds())
        outs, seconds = wl.run(inp)
        by_input[inp.label].append(seconds)
        done.append((inp, outs))

    passes, wall = _repeat(wl.cycle, args.seconds, one)
    if hasattr(wl, "child_rss_kb"):
        rss_kb = max(wl.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = _check_all(wl, done)
    ref = statistics.median(refs)
    med = {label: statistics.median(v) for label, v in by_input.items()}
    geomean = statistics.geometric_mean(med.values())
    metrics = {
        "latency_geomean_ref": (geomean / ref, "ref"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    latencies = [s for v in by_input.values() for s in v]
    details = {"passes": passes, "ops": len(done), "wall_s": wall,
               "ops_per_s": len(latencies) / sum(latencies),
               "reference_s": ref, "latency_geomean_s": geomean,
               "latency_max_s": max(med.values()),
               "latency_median_by_input_s": med, "setup_samples_s": setups}
    return metrics, len(done), failures, details


def traced_run(args, workdir):
    from tracing import COUNTING_METRICS, Tracer

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    probes = 1 if args.smoke else PROBES
    bare = statistics.median([_probe_seconds("pass") for _ in range(probes)])
    imported = statistics.median([_probe_seconds("import psiest", env) for _ in range(probes)])
    wl = _build(args, workdir)
    wl.run(wl.cycle[0])  # warm-up, not counted
    timing, counting = Tracer(), Tracer(counting=True)
    seconds = {None: [], timing: [], counting: []}
    done = []

    def one(inp):
        # Rotate which pass goes first, so none always runs warm.
        order = [None, timing, counting]
        k = len(done) // 3 % 3
        for tr in order[k:] + order[:k]:
            if tr is not None:
                tr.op_id += 1
            outs, op_s = wl.run(inp, tr)
            seconds[tr].append(op_s)
            done.append((inp, outs))

    cycles, wall = _repeat(wl.cycle, args.seconds, one)
    failures = _check_all(wl, done)
    spans_path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
    timing.write_spans(spans_path)
    n_ops = len(seconds[timing])
    metrics = timing.layer_metrics(n_ops)
    counted = counting.layer_metrics(n_ops)
    metrics.update({k: counted[k] for k in COUNTING_METRICS})
    plain_s = sum(seconds[None])
    metrics.update({
        "cli.interpreter_s": (bare, "s"),
        "cli.import_s": (imported - bare, "s"),
        "trace.overhead_ratio": (sum(seconds[timing]) / plain_s, "ratio"),
    })
    details = {"cycles": cycles, "ops": len(done), "traced_ops": n_ops,
               "wall_s": wall, "spans": len(timing.spans),
               "spans_file": os.path.relpath(spans_path, ROOT),
               "counting_overhead_ratio": sum(seconds[counting]) / plain_s}
    return metrics, len(done), failures, details


def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed}


def setup_probe(args) -> int:
    start = time.perf_counter()
    import psiest.cli  # noqa: F401  (the import is what is timed)

    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        _build(args, workdir)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)
    print(repr(seconds))
    return 0


def main(argv=None) -> int:
    from workloads import WHY

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and single probes, to test the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write(f"perfbench: not a psiest checkout, missing {missing}\n")
        return 2
    # Inputs come only from the seed: the CLI must not pick up a seed from
    # the environment.
    os.environ.pop("PSIEST_SEED", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import psiest

    where = os.path.dirname(os.path.abspath(psiest.__file__))
    if where != os.path.join(ROOT, "src", "psiest"):
        sys.stderr.write(f"perfbench: psiest imported from {where}, not src/\n")
        return 2
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failures, details = run(args, workdir)
    finally:
        shutil.rmtree(workdir)
    info = {"workload": args.workload, "why": WHY[args.workload],
            "trace": args.trace, "seconds": args.seconds,
            "env": environment(args.seed), **details,
            "fail_ratio": len(failures) / attempted, "failures": failures[:5]}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
