"""Steadiness record: repeated untraced runs, one seed each, per workload.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py

It makes SETS sets of RUNS untraced runs of every workload in
BENCHMARK.json, one seed per run, and writes perfbench/steadiness.json.
For every end-to-end metric of every workload it records the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median of
each set of runs, and the ratio of each later set's median to the first
set's, oriented so that above 1 is worse.  These figures back the bounds in
BENCHMARK.json: a spread should stay below a third of the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
OUT = os.path.join(HERE, "steadiness.json")


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    record = {"run_seconds": bench["run_seconds"], "runs_per_set": RUNS,
              "env": None, "workloads": {}}
    values = {w: [{m: [] for m in metrics} for _ in range(SETS)] for w in workloads}
    failed = {w: 0 for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:  # interleaved, so drift in load hits all alike
                info, result = run_once(w, seed, bench["run_seconds"])
                record["env"] = {k: v for k, v in info["env"].items() if k != "seed"}
                failed[w] += result["failed"]
                for m in metrics:
                    values[w][s][m].append(result["metrics"][m]["value"])
                print(w, seed, {m: round(v["value"], 4) for m, v in result["metrics"].items()},
                      flush=True)

    for w in workloads:
        entry = {"failed_ops": failed[w], "metrics": {}}
        for m, spec in metrics.items():
            sets = [summarize(values[w][s][m]) for s in range(SETS)]
            first = sets[0]["median"]
            worse = [(st["median"] / first) if spec["better"] == "lower"
                     else (first / st["median"]) for st in sets[1:]]
            entry["metrics"][m] = {"bound": spec["bound"], "sets": sets,
                                   "later_median_over_first": worse}
            print(f"{w:14} {m:15} bound {spec['bound']:.2f}  spreads "
                  + " ".join(f"{st['spread']:.3f}" for st in sets)
                  + "  worse " + " ".join(f"{x:.3f}" for x in worse))
        record["workloads"][w] = entry
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
