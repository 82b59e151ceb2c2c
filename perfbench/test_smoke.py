"""Tiny-size runs of the whole harness, so it cannot rot.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_outside_a_checkout():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = _run(bare, "--workload", "estimate_bulk", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("counting", [False, True])
def test_tracer_restores_every_attribute(counting):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import psiest
    from psiest import bajraktarevic, cli, comparison, exprparse, families, kernel, solver
    from tracing import Tracer

    modules = (psiest, bajraktarevic, cli, comparison, exprparse, families, kernel, solver)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer(counting=counting)
    tracer.install()
    assert cli.solve_sign_change is not before[modules.index(cli)]["solve_sign_change"]
    assert solver.weighted_sum is not before[modules.index(solver)]["weighted_sum"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
