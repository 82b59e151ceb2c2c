"""Which psiest modules `import psiest` and each subcommand load, each
checked in a fresh interpreter, and how the package resolves its names."""

import json
import os
import subprocess
import sys

import pytest

import golden_cases
import psiest
from psiest import kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in a fresh process: the exit code of `psiest ARGV` (stdout dropped) or
# None without ARGV, and the psiest submodules then loaded.
_CHILD = """
import contextlib, io, json, sys
import psiest
code = None
if len(sys.argv) > 1:
    from psiest.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("psiest."))]))
"""


def loaded(argv=()):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, {m.split(".", 1)[1] for m in modules}


def test_import_loads_no_submodule():
    assert loaded() == (None, set())


@pytest.mark.parametrize("case", ["estimate_laplace", "bounds_alpha_one"])
def test_estimate_and_bounds_skip_comparison_and_dsl(case):
    code, modules = loaded(golden_cases.CASES[case])
    assert code == golden_cases.EXPECTED_EXIT[case]
    assert {"cli", "kernel", "solver", "families"} <= modules
    assert not modules & {"comparison", "bajraktarevic", "exprparse"}


def test_compare_of_two_families_skips_bajraktarevic_and_dsl():
    code, modules = loaded(golden_cases.CASES["compare_expectile_forward"])
    assert code == 0
    assert "comparison" in modules
    assert not modules & {"bajraktarevic", "exprparse"}


def test_mobius_test_skips_comparison():
    code, modules = loaded(golden_cases.CASES["mobius_affine"])
    assert code == 0
    assert {"bajraktarevic", "exprparse"} <= modules
    assert "comparison" not in modules


def test_star_import_binds_all():
    namespace = {}
    exec("from psiest import *", namespace)
    assert set(psiest.__all__) <= namespace.keys()
    assert namespace["weighted_sum"] is kernel.weighted_sum


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        psiest.nope  # noqa: B018


def test_names_resolve_on_every_access(monkeypatch):
    # A name is read through its module each time and never stored in the
    # package, so a replaced module attribute shows, and the original again
    # once it is put back.
    original = psiest.weighted_sum
    assert "weighted_sum" not in vars(psiest)
    monkeypatch.setattr(kernel, "weighted_sum", len)
    assert psiest.weighted_sum is len
    monkeypatch.undo()
    assert psiest.weighted_sum is original is kernel.weighted_sum
