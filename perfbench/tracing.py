"""Spans around calls into psiest's public functions, recorded from outside.

The library is not edited.  `Tracer.install()` replaces every module
attribute through which callers reach a traced function (for example
`psiest.cli.solve_sign_change` and `psiest.solver.solve_sign_change`) with a
wrapper that opens a span, and `uninstall()` puts the originals back.  The
wrappers work because psiest resolves these names at call time.

A span is (name, start, end, parent, op id).  A span's self time is its
duration minus the time its child spans cover.

A traced op runs in two passes, each with its own Tracer:

* the timing pass (`Tracer()`) has spans only on functions that run at most
  once per `weighted_sum` call, so no wrapper runs once per term and
  `weighted_sum`'s self time is the cost of the terms, psi included;
* the counting pass (`Tracer(counting=True)`) adds what does run once per
  term: spans on `digamma` and on each outermost `eval_expr` call, and a
  counter on every family kernel's `eval`.  Only the metrics in
  COUNTING_METRICS come from it.

Spans of calls that run a few thousand times per op are kept in memory and
written out by `write_spans`; `weighted_sum`, `digamma` and `eval_expr` run
up to 10^6 times per op, so they only add to the totals.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict

# (module, function, span name, keep each span)
TRACED = (
    ("kernel", "weighted_sum", "kernel.weighted_sum", False),
    ("exprparse", "parse", "exprparse.parse", True),
    ("solver", "solve_sign_change", "solver.solve", True),
    ("solver", "theta1", "solver.theta1", True),
    ("solver", "generalized_left_inverse", "solver.left_inverse", True),
    ("comparison", "build_witness_set", "comparison.witness_set", True),
    ("comparison", "check_direct", "comparison.direct", True),
    ("comparison", "check_two_point", "comparison.two_point", True),
    ("comparison", "check_ratio_condition", "comparison.ratio", True),
    ("comparison", "check_derivative_condition", "comparison.derivative", True),
    ("comparison", "check_equality", "comparison.equality", True),
    ("bajraktarevic", "determinant_test", "bajraktarevic.determinant_test", True),
    ("bajraktarevic", "mobius_fit", "bajraktarevic.mobius_fit", True),
    ("bajraktarevic", "schwarzian", "bajraktarevic.schwarzian", True),
    ("cli", "main", "cli.main", True),
    ("cli", "read_data", "cli.read_data", True),
    ("cli", "emit", "cli.emit", True),
)
# Functions that run once per term: traced in the counting pass only.
PER_TERM = (
    ("families", "digamma", "families.digamma", False),
    ("exprparse", "eval_expr", "exprparse.eval_expr", False),
)
# The per-layer metrics taken from the counting pass; the timing pass gives
# all the others.
COUNTING_METRICS = (
    "families.eval.calls", "families.digamma.calls", "families.digamma.self_s",
    "exprparse.eval_expr.nodes", "exprparse.eval_expr.self_s",
    "comparison.ratio.kernel_evals",
)

_NAME, _SPAN, _CHILD, _START, _PARENT = range(5)


class Tracer:
    def __init__(self, counting=False):
        self.counting = counting
        self.op_id = 0
        self.stack = []  # open frames: [name, span index, child seconds, start, kept parent]
        self.spans = []  # [name, start, end, parent span index, op id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.theta1_keys = set()
        # id(kernel) -> (kernel, stable key) for the kernels of the current
        # op.  Holding the kernel keeps its id from being reused in the op.
        self._kernels = {}
        self._expr_sizes = {}  # id(expression) -> (expression, node count)
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name, keep):
        parent = self.stack[-1] if self.stack else None
        kept_parent = None if parent is None else (
            parent[_SPAN] if parent[_SPAN] is not None else parent[_PARENT])
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, kept_parent, self.op_id])
        frame = [name, index, 0.0, time.perf_counter(), kept_parent]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[_START]
        name = frame[_NAME]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[_CHILD]
        if self.stack:
            self.stack[-1][_CHILD] += dur
        if frame[_SPAN] is not None:
            span = self.spans[frame[_SPAN]]
            span[1] = frame[_START]
            span[2] = end

    def _top(self):
        return self.stack[-1][_NAME] if self.stack else ""

    def _under_comparison(self):
        return any(f[_NAME].startswith("comparison.") for f in self.stack)

    # -- wrappers ---------------------------------------------------------

    def _kernel_key(self, kernel):
        """A family kernel's key is its family and parameters, so kernels
        rebuilt from the same spec within an op count as one."""
        entry = self._kernels.get(id(kernel))
        if entry is None:
            entry = self._kernels[id(kernel)] = (kernel, f"kernel@{id(kernel)}")
        return entry[1]

    def _expr_size(self, expr):
        """Nodes in an expression tree: the calls one evaluation makes."""
        entry = self._expr_sizes.get(id(expr))
        if entry is None:
            n = 1 + sum(self._expr_size(child) for child in vars(expr).values()
                        if dataclasses.is_dataclass(child))
            entry = self._expr_sizes[id(expr)] = (expr, n)
        return entry[1]

    def _wrap(self, name, fn, keep):
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        if name == "kernel.weighted_sum":
            def wrapper(kernel, sample, *args, **kwargs):
                counts["terms"] += len(sample.xs)
                if self._top() == "solver.solve":
                    counts["solve_evals"] += 1
                frame = enter(name, keep)
                try:
                    return fn(kernel, sample, *args, **kwargs)
                finally:
                    exit_(frame)
        elif name == "exprparse.eval_expr":
            from psiest import exprparse

            def wrapper(expr, *args, **kwargs):
                # The recursion resolves eval_expr in its module: point that
                # at the original for the call, so only the outermost call
                # is wrapped and timed.
                counts["expr_nodes"] += self._expr_size(expr)
                exprparse.eval_expr = fn
                frame = enter(name, keep)
                try:
                    return fn(expr, *args, **kwargs)
                finally:
                    exit_(frame)
                    exprparse.eval_expr = wrapper
        elif name == "solver.solve":
            def wrapper(*args, **kwargs):
                if self._under_comparison():
                    counts["comparison_solves"] += 1
                frame = enter(name, keep)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                if res.converged:
                    counts["converged"] += 1
                return res
        elif name == "solver.theta1":
            def wrapper(kernel, x, *args, **kwargs):
                if self._top().startswith("comparison."):
                    counts["comparison_theta1"] += 1
                    self.theta1_keys.add((self.op_id, self._kernel_key(kernel), x))
                frame = enter(name, keep)
                try:
                    return fn(kernel, x, *args, **kwargs)
                finally:
                    exit_(frame)
        else:
            def wrapper(*args, **kwargs):
                frame = enter(name, keep)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        return wrapper

    def _keyed_make_kernel(self, make_kernel):
        """Family kernels are closures built by make_kernel: record each
        one's spec as its key and, in the counting pass, count its evals."""
        counts = self.counts

        def wrapper(spec):
            kernel = make_kernel(spec)
            if self.counting:
                ev = kernel.eval

                def counted(x, t):
                    counts["family_evals"] += 1
                    if self._top() == "comparison.ratio":
                        counts["ratio_evals"] += 1
                    return ev(x, t)

                kernel = dataclasses.replace(kernel, eval=counted)
            key = f"{spec.family}{sorted(spec.params.items())}"
            self._kernels[id(kernel)] = (kernel, key)
            return kernel

        return wrapper

    def install(self):
        """Point every psiest module attribute that names a traced function
        at its wrapper."""
        import psiest
        from psiest import bajraktarevic, cli, comparison, exprparse, families, kernel, solver

        modules = {"kernel": kernel, "families": families, "exprparse": exprparse,
                   "solver": solver, "comparison": comparison,
                   "bajraktarevic": bajraktarevic, "cli": cli}
        replacements = {}
        for mod, fname, name, keep in TRACED + (PER_TERM if self.counting else ()):
            fn = getattr(modules[mod], fname)
            replacements[id(fn)] = (fn, self._wrap(name, fn, keep))
        make_kernel = families.make_kernel
        replacements[id(make_kernel)] = (make_kernel, self._keyed_make_kernel(make_kernel))
        for module in (psiest, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        """Put the originals back; the op's kernels may now be freed."""
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        self._kernels.clear()
        self._expr_sizes.clear()

    # -- results ------------------------------------------------------------

    def state(self) -> dict:
        """Everything the metrics need, as JSON-ready data (a traced child
        process hands this to the harness)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "theta1_keys": [list(k) for k in self.theta1_keys],
                "spans": self.spans}

    def merge(self, state: dict, op_id: int) -> None:
        self.calls.update(state["calls"])
        for k, v in state["self_s"].items():
            self.self_s[k] += v
        self.counts.update(state["counts"])
        self.theta1_keys.update((op_id, k[1], k[2]) for k in state["theta1_keys"])
        base = len(self.spans)
        for name, start, end, parent, _ in state["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else base + parent, op_id])

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """The per-layer metrics, per traced op.  A layer that does not run on
        a workload reads 0."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def per_op(v):
            return v / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        solves = calls["solver.solve"]
        cmp_theta1 = counts["comparison_theta1"]
        m = {
            "kernel.weighted_sum.calls": (per_op(calls["kernel.weighted_sum"]), "calls/op"),
            "kernel.weighted_sum.self_s": (per_op(self_s["kernel.weighted_sum"]), "s/op"),
            "kernel.terms": (per_op(counts["terms"]), "terms/op"),
            "kernel.ns_per_term": (ratio(self_s["kernel.weighted_sum"] * 1e9, counts["terms"]), "ns"),
            "families.eval.calls": (per_op(counts["family_evals"]), "calls/op"),
            "families.digamma.calls": (per_op(calls["families.digamma"]), "calls/op"),
            "families.digamma.self_s": (per_op(self_s["families.digamma"]), "s/op"),
            "exprparse.parse.self_s": (per_op(self_s["exprparse.parse"]), "s/op"),
            "exprparse.eval_expr.nodes": (per_op(counts["expr_nodes"]), "nodes/op"),
            "exprparse.eval_expr.self_s": (per_op(self_s["exprparse.eval_expr"]), "s/op"),
            "solver.solve.calls": (per_op(solves), "calls/op"),
            "solver.solve.self_s": (per_op(self_s["solver.solve"]), "s/op"),
            "solver.evals_per_solve": (ratio(counts["solve_evals"], solves), "evals/solve"),
            "solver.converged_ratio": (ratio(counts["converged"], solves), "ratio"),
            "solver.theta1.calls": (per_op(calls["solver.theta1"]), "calls/op"),
            "solver.left_inverse.calls": (per_op(calls["solver.left_inverse"]), "calls/op"),
            "solver.left_inverse.self_s": (per_op(self_s["solver.left_inverse"]), "s/op"),
        }
        for check in ("witness_set", "direct", "two_point", "ratio", "derivative", "equality"):
            m[f"comparison.{check}.self_s"] = (per_op(self_s[f"comparison.{check}"]), "s/op")
        m.update({
            "comparison.solves_per_op": (per_op(counts["comparison_solves"]), "solves/op"),
            "comparison.theta1.calls": (per_op(cmp_theta1), "calls/op"),
            "comparison.theta1.distinct_ratio": (ratio(len(self.theta1_keys), cmp_theta1), "ratio"),
            "comparison.ratio.kernel_evals": (per_op(counts["ratio_evals"]), "evals/op"),
            "bajraktarevic.determinant_test.calls": (per_op(calls["bajraktarevic.determinant_test"]), "calls/op"),
            "bajraktarevic.determinant_test.self_s": (per_op(self_s["bajraktarevic.determinant_test"]), "s/op"),
            "bajraktarevic.mobius_fit.self_s": (per_op(self_s["bajraktarevic.mobius_fit"]), "s/op"),
            "bajraktarevic.schwarzian.self_s": (per_op(self_s["bajraktarevic.schwarzian"]), "s/op"),
            "cli.main.self_s": (per_op(self_s["cli.main"]), "s/op"),
            "cli.read_data.self_s": (per_op(self_s["cli.read_data"]), "s/op"),
            "cli.emit.self_s": (per_op(self_s["cli.emit"]), "s/op"),
        })
        return m
