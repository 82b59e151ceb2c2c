"""Command-line front end: data ingestion, kernel construction, JSON reports.

Subcommands: estimate, compare, mobius-test, bounds.  All output is JSON with
numbers printed to 17 significant digits; identical inputs and seed produce
byte-identical reports.  Exit codes: 0 success / no counterexample, 1 usage
error, 2 solver or domain failure, 3 counterexample found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys
from typing import Optional, Sequence

# comparison, bajraktarevic and exprparse are imported by the subcommands
# that use them, so a process loads only what it runs.
from . import families
from .errors import (
    DataParseError,
    DomainError,
    EmptyData,
    ExprError,
    InvalidArgument,
    NegativeWeight,
    PsiEstError,
)
from .kernel import (
    OpenInterval, PsiKernel, WeightedSample, validate_monotone, weighted_sum)
from .solver import SolverConfig, solve_sign_change

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_COUNTEREXAMPLE = 3


def _ser(obj) -> str:
    """Deterministic JSON: insertion-order keys, floats at 17 significant
    digits, non-finite floats as tagged strings."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_ser(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + _ser(v) for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(report: dict) -> None:
    sys.stdout.write(_ser(report) + "\n")


def _lines(path: str) -> list:
    """The lines of a text file, read once, so a pipe reads as a regular
    file; bytes that are not UTF-8 are kept (as surrogates) for _records
    to name."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.readlines()


def _records(lines):
    """(line number, text) of each record line: `#` comments, blanks skipped.
    A line holding bytes that are not UTF-8 is a DataParseError."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.encode("utf-8")  # a byte that did not decode fails here
        except UnicodeEncodeError:
            raise DataParseError(lineno, "not UTF-8 text") from None
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _number(text: str, lineno: int, what: str, shown: str) -> float:
    """float(text), or a DataParseError at lineno: `bad {what} {shown!r}`,
    shown stripped.  The message is built only when the parse fails."""
    try:
        return float(text)
    except ValueError:
        raise DataParseError(lineno, f"bad {what} {shown.strip()!r}") from None


def _weight(text: str, lineno: int, what: str, shown: str) -> float:
    """_number(...), and a NegativeWeight at lineno where it is below 0."""
    w = _number(text, lineno, what, shown)
    if w < 0.0:
        raise NegativeWeight(lineno)
    return w


def read_data(source: str, weights_path: Optional[str] = None) -> WeightedSample:
    """Load a sample from an inline `[a,b,c]` literal or a file: one `value`
    or `value,weight` per line, `#` comments and blank lines skipped.  A
    weights file, one weight per line, replaces the sample's weights.

    Every number goes through _number, which names the line (1 for the
    literal) and the text that did not parse, and every weight through
    _weight, which rejects one below 0.  An empty literal or a file without
    records is EmptyData."""
    text = source.strip()
    ws: list[float] = []
    if text.startswith("["):
        if not text.endswith("]"):
            raise DataParseError(1, "inline literal must end with ']'")
        inner = text[1:-1].strip()
        if not inner:
            raise EmptyData("inline literal is empty")
        xs = [_number(part, 1, "number", part) for part in inner.split(",")]
    else:
        # A file of plain numbers, one a line, goes through float in one map
        # call: float strips no whitespace that str.strip keeps, and a line it
        # takes holds no `#` or `,`, so it reads as the records below.  Any
        # other file is read record by record, from the same lines.
        lines = _lines(source)
        try:
            xs = list(map(float, lines))
        except ValueError:  # not plain numbers, or bytes that did not decode
            xs = []
        if not xs:
            for lineno, line in _records(lines):
                cols = [c.strip() for c in line.split(",")]
                if len(cols) > 2:
                    raise DataParseError(lineno, "expected `value` or `value,weight`")
                xs.append(_number(cols[0], lineno, "number in", line))
                ws.append(_weight(cols[1], lineno, "number in", line)
                          if len(cols) == 2 else 1.0)
            if not xs:
                raise EmptyData(f"no records in {source}")
    if weights_path is not None:
        ws = [_weight(line, lineno, "weight", line)
              for lineno, line in _records(_lines(weights_path))]
        if len(ws) != len(xs):
            raise DataParseError(len(ws), "weights file length mismatch")
    return WeightedSample(tuple(xs), tuple(ws or [1.0] * len(xs)))


def _parse_params(pairs: Sequence[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidArgument(f"expected k=v, got {pair!r}")
        k, v = pair.split("=", 1)
        k = k.strip()
        if k in out:
            raise InvalidArgument(f"parameter {k!r} given twice")
        try:
            out[k] = float(v)
        except ValueError:
            raise InvalidArgument(f"bad value in {pair!r}") from None
    return out


def _parse_theta(text: str) -> OpenInterval:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgument("--theta expects lo,hi")
    try:
        return OpenInterval(float(parts[0]), float(parts[1]))
    except ValueError:
        raise InvalidArgument(f"bad interval {text!r}") from None


# Each kernel's --family, --psi and --param option strings, keyed by the
# suffix of their attribute names: compare's psi kernel and estimate's
# kernel take "", compare's phi kernel "_phi".
_KERNEL_FLAGS = {"": ("--family", "--psi", "--param"),
                 "_phi": ("--family-phi", "--phi", "--param-phi")}


def _build_kernel(args, suffix: str = ""):
    """Returns (kernel, echo dict, family spec or None)."""
    family = getattr(args, "family" + suffix)
    psi = getattr(args, "psi" + suffix)
    params = _parse_params(getattr(args, "param" + suffix))
    flags = _KERNEL_FLAGS[suffix]
    if family is not None:
        if psi is not None:
            raise InvalidArgument(f"{flags[0]} and {flags[1]} are exclusive")
        spec = families.FamilySpec(family, params)
        echo = {"family": family, "params": dict(sorted(params.items()))}
        return families.make_kernel(spec), echo, spec
    if psi is None:
        raise InvalidArgument(f"supply {flags[0]} or {flags[1]}")
    if params:
        raise InvalidArgument(f"{flags[2]} applies only to {flags[0]}")
    if args.theta is None:
        raise InvalidArgument(f"{flags[1]} requires --theta lo,hi")
    from . import exprparse

    theta = _parse_theta(args.theta)
    e = exprparse.parse(psi)
    kernel = PsiKernel(theta, exprparse.compile_expr(e), domain_check=math.isfinite,
                       name="psi", terms=exprparse.compile_terms(e))
    return kernel, {"psi": psi, "interval": [theta.lo, theta.hi]}, None


def _check_theta_used(args, *specs) -> None:
    """--theta is the interval of the expression kernels: reject it when
    every kernel is a family."""
    if args.theta is not None and all(spec is not None for spec in specs):
        raise InvalidArgument("--theta applies only to an expression kernel")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PSIEST_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidArgument(f"PSIEST_SEED must be an integer, got {env!r}") from None


def _cfg(args) -> SolverConfig:
    return SolverConfig() if args.tol is None else SolverConfig(args.tol)


def cmd_estimate(args) -> int:
    kernel, echo, spec = _build_kernel(args)
    _check_theta_used(args, spec)
    sample = read_data(args.data, args.weights)
    cfg = _cfg(args)
    weighted = len(set(sample.weights)) > 1
    report = {"command": "estimate", **echo,
              "n": len(sample), "weighted": weighted,
              "tolerance": {"abs": cfg.tol, "rel": cfg.tol}}
    if args.closed_form:
        if spec is None:
            raise InvalidArgument("--closed-form requires --family")
        theta = families.closed_form_estimate(spec, sample)
        report.update({"method": "closed_form", "extension": weighted,
                       "theta": theta})
        emit(report)
        return EXIT_OK
    res = solve_sign_change(kernel, sample, cfg)
    # The sum at theta, for diagnostics only: the kernel may jump across zero.
    residual = weighted_sum(kernel, sample, res.theta) if res.converged else math.nan
    report.update({"method": "solver", "theta": res.theta,
                   "bracket": [res.bracket_lo, res.bracket_hi],
                   "iterations": res.iterations, "residual": residual,
                   "status": res.status})
    emit(report)
    return EXIT_OK if res.converged else EXIT_FAILURE


_CONDITIONS = ("direct", "two-point", "ratio", "derivative", "equality")


def cmd_compare(args) -> int:
    from . import comparison

    kpsi, echo_psi, spec_psi = _build_kernel(args, "")
    kphi, echo_phi, spec_phi = _build_kernel(args, "_phi")
    _check_theta_used(args, spec_psi, spec_phi)
    sample = read_data(args.data)
    obs = sample.xs
    seed = _seed(args)
    cfg = _cfg(args)
    conditions = _CONDITIONS if args.condition == "all" else (args.condition,)

    ws = comparison.build_witness_set(
        kphi, obs, seed=seed, grid_points=args.grid, cfg=cfg)
    verdicts = []
    for cond in conditions:
        if cond == "direct":
            v = comparison.check_direct(kpsi, kphi, ws, max_n=args.max_n,
                                        trials=args.trials, cfg=cfg)
        elif cond == "two-point":
            v = comparison.check_two_point(kpsi, kphi, min(obs), max(obs),
                                           max_km=args.max_km, cfg=cfg)
        elif cond == "ratio":
            v = comparison.check_ratio_condition(kpsi, kphi, ws, cfg=cfg)
        elif cond == "derivative":
            v = comparison.check_derivative_condition(kpsi, kphi, ws, cfg=cfg)
        else:
            v = comparison.check_equality(kpsi, kphi, ws, max_n=args.max_n,
                                          trials=args.trials, cfg=cfg)
        verdicts.append({"condition": v.condition, "status": v.status,
                         "witness": v.witness, "grid": v.grid})

    overall, _ = comparison._fold((v["status"], None) for v in verdicts)
    emit({"command": "compare", "kernel_psi": echo_psi, "kernel_phi": echo_phi,
          "observations": list(obs), "seed": seed, "verdicts": verdicts,
          "status": overall})
    return {comparison.COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE,
            comparison.INCONCLUSIVE: EXIT_FAILURE}.get(overall, EXIT_OK)


def _max_abs(values) -> float:
    """The largest |v|, or NaN if any v is NaN (the builtin max keeps a NaN
    only when it comes first)."""
    vals = [abs(v) for v in values]
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def cmd_mobius_test(args) -> int:
    from . import bajraktarevic, exprparse

    theta = _parse_theta(args.theta)
    if args.probes < 4:
        raise InvalidArgument(f"--probes={args.probes} must be >= 4")
    f_ast = exprparse.parse(args.f)
    g_ast = exprparse.parse(args.g)
    seed = _seed(args)
    cfg = _cfg(args)

    # f and g as functions of t alone, at x = 0
    f = functools.partial(exprparse.compile_expr(f_ast), 0.0)
    g = functools.partial(exprparse.compile_expr(g_ast), 0.0)

    if not validate_monotone(f, theta):
        raise DomainError("f must be strictly increasing on theta")

    probes = theta.probe_grid(args.probes)
    f_vals = [(t, f(t)) for t in probes]
    g_vals = [(t, g(t)) for t in probes]
    for t, v in g_vals:
        if not math.isfinite(v):
            raise DomainError(f"g({t!r}) is {'NaN' if math.isnan(v) else repr(v)}")

    rng = random.Random(seed)
    n_quads = min(100, args.probes)
    dets, rels = [], []
    for _ in range(n_quads):
        idx = rng.sample(range(len(probes)), 4)
        fq = [f_vals[i][1] for i in idx]
        gq = [g_vals[i][1] for i in idx]
        det = bajraktarevic.determinant_test(fq, gq)
        dets.append(det)
        rels.append(det / bajraktarevic.determinant_scale(fq, gq))

    # Schwarzian of h = g o f^(-1), evaluated at interior f-values.
    def h(s: float) -> float:
        return g(bajraktarevic.generalized_left_inverse(f, theta, s, cfg))

    f_lo, f_hi = f_vals[0][1], f_vals[-1][1]
    pad = 0.05 * (f_hi - f_lo)
    s_probes = [f_lo + pad + (f_hi - f_lo - 2 * pad) * k / 16 for k in range(17)]
    # The stencil s +- 2 step stays within [f_lo, f_hi], where h is defined:
    # next to a finite end past ~1e5 the default step outgrows the window.
    max_schwarz = _max_abs(
        bajraktarevic.schwarzian(h, s, min(bajraktarevic._step(s), 0.5 * pad))
        for s in s_probes)

    try:
        fit = bajraktarevic.mobius_fit(f_vals, g_vals)
    except PsiEstError:
        fit = None
    fit_dict = None
    if fit is not None:
        fit_dict = {"a": fit.a, "b": fit.b, "c": fit.c, "d": fit.d}
    emit({"command": "mobius-test",
          "f": exprparse.pretty(f_ast), "g": exprparse.pretty(g_ast),
          "theta": [theta.lo, theta.hi], "probes": args.probes, "seed": seed,
          "determinant": {"max_abs": _max_abs(dets), "max_rel": _max_abs(rels),
                          "quadruples": n_quads},
          "schwarzian_max_abs": max_schwarz,
          "fit": fit_dict,
          "status": "Fit" if fit is not None else "NoFit"})
    return EXIT_OK


def cmd_bounds(args) -> int:
    sample = read_data(args.data)
    cfg = _cfg(args)
    lower, upper = families.beta_alpha_bounds(args.alpha, sample)
    spec = families.FamilySpec("beta_beta", {"alpha": args.alpha})
    res = solve_sign_change(families.make_kernel(spec), sample, cfg)
    pad = 1e-9 * (1.0 + abs(upper))
    emit({"command": "bounds", "alpha": args.alpha, "n": len(sample),
          "lower": lower, "upper": upper,
          "estimate": res.theta if res.converged else None,
          "inside": res.converged and (lower - pad) <= res.theta <= (upper + pad),
          "status": res.status})
    return EXIT_OK if res.converged else EXIT_FAILURE


# An argument that starts with a single `-` and is not one of the parser's
# option strings (of which -h is the only single-dash one) is a value.
# argparse reads only -N and -N.N so, and takes -1e5, -inf, -5,5 or -t+x for
# an option, so `--alpha -inf` or `--psi -t+x` would not reach the check of
# the value itself.
_NEGATIVE_VALUE = re.compile(r"-(?!-)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads _NEGATIVE_VALUE as a value, once no
    option string matches.  It replaces argparse's private
    _negative_number_matcher (Python 3.6 to 3.13), which tests/test_cli.py
    checks is still there; -h is added before it is replaced, so argparse
    does not count -h as an option that looks like a negative number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psiest",
        description="Sign-change estimators, comparison checks, and Mobius tests")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    def add_kernel(p, suffix, theta_help=None):
        """The kernel's three flags, and --theta ahead of --param if helped."""
        family, psi, param = _KERNEL_FLAGS[suffix]
        p.add_argument(family, dest="family" + suffix, choices=families.FAMILY_IDS)
        p.add_argument(psi, dest="psi" + suffix, help="kernel expression in x and t")
        if theta_help:
            p.add_argument("--theta", help=theta_help)
        p.add_argument(param, dest="param" + suffix, action="append", default=[],
                       metavar="K=V")

    p_est = sub.add_parser("estimate", help="estimate from a data sample")
    add_kernel(p_est, "", "lo,hi open interval for --psi")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--weights", default=None)
    p_est.add_argument("--closed-form", action="store_true", dest="closed_form")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", help="compare two kernels")
    add_kernel(p_cmp, "")
    add_kernel(p_cmp, "_phi")
    p_cmp.add_argument("--theta", help="lo,hi open interval for --psi and --phi")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--condition", default="all",
                       choices=_CONDITIONS + ("all",))
    p_cmp.add_argument("--grid", type=int, default=257)
    p_cmp.add_argument("--trials", type=int, default=200)
    p_cmp.add_argument("--max-n", dest="max_n", type=int, default=6)
    p_cmp.add_argument("--max-km", dest="max_km", type=int, default=20)
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_mob = sub.add_parser("mobius-test", help="test the Mobius relation of f and g")
    p_mob.add_argument("--f", required=True)
    p_mob.add_argument("--g", required=True)
    p_mob.add_argument("--theta", required=True)
    p_mob.add_argument("--probes", type=int, default=64)
    add_common(p_mob)
    p_mob.set_defaults(func=cmd_mobius_test)

    p_bnd = sub.add_parser("bounds", help="Beta shape estimate with bracket")
    p_bnd.add_argument("--alpha", type=float, required=True)
    p_bnd.add_argument("--data", required=True)
    add_common(p_bnd)
    p_bnd.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidArgument, ExprError, DataParseError, EmptyData, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (PsiEstError, ArithmeticError) as exc:
        # ArithmeticError: a kernel's float arithmetic failed on the data,
        # as t * t underflowing to a zero divisor does
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
