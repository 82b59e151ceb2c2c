"""Mechanical checks of the equivalent comparison and equality conditions
between two psi-kernels.

All conditions are universally quantified, so verdicts are produced from
finite grids and seeded random samples.  A passing check therefore reports
"NoCounterexample", never a proof; a failing check carries a witness that
re-verifies by direct evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DegenerateDerivative, EmptyLowerSet, InvalidArgument, PsiEstError
from .kernel import PsiKernel, WeightedSample, weighted_sum
from .solver import SolverConfig, empirical_theta1_hull, solve_sign_change, theta1

NO_COUNTEREXAMPLE = "NoCounterexample"
COUNTEREXAMPLE = "Counterexample"
INCONCLUSIVE = "Inconclusive"

# Central-difference step for a kernel without a closed-form d2.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class WitnessSet:
    """Finite stand-in for the universally quantified statements: a set of
    observations plus a parameter grid inside the empirical estimator hull."""

    observations: tuple
    parameter_grid: tuple
    random_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "observations",
                           tuple(float(x) for x in self.observations))
        object.__setattr__(self, "parameter_grid",
                           tuple(float(t) for t in self.parameter_grid))
        if not self.observations:
            raise InvalidArgument("witness set needs at least one observation")


@dataclass(frozen=True)
class ComparisonVerdict:
    status: str
    condition: str
    witness: Optional[dict] = None
    grid: dict = field(default_factory=dict)


def _require_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise InvalidArgument(f"{name}={value!r} must be >= {least}")


def build_witness_set(
    kernel: PsiKernel,
    observations: Sequence[float],
    seed: int = 0,
    grid_points: int = 257,
    random_points: int = 256,
    cfg: SolverConfig = SolverConfig(),
) -> WitnessSet:
    """Witness set whose parameter grid lies strictly inside the empirical
    hull of the kernel's single-observation estimates over the observations.

    The grid is empty when all estimates coincide (empty hull).  Layout:
    equispaced points shrunk by a 1e-6 relative margin, plus seeded uniform
    random points.
    """
    _require_count("grid_points", grid_points, 2)
    _require_count("random_points", random_points, 0)
    hull = empirical_theta1_hull(kernel, observations, cfg)
    grid: list[float] = []
    if hull is not None:
        grid.extend(hull.probe_grid(grid_points))
        a, b = hull.probe_window()
        rng = random.Random(seed)
        grid.extend(rng.uniform(a, b) for _ in range(random_points))
    return WitnessSet(tuple(observations), tuple(grid), seed)


def _slack(lhs: float, rhs: float, rel: float) -> float:
    return rel * max(abs(lhs), abs(rhs), 1.0)


def _non_finite(lhs: float, rhs: float) -> bool:
    """A side of lhs <= rhs is inf or NaN: an overflowed product has lost its
    size, and the slack test then always passes (inf - inf is NaN)."""
    return not (math.isfinite(lhs) and math.isfinite(rhs))


def _pair_tol(cfg: SolverConfig, ta: float, tb: float) -> float:
    return 10.0 * cfg.width_tol(max(abs(ta), abs(tb)))


def _solve(kernel: PsiKernel, sample: WeightedSample, cfg: SolverConfig) -> float:
    res = solve_sign_change(kernel, sample, cfg)
    if not res.converged:
        raise PsiEstError(f"solver failed with status {res.status}")
    return res.theta


def _random_cases(ws: WitnessSet, max_n: int, trials: int):
    """Seeded samples of sizes 1..max_n drawn from the witness observations,
    as scan cases.  The counts are checked now, the samples drawn lazily."""
    _require_count("max_n", max_n, 1)
    _require_count("trials", trials, 1)
    rng = random.Random(ws.random_seed)
    obs = ws.observations

    def cases():
        for trial in range(trials):
            n = rng.randint(1, max_n)
            xs = tuple(rng.choice(obs) for _ in range(n))
            yield {"sample": list(xs)}, WeightedSample.uniform(xs), {"trial": trial}

    return cases()


def _sign_witness(kpsi, kphi, sample: WeightedSample, grid) -> Optional[dict]:
    """The first grid t where the two weighted sums have opposite signs,
    both clear of zero, or None."""
    for t in grid:
        sp = weighted_sum(kpsi, sample, t)
        sq = weighted_sum(kphi, sample, t)
        zp = abs(sp) <= _slack(sp, sq, 1e-9)
        zq = abs(sq) <= _slack(sp, sq, 1e-9)
        if not (zp or zq) and (sp > 0) != (sq > 0):
            return {"t": t, "sum_psi": sp, "sum_phi": sq}
    return None


def _scan(kpsi, kphi, cases, cfg: SolverConfig, equal_on=None):
    """(status, witness) of solving both estimators on each (head, sample,
    tail) case: Inconclusive at the first solver failure, Counterexample at
    the first case with theta_psi above theta_phi or, given a grid equal_on,
    with the two apart or their sums of opposite sign on the grid."""
    for head, sample, tail in cases:
        try:
            tp = _solve(kpsi, sample, cfg)
            tq = _solve(kphi, sample, cfg)
        except PsiEstError as exc:
            return INCONCLUSIVE, {**head, "error": str(exc), **tail}
        tol = _pair_tol(cfg, tp, tq)
        if (abs(tp - tq) > tol) if equal_on is not None else (tp > tq + tol):
            return COUNTEREXAMPLE, {**head, "theta_psi": tp, "theta_phi": tq, **tail}
        if equal_on is not None:
            found = _sign_witness(kpsi, kphi, sample, equal_on)
            if found is not None:
                return COUNTEREXAMPLE, {**head, **found, **tail}
    return NO_COUNTEREXAMPLE, None


def check_direct(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    max_n: int = 6,
    trials: int = 200,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Estimator ordering theta_psi <= theta_phi on random samples drawn from
    the witness observations, sizes 1..max_n."""
    cases = _random_cases(ws, max_n, trials)
    meta = {"max_n": max_n, "trials": trials, "seed": ws.random_seed}
    status, witness = _scan(kpsi, kphi, cases, cfg)
    return ComparisonVerdict(status, "direct", witness, meta)


def check_two_point(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    x: float,
    y: float,
    max_km: int = 20,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Ordering on all replicated two-point samples (x taken k times, y taken
    m times, k+m <= max_km), realized as weights (k, m) on (x, y)."""
    if x == y:
        raise InvalidArgument("two-point check needs distinct observations")
    _require_count("max_km", max_km, 2)
    cases = (({"k": k, "m": m}, WeightedSample((x, y), (float(k), float(m))), {})
             for k in range(1, max_km) for m in range(1, max_km - k + 1))
    status, witness = _scan(kpsi, kphi, cases, cfg)
    return ComparisonVerdict(status, "two-point", witness, {"max_km": max_km})


def check_ratio_condition(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Two-stage pointwise condition: single-observation ordering on every
    witness, then the cross-product inequality
    psi(x,t) phi(y,t) <= psi(y,t) phi(x,t) for witness pairs whose phi
    estimates straddle each grid t.  Without a counterexample, the first
    cross instance with a side inf or NaN makes the verdict Inconclusive."""
    meta = {"grid_size": len(ws.parameter_grid), "seed": ws.random_seed}
    t1_psi = {x: theta1(kpsi, x, cfg) for x in ws.observations}
    t1_phi = {x: theta1(kphi, x, cfg) for x in ws.observations}
    for x in ws.observations:
        a, b = t1_psi[x], t1_phi[x]
        if a > b + _pair_tol(cfg, a, b):
            return ComparisonVerdict(
                COUNTEREXAMPLE, "ratio",
                {"stage": "theta1", "x": x, "theta1_psi": a, "theta1_phi": b},
                meta)
    unsure = None
    for x in ws.observations:
        for y in ws.observations:
            if not t1_phi[x] < t1_phi[y]:
                continue
            for t in ws.parameter_grid:
                if not (t1_phi[x] < t < t1_phi[y]):
                    continue
                lhs = kpsi.eval(x, t) * kphi.eval(y, t)
                rhs = kpsi.eval(y, t) * kphi.eval(x, t)
                bad = lhs > rhs + _slack(lhs, rhs, 1e-10)
                if bad or (unsure is None and _non_finite(lhs, rhs)):
                    witness = {"stage": "cross", "x": x, "y": y, "t": t,
                               "lhs": lhs, "rhs": rhs}
                    if bad:
                        return ComparisonVerdict(COUNTEREXAMPLE, "ratio", witness, meta)
                    unsure = witness
    if unsure is not None:
        return ComparisonVerdict(INCONCLUSIVE, "ratio", unsure, meta)
    return ComparisonVerdict(NO_COUNTEREXAMPLE, "ratio", None, meta)


def construct_multiplier(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    t: float,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Finite-witness infimum of psi(x,t)/phi(x,t) over witnesses whose phi
    estimate lies below t.  When the ratio condition holds, this multiplier
    satisfies psi(z,t) <= p(t) phi(z,t) for every witness z."""
    ratios = []
    for x in ws.observations:
        if theta1(kphi, x, cfg) < t:
            ratios.append(kpsi.eval(x, t) / kphi.eval(x, t))
    if not ratios:
        raise EmptyLowerSet(f"no witness has a phi-estimate below {t!r}")
    return min(ratios)


def _d2(kernel: PsiKernel, x: float, t: float) -> float:
    if kernel.d2 is not None:
        return kernel.d2(x, t)
    return (kernel.eval(x, t + _FD_STEP) - kernel.eval(x, t - _FD_STEP)) / (2.0 * _FD_STEP)


def _shared_theta1(kpsi, kphi, ws: WitnessSet, cfg: SolverConfig):
    """The kernels' common theta1 on each witness observation, as
    ({x: midpoint}, None), or (None, witness) for the first observation
    where the two differ."""
    t1s = {}
    for x in ws.observations:
        a = theta1(kpsi, x, cfg)
        b = theta1(kphi, x, cfg)
        if abs(a - b) > 1e-8 * (1.0 + max(abs(a), abs(b))):
            return None, {"reason": "theta1 values differ", "x": x,
                          "theta1_psi": a, "theta1_phi": b}
        t1s[x] = 0.5 * (a + b)
    return t1s, None


def check_derivative_condition(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Pointwise slope condition at shared single-observation estimates:
    -psi(y, t0)/d2_psi(x, t0) <= -phi(y, t0)/d2_phi(x, t0) with
    t0 = theta1(x).  Requires both kernels to share theta1 on the witnesses
    (else Inconclusive) and nonvanishing parameter derivatives.  Without a
    counterexample, the first instance with a side inf or NaN makes the
    verdict Inconclusive."""
    meta = {"fd_step": _FD_STEP}
    t1s, differ = _shared_theta1(kpsi, kphi, ws, cfg)
    if differ is not None:
        return ComparisonVerdict(INCONCLUSIVE, "derivative", differ, meta)
    unsure = None
    for x in ws.observations:
        t0 = t1s[x]
        if not (kpsi.theta.contains(t0) and kphi.theta.contains(t0)):
            continue
        dp = _d2(kpsi, x, t0)
        dq = _d2(kphi, x, t0)
        if abs(dp) < 1e-8 or abs(dq) < 1e-8:
            raise DegenerateDerivative(
                f"parameter derivative vanishes at theta1({x!r})")
        for y in ws.observations:
            lhs = -kpsi.eval(y, t0) / dp
            rhs = -kphi.eval(y, t0) / dq
            bad = lhs > rhs + _slack(lhs, rhs, 1e-8)
            if bad or (unsure is None and _non_finite(lhs, rhs)):
                witness = {"x": x, "y": y, "t0": t0, "lhs": lhs, "rhs": rhs}
                if bad:
                    return ComparisonVerdict(COUNTEREXAMPLE, "derivative", witness, meta)
                unsure = witness
    if unsure is not None:
        return ComparisonVerdict(INCONCLUSIVE, "derivative", unsure, meta)
    return ComparisonVerdict(NO_COUNTEREXAMPLE, "derivative", None, meta)


def check_equality(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    max_n: int = 6,
    trials: int = 200,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Estimator equality: ordering in both directions on random samples,
    plus sign agreement of the two weighted sums on the parameter grid."""
    cases = _random_cases(ws, max_n, trials)
    meta = {"max_n": max_n, "trials": trials, "seed": ws.random_seed,
            "grid_size": len(ws.parameter_grid)}
    _, differ = _shared_theta1(kpsi, kphi, ws, cfg)
    if differ is not None:
        return ComparisonVerdict(INCONCLUSIVE, "equality", differ, meta)

    status, witness = _scan(kpsi, kphi, cases, cfg, equal_on=ws.parameter_grid)
    return ComparisonVerdict(status, "equality", witness, meta)
