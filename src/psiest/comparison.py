"""Mechanical checks of the equivalent comparison and equality conditions
between two psi-kernels.

All conditions are universally quantified, so verdicts are produced from
finite grids and seeded random samples.  A passing check therefore reports
"NoCounterexample", never a proof; a failing check carries a witness that
re-verifies by direct evaluation.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

from .errors import (DegenerateDerivative, DomainError, EmptyLowerSet, InvalidArgument,
                     PsiEstError)
from .kernel import (PsiKernel, WeightedSample, _clamp, _column_sums, _uniform,
                     weighted_sum)
from .solver import (SolverConfig, empirical_theta1_hull, expansion_reach,
                     solve_sign_change, theta1)

NO_COUNTEREXAMPLE = "NoCounterexample"
COUNTEREXAMPLE = "Counterexample"
INCONCLUSIVE = "Inconclusive"

# Central-difference step for a kernel without a closed-form d2, relative:
# at t the step is _FD_STEP * max(1, |t|), so the rounding of t +- step stays
# far below the derivative check's slack however large |t| is.
_FD_STEP = 1e-6

# The least tol at which the ordering scans take an order the kernels' own
# estimators settle (_settled): the default, and the least tol at which a
# solve is checked to lie within 2 width_tol + 4 ulps of its estimate.
_SETTLE_MIN_TOL = 1e-12


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
        grid.extend(_uniform(rng, a, b) for _ in range(random_points))
    return WitnessSet(tuple(observations), tuple(grid), seed)


def _slack(lhs: float, rhs: float, rel: float) -> float:
    """The rounding allowed a test lhs <= rhs of two products or quotients
    of kernel values: rel times the larger operand.  There is no absolute
    floor, which would forgive every instance of small values; an instance
    that carries its own slack in its units adds it (_pointwise)."""
    return rel * max(abs(lhs), abs(rhs))


def _pair_tol(cfg: SolverConfig, ta: float, tb: float) -> float:
    return 10.0 * cfg.width_tol(max(abs(ta), abs(tb)))


def _solve(kernel: PsiKernel, sample: WeightedSample, cfg: SolverConfig) -> float:
    res = solve_sign_change(kernel, sample, cfg)
    if not res.converged:
        raise PsiEstError(f"solver failed with status {res.status}")
    return res.theta


def _settled(kpsi, kphi, sample: WeightedSample, cfg: SolverConfig) -> bool:
    """Whether the kernels' own estimators (PsiKernel._estimate) settle
    theta_psi <= theta_phi on the sample, so that solving it can give no
    finding: both kernels have one and neither raises; both estimates lie
    strictly inside both kernels' expansion_reach, where a search converges;
    and the psi estimate is below the phi estimate by _pair_tol, with a tol
    of at least _SETTLE_MIN_TOL.  A solve lies within 2 width_tol + 4 ulps
    of the estimate there, so the two solves are then ordered within the
    tolerance the scan allows them."""
    est_psi, est_phi = kpsi._estimate, kphi._estimate
    if est_psi is None or est_phi is None or cfg.tol < _SETTLE_MIN_TOL:
        return False
    try:
        cp, cq = est_psi(sample), est_phi(sample)
    except (PsiEstError, ArithmeticError, ValueError):
        return False  # solved, the sample meets this again or fails its own way
    for lo, hi in (expansion_reach(kpsi.theta), expansion_reach(kphi.theta)):
        if not (lo < cp < hi and lo < cq < hi):
            return False
    return cp + _pair_tol(cfg, cp, cq) <= cq


def _random_cases(ws: WitnessSet, max_n: int, trials: int):
    """Seeded unit-weight samples of sizes 1..max_n drawn from the witness
    observations, as scan cases.  The counts are checked now, the samples
    drawn lazily.  A draw that repeats an earlier one's xs to the bit (-0.0
    told from 0.0) is dropped before it becomes a sample: it would repeat
    that case's finding, and a finding ends the scan or none was found."""
    _require_count("max_n", max_n, 1)
    _require_count("trials", trials, 1)
    rng = random.Random(ws.random_seed)
    obs = ws.observations

    def cases():
        seen = set()
        for trial in range(trials):
            n = rng.randint(1, max_n)
            xs = tuple(rng.choice(obs) for _ in range(n))
            key = repr(xs)  # repr tells -0.0 from 0.0
            if key not in seen:
                seen.add(key)
                yield {"sample": list(xs)}, WeightedSample.uniform(xs), {"trial": trial}

    return cases()


def _columns(kernel: PsiKernel, xs, grid) -> list:
    """For each x, psi(x, t) along the grid, each value clamped to +-1e300
    as weighted_sum clamps a term, from one kernel.terms call per t.  All
    stop at the first t outside the kernel's Theta or where psi raises for
    one of the xs, and are empty where kernel.column raises."""
    cols = [[] for _ in xs]
    try:
        cs = kernel.columns(xs)
    except Exception:
        return cols
    for t in grid:
        if not kernel.theta.contains(t):
            break
        try:
            vs = kernel.terms(cs, t)
        except Exception:
            # weighted_sum raises it again at this t, past the columns' prefix
            break
        for col, v in zip(cols, vs):
            col.append(_clamp(v))
    return cols


def _grid_sums(kpsi, kphi, sample: WeightedSample, grid, columns):
    """(t, weighted_sum(kpsi, sample, t), weighted_sum(kphi, sample, t)) for
    each grid t in order, each sum the same float weighted_sum returns, for
    a sample whose weights are all 1.0 (_random_cases draws no other).

    columns is a pair of dicts, one per kernel, caching each observation's
    values along the grid (_columns) for the whole check; _kernel_sums
    reads them.  Each kernel's sums are taken lazily, psi's before phi's at
    each t, so the checks weighted_sum makes at the first t come first, in
    its order: t in Theta, then the sample's domain, for psi, then phi."""
    return zip(grid, *(_kernel_sums(kernel, sample, grid, cols)
                       for kernel, cols in zip((kpsi, kphi), columns)))


def _kernel_sums(kernel, sample: WeightedSample, grid, cols):
    """weighted_sum(kernel, sample, t) for each grid t, lazily.  A kernel
    without (q, g) is evaluated once per observation and t, as a column
    along the grid (_columns, cached in cols); the observations a sample
    brings that are not cached yet are evaluated together.  Over the grid's
    prefix where every column of the sample is defined, the sums are added
    from the columns (_column_sums); past it, and for a kernel with (q, g),
    whose sums cost O(1) a t, weighted_sum runs at each t, so an error is
    raised at the same t as without the columns."""
    n = 0
    if kernel._affine is None and grid and kernel.theta.contains(grid[0]):
        sample.check(kernel)
        # psi may tell -0.0 from 0.0
        keys = [(x, math.copysign(1.0, x)) for x in sample.xs]
        new = {key: key[0] for key in keys if key not in cols}
        if new:
            cols.update(zip(new, _columns(kernel, list(new.values()), grid)))
        terms = [cols[key] for key in keys]
        n = min(len(grid), *map(len, terms))
        yield from _column_sums(terms, n)
    for t in grid[n:]:
        yield weighted_sum(kernel, sample, t)


def _sign_witness(kpsi, kphi, sample: WeightedSample, grid, columns) -> Optional[dict]:
    """The first grid t where the two weighted sums have opposite signs,
    both clear of zero by 1e-9 max(|sum_psi|, |sum_phi|, 1), or None.  The
    floor 1 stands in for the sums' rounding scale, which is sum |w psi|,
    not the |sum| that may have cancelled.  The sums are added from psi
    columns where the columns are defined and come from weighted_sum past
    them (_grid_sums), so the witness and any error are those of calling
    weighted_sum at every t."""
    for t, sp, sq in _grid_sums(kpsi, kphi, sample, grid, columns):
        if (sp > 0) != (sq > 0):
            slack = 1e-9 * max(abs(sp), abs(sq), 1.0)
            if not (abs(sp) <= slack or abs(sq) <= slack):
                return {"t": t, "sum_psi": sp, "sum_phi": sq}
    return None


def _fold(findings) -> tuple:
    """The one verdict rule over a stream of (status, witness) findings:
    (Counterexample, its witness) at the first Counterexample finding, else
    the first Inconclusive finding, else (NoCounterexample, None).  The
    stream is read no further than its first Counterexample."""
    status, witness = NO_COUNTEREXAMPLE, None
    for found in findings:
        if found[0] == COUNTEREXAMPLE:
            return found
        if status == NO_COUNTEREXAMPLE:
            status, witness = found
    return status, witness


def _verdict(condition: str, findings, meta: dict) -> ComparisonVerdict:
    status, witness = _fold(findings)
    return ComparisonVerdict(status, condition, witness, meta)


def _scan(kpsi, kphi, cases, cfg: SolverConfig, equal_on=None):
    """Findings of solving both estimators on each (head, sample, tail) case:
    Counterexample for each case with theta_psi above theta_phi or, given a
    grid equal_on, with the two apart or their sums of opposite sign on the
    grid.  At the first solver failure: Inconclusive, and the scan ends.
    The sign test's psi columns are shared by all cases (_grid_sums), whose
    samples must then have unit weights, as _random_cases draws them (and
    without repeats).  An ordering scan (no equal_on) skips, unsolved, a
    case whose order the estimators settle (_settled): it would give no
    finding.  So every finding still comes from the solver."""
    columns = ({}, {})
    for head, sample, tail in cases:
        if equal_on is None and _settled(kpsi, kphi, sample, cfg):
            continue
        try:
            tp = _solve(kpsi, sample, cfg)
            tq = _solve(kphi, sample, cfg)
        except PsiEstError as exc:
            yield INCONCLUSIVE, {**head, "error": str(exc), **tail}
            return
        tol = _pair_tol(cfg, tp, tq)
        if (abs(tp - tq) > tol) if equal_on is not None else (tp > tq + tol):
            yield COUNTEREXAMPLE, {**head, "theta_psi": tp, "theta_phi": tq, **tail}
        elif equal_on is not None:
            found = _sign_witness(kpsi, kphi, sample, equal_on, columns)
            if found is not None:
                yield COUNTEREXAMPLE, {**head, **found, **tail}


def _pointwise(instances, keys, rel: float):
    """Findings of the inequalities lhs <= rhs given as tuples
    (values..., lhs, rhs, floor), witnesses keyed by keys (floor is not
    one): Counterexample where lhs is above rhs beyond _slack plus floor,
    else Inconclusive where a side is inf or NaN (an overflowed product has
    lost its size, and the slack test then always passes, inf - inf being
    NaN)."""
    for inst in instances:
        lhs, rhs, floor = inst[-3:]
        if lhs > rhs + _slack(lhs, rhs, rel) + floor:
            yield COUNTEREXAMPLE, dict(zip(keys, inst))
        elif not (math.isfinite(lhs) and math.isfinite(rhs)):
            yield INCONCLUSIVE, dict(zip(keys, inst))


def _theta1_pairs(kpsi, kphi, ws: WitnessSet, cfg: SolverConfig):
    """(x, theta1_psi(x), theta1_phi(x)) for each witness observation, each
    computed only when asked for."""
    for x in ws.observations:
        yield x, theta1(kpsi, x, cfg), theta1(kphi, x, cfg)


def _on_shared_theta1(kpsi, kphi, ws: WitnessSet, cfg: SolverConfig, then):
    """Findings: Inconclusive at the first witness observation where the
    kernels' theta1 differ, computing no further theta1; else those of
    then([(x, common theta1), ...]).  The common theta1 is the two's
    midpoint, halved before the sum where the sum overflows."""
    common = []
    for x, a, b in _theta1_pairs(kpsi, kphi, ws, cfg):
        if abs(a - b) > 1e-8 * (1.0 + max(abs(a), abs(b))):
            yield INCONCLUSIVE, {"reason": "theta1 values differ", "x": x,
                                 "theta1_psi": a, "theta1_phi": b}
            return
        mid = 0.5 * (a + b)
        common.append((x, mid if math.isfinite(mid) else 0.5 * a + 0.5 * b))
    yield from then(common)


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
    return _verdict("direct", _scan(kpsi, kphi, cases, cfg), meta)


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
    return _verdict("two-point", _scan(kpsi, kphi, cases, cfg), {"max_km": max_km})


def _multiplier_certifies(kpsi, kphi, t1, grid) -> bool:
    """Whether every cross instance of the ratio check holds, read off the
    paper's multiplier at each grid t that some pair straddles.  There t
    must lie in both kernels' Theta, phi be < 0 on every witness below t
    and > 0 on every one above, every psi, phi and psi/phi be finite, and
    so the largest |psi| times the largest |phi|; then the largest psi/phi
    above at most the least below means each product test, x below and y
    above, holds within a few ulps, no product being inf or NaN.  The
    witnesses are sorted once by their phi estimate, so those below and
    above t are two slices, found by bisection; a NaN estimate is left out,
    as the pairwise scan leaves it out.  Each kernel's column of every
    witness is computed once, and at each t one terms call per kernel gives
    psi at both slices.  Never raises: an error, a phi of 0 or a t outside
    Theta only means the instances are left to the pairwise scan."""
    ranked = sorted((w for w in t1 if not math.isnan(w[2])), key=lambda w: w[2])
    xs = [x for x, _, _ in ranked]
    bs = [b for _, _, b in ranked]
    try:
        cp, cq = kpsi.columns(xs), kphi.columns(xs)
    except Exception:
        return False
    for t in grid:
        i, j = bisect.bisect_left(bs, t), bisect.bisect_right(bs, t)
        if i == 0 or j == len(bs):  # no witness below t, or none above
            continue
        if not (kpsi.theta.contains(t) and kphi.theta.contains(t)):
            return False
        try:
            ps = kpsi.terms(cp[:i] + cp[j:], t)
            qs = kphi.terms(cq[:i] + cq[j:], t)
            if not (all(q < 0.0 for q in qs[:i]) and all(q > 0.0 for q in qs[i:])):
                return False
            rs = [p / q for p, q in zip(ps, qs)]
            if not (all(map(math.isfinite, chain(ps, qs, rs)))
                    and math.isfinite(max(map(abs, ps)) * max(map(abs, qs)))
                    and max(rs[i:]) <= min(rs[:i])):
                return False
        except Exception:
            # left to the scan, which raises it unless a counterexample comes first
            return False
    return True


def check_ratio_condition(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Two-stage pointwise condition: single-observation ordering on every
    witness, then the cross-product inequality
    psi(x,t) phi(y,t) <= psi(y,t) phi(x,t) for witness pairs whose phi
    estimates straddle each grid t.

    The cross stage is first decided through the paper's multiplier, in
    O(|obs| |grid|) kernel calls: where phi < 0 below t and > 0 above, every
    pair at t holds iff the largest psi/phi above is at most the smallest
    below, p(t).  When that certificate holds at every grid t (all values
    finite, see _multiplier_certifies), no instance can fail.  Otherwise
    every pair is tested at every t, in x, y, t order, and the first failing
    instance is the witness; without a counterexample, the first instance
    with a side inf or NaN makes the verdict Inconclusive."""
    meta = {"grid_size": len(ws.parameter_grid), "seed": ws.random_seed}
    t1 = list(_theta1_pairs(kpsi, kphi, ws, cfg))
    stage1 = ((COUNTEREXAMPLE, {"stage": "theta1", "x": x,
                                "theta1_psi": a, "theta1_phi": b})
              for x, a, b in t1 if a > b + _pair_tol(cfg, a, b))

    def cross():
        if _multiplier_certifies(kpsi, kphi, t1, ws.parameter_grid):
            return
        instances = (("cross", x, y, t, kpsi.eval(x, t) * kphi.eval(y, t),
                      kpsi.eval(y, t) * kphi.eval(x, t), 0.0)
                     for x, _, bx in t1 for y, _, by in t1 if bx < by
                     for t in ws.parameter_grid if bx < t < by)
        keys = ("stage", "x", "y", "t", "lhs", "rhs")
        yield from _pointwise(instances, keys, 1e-10)

    return _verdict("ratio", chain(stage1, cross()), meta)


def construct_multiplier(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    t: float,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Finite-witness infimum of psi(x,t)/phi(x,t) over witnesses whose phi
    estimate lies below t.  When the ratio condition holds, this multiplier
    satisfies psi(z,t) <= p(t) phi(z,t) for every witness z.  A witness with
    phi(x,t) = 0 leaves the ratio undefined: DomainError."""
    ratios = []
    for x in ws.observations:
        if theta1(kphi, x, cfg) < t:
            p, q = kpsi.eval(x, t), kphi.eval(x, t)
            if q == 0.0:
                raise DomainError(f"phi({x!r}, {t!r}) is 0, so psi/phi is undefined")
            ratios.append(p / q)
    if not ratios:
        raise EmptyLowerSet(f"no witness has a phi-estimate below {t!r}")
    return min(ratios)


def _d2(kernel: PsiKernel, x: float, t: float) -> float:
    if kernel.d2 is not None:
        return kernel.d2(x, t)
    h = _FD_STEP * max(1.0, abs(t))
    return (kernel.eval(x, t + h) - kernel.eval(x, t - h)) / (2.0 * h)


def check_derivative_condition(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Pointwise slope condition at shared single-observation estimates:
    -psi(y, t0)/d2_psi(x, t0) <= -phi(y, t0)/d2_phi(x, t0) with
    t0 = theta1(x).  Requires both kernels to share theta1 on the witnesses
    (else Inconclusive) and nonvanishing parameter derivatives; a kernel
    without d2 takes a central difference with the relative step
    _FD_STEP * max(1, |t0|).  An instance fails beyond 1e-8 max(|lhs|, |rhs|)
    plus |lhs| + |rhs| at y = x (0 where not finite): how far t0 lies from
    each kernel's own root, in units of t.  theta1 is shared only to a tolerance and solved
    only to cfg.tol, so the instance y = x, and those near it, tie only to
    within that; the sides at y = x are evaluated first, once.  Without a
    counterexample, the first instance with a side inf or NaN makes the
    verdict Inconclusive."""

    def slopes(common):
        for i, (x, t0) in enumerate(common):  # x is ws.observations[i]
            if not (kpsi.theta.contains(t0) and kphi.theta.contains(t0)):
                continue
            dp = _d2(kpsi, x, t0)
            dq = _d2(kphi, x, t0)
            if abs(dp) < 1e-8 or abs(dq) < 1e-8:
                raise DegenerateDerivative(
                    f"parameter derivative vanishes at theta1({x!r})")
            at_x = -kpsi.eval(x, t0) / dp, -kphi.eval(x, t0) / dq
            off = abs(at_x[0]) + abs(at_x[1])
            off = off if off < math.inf else 0.0  # y = x is then Inconclusive
            for j, y in enumerate(ws.observations):
                lhs, rhs = at_x if j == i else (
                    -kpsi.eval(y, t0) / dp, -kphi.eval(y, t0) / dq)
                yield x, y, t0, lhs, rhs, off

    keys = ("x", "y", "t0", "lhs", "rhs")
    findings = _on_shared_theta1(
        kpsi, kphi, ws, cfg, lambda common: _pointwise(slopes(common), keys, 1e-8))
    return _verdict("derivative", findings, {"fd_step": _FD_STEP})


def check_equality(
    kpsi: PsiKernel,
    kphi: PsiKernel,
    ws: WitnessSet,
    max_n: int = 6,
    trials: int = 200,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonVerdict:
    """Estimator equality: ordering in both directions on random samples,
    plus sign agreement of the two weighted sums on the parameter grid.

    The sign scan evaluates psi(x, t) once per kernel, witness observation
    and grid t, as a column along the grid, and adds each sample's sums from
    the columns in weighted_sum's order and clamps, so every sum is the same
    float.  Where a column stops (t outside Theta, or psi raising), the scan
    falls back to weighted_sum at each t from there on, so an error is
    raised at the same sample and t as by weighted_sum alone."""
    cases = _random_cases(ws, max_n, trials)
    meta = {"max_n": max_n, "trials": trials, "seed": ws.random_seed,
            "grid_size": len(ws.parameter_grid)}
    scan = _scan(kpsi, kphi, cases, cfg, equal_on=ws.parameter_grid)
    findings = _on_shared_theta1(kpsi, kphi, ws, cfg, lambda _: scan)
    return _verdict("equality", findings, meta)
