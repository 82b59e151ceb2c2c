"""Sign-change location on open intervals and generalized left inverses.

The estimator is the point of sign change (decreasing type) of
t -> sum_i lambda_i * psi(x_i, t).  The kernel need not be continuous, so
everything here works on signs only: geometric bracket expansion inside the
open interval, then bisection on the predicate "sum > 0".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InvalidArgument, OutOfRange, SolverError
from .kernel import OpenInterval, PsiKernel, WeightedSample, weighted_sum

CONVERGED = "Converged"
NO_POSITIVE_PART = "NoPositivePart"
NO_NEGATIVE_PART = "NoNegativePart"
MAX_ITERATIONS = "MaxIterations"
NON_FINITE_SUM = "NonFiniteSum"

# Steps allowed in each phase of a search: bracket expansion, then bisection.
MAX_EXPAND = 200
MAX_BISECT = 200


@dataclass(frozen=True)
class SolverConfig:
    """Search tolerance: a bracket [a, b] is narrow enough once
    b - a <= width_tol((a + b) / 2)."""

    tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf):
            raise InvalidArgument(f"tolerance {self.tol!r} must be finite and > 0")

    def width_tol(self, t: float) -> float:
        return max(self.tol, self.tol * abs(t))


@dataclass(frozen=True)
class SignChangeResult:
    """Unless converged, theta is the last bisection midpoint (MaxIterations),
    the first t whose weighted sum was NaN (NonFiniteSum), or NaN.

    iterations counts every evaluation of the predicate: the seed, each
    expansion step and each bisection step.  So a search whose first
    expansion step finds the flip and that then hits the MAX_BISECT limit
    reports 1 + 1 + 200 = 202."""

    theta: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _step_toward(t: float, endpoint: float, delta: float) -> float:
    """One expansion step from t toward an interval endpoint.

    Finite endpoint: halve the remaining distance (stays strictly inside).
    Infinite endpoint: step outward by a doubling delta.
    """
    if math.isfinite(endpoint):
        return 0.5 * (t + endpoint)
    return t + math.copysign(delta, endpoint)


def _solve_predicate(
    value: Callable[[float], float],
    positive: Callable[[float], bool],
    theta: OpenInterval,
    cfg: SolverConfig,
) -> SignChangeResult:
    """Locate the boundary where a decreasing-type predicate flips True->False.

    positive(value(t)) must be True strictly below the target and False
    strictly above it.  A NaN value has no side: the search goes on with
    whatever positive() says, and the result is NonFiniteSum at the first t
    where value(t) was NaN.
    """
    nan_at = []

    def pred(t: float) -> bool:
        v = value(t)
        if math.isnan(v):
            nan_at.append(t)
        return positive(v)

    seed = theta.midpoint_seed()

    # Step away from the seed, toward the side where the flip lies, until the
    # predicate flips: near is the last t on the seed's side, far the first
    # beyond the flip.
    up = pred(seed)
    endpoint = theta.hi if up else theta.lo
    near, far = seed, None
    t, delta = seed, max(1.0, abs(seed))
    evals = 1
    for _ in range(MAX_EXPAND):
        t = _step_toward(t, endpoint, delta)
        delta *= 2.0
        evals += 1
        if pred(t) != up:
            far = t
            break
        near = t

    if far is None:
        status = NO_NEGATIVE_PART if up else NO_POSITIVE_PART
        a, b = (near, math.nan) if up else (math.nan, near)
        res = SignChangeResult(math.nan, a, b, evals, status)
    else:
        a, b = (near, far) if up else (far, near)
        iterations, status = 0, CONVERGED
        while b - a > cfg.width_tol(0.5 * (a + b)):
            if iterations >= MAX_BISECT:
                status = MAX_ITERATIONS
                break
            mid = 0.5 * (a + b)
            if not (a < mid < b):
                break  # bracket exhausted at double precision
            if pred(mid):
                a = mid
            else:
                b = mid
            iterations += 1
        res = SignChangeResult(0.5 * (a + b), a, b, evals + iterations, status)
    if nan_at:
        return SignChangeResult(nan_at[0], math.nan, math.nan, res.iterations,
                                NON_FINITE_SUM)
    return res


def solve_sign_change(
    kernel: PsiKernel,
    sample: WeightedSample,
    cfg: SolverConfig = SolverConfig(),
) -> SignChangeResult:
    """Point of sign change of t -> sum_i lambda_i psi(x_i, t) on Theta.

    A non-converged status means the required sign was never observed
    (the kernel violates the sign-change premise numerically, or Theta is
    mis-specified), bisection stalled, or the weighted sum was NaN, which
    has no sign, at some evaluated t (NonFiniteSum).  Convergence is judged
    by bracket width alone, never by the size of the sum, since the kernel
    may jump across zero.
    """
    sample.check(kernel)

    def total(t: float) -> float:
        return weighted_sum(kernel, sample, t)

    return _solve_predicate(total, lambda s: s > 0.0, kernel.theta, cfg)


def theta1(kernel: PsiKernel, x: float, cfg: SolverConfig = SolverConfig()) -> float:
    """Single-observation estimator: the closed form when available, else a
    sign-change solve on the singleton sample."""
    kernel.check_observation(x)
    if kernel.theta1 is not None:
        return kernel.theta1(x)
    res = solve_sign_change(kernel, WeightedSample((x,), (1.0,)), cfg)
    if not res.converged:
        raise SolverError(f"theta1 solve failed for x={x!r}: {res.status}", res)
    return res.theta


def empirical_theta1_hull(
    kernel: PsiKernel, witnesses: Sequence[float], cfg: SolverConfig = SolverConfig()
) -> Optional[OpenInterval]:
    """Finite-witness approximation of the interior of the hull of theta1(X).

    Returns the open interval spanned by the theta1 values of the witnesses
    (closed form or solved, as theta1 gives them), or None when they all
    coincide (the hull is empty).
    """
    if not witnesses:
        raise InvalidArgument("witnesses must be nonempty")
    vals = [theta1(kernel, x, cfg) for x in witnesses]
    lo, hi = min(vals), max(vals)
    return OpenInterval(lo, hi) if lo < hi else None


def generalized_left_inverse(
    f: Callable[[float], float],
    theta: OpenInterval,
    y: float,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Monotone extension of the inverse of a strictly increasing f.

    For y in f(Theta) this returns the preimage; for y inside a jump gap
    [f(t0-), f(t0+)] it returns t0.  Computed by bisection on the predicate
    f(t) < y, which needs no continuity.  Raises OutOfRange when y falls
    outside the convex hull of f(Theta) beyond 1e-9 * (1 + |y|), and
    SolverError naming the first t where f(t) was NaN.
    """
    res = _solve_predicate(f, lambda v: v < y, theta, cfg)
    if res.status == NON_FINITE_SUM:
        raise SolverError(f"f({res.theta!r}) is NaN", res)
    slack = 1e-9 * (1.0 + abs(y))
    if res.status == NO_POSITIVE_PART:
        # Never saw f(t) < y: y is at or below the infimum of f.
        t_low = res.bracket_hi
        if f(t_low) - y <= slack:
            return t_low
        raise OutOfRange(f"{y!r} below the range of f")
    if res.status == NO_NEGATIVE_PART:
        t_high = res.bracket_lo
        if y - f(t_high) <= slack:
            return t_high
        raise OutOfRange(f"{y!r} above the range of f")
    if not res.converged:
        raise SolverError(f"left-inverse bisection stalled at y={y!r}", res)
    return res.theta
