"""Sign-change location on open intervals and generalized left inverses.

The estimator is the point of sign change (decreasing type) of
t -> sum_i lambda_i * psi(x_i, t).  The kernel need not be continuous, so
the bracket is kept by sign only: geometric bracket expansion inside the
open interval, then ITP refinement (interpolate, truncate, project) on the
predicate "sum > 0".  The sum's values only choose where to look next: each
step starts at the regula-falsi point of the bracket and is projected into
a ball around the midpoint, so narrowing the bracket to a given width takes
at most one step more than bisection (and MAX_BISECT caps the refinement as
it capped bisection), and a jump or kink costs speed, not correctness.
A NaN sum has no sign, so the search stops at the first one.  The
generalized left inverse f^-1(y) is the same search on t -> y - f(t).

Where the estimate is known up to rounding before any search (a proposal:
the expectile's exact formula, or the root at the weighted mean of the
column for an expression affine in it), two sums on either side of it
certify it in place of the search, if their signs straddle zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DomainError, InvalidArgument, OutOfRange, PsiEstError, SolverError
from .kernel import _CAP, OpenInterval, PsiKernel, WeightedSample, weighted_sum

CONVERGED = "Converged"
NO_POSITIVE_PART = "NoPositivePart"
NO_NEGATIVE_PART = "NoNegativePart"
MAX_ITERATIONS = "MaxIterations"
NON_FINITE_SUM = "NonFiniteSum"

# Why a search stopped (SignChangeResult.stop).
STOP_WIDTH = "WidthReached"
STOP_EXHAUSTED = "BracketExhausted"
STOP_LIMIT = "IterationLimit"
STOP_NO_SIGN_CHANGE = "NoSignChange"
STOP_NAN = "NaNSum"
STOP_CERTIFIED = "Certified"

# Steps allowed in each phase of a search: bracket expansion, then ITP
# refinement, which needs at most _ITP_N0 steps more than bisection would,
# so MAX_BISECT bounds it as it bounded bisection.
MAX_EXPAND = 200
MAX_BISECT = 200
# ITP truncation scale kappa1 * (b0 - a0), and n0, its slack over bisection.
_ITP_K1 = 0.2
_ITP_N0 = 1


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
    """Unless converged, theta is the midpoint of the last bracket
    (MaxIterations), the first t whose weighted sum was NaN, where the
    search stopped (NonFiniteSum), or NaN.

    iterations counts every evaluation of the predicate: the seed, each
    expansion step and each ITP refinement step; phase_evals splits it into
    those three, (seed, expand, refine).  So a search whose first expansion
    step finds the flip and that then hits the MAX_BISECT limit reports
    1 + 1 + 200 = 202, as (1, 1, 200).

    stop says why the search ended.  Under status Converged it is
    WidthReached (the bracket is narrow enough), BracketExhausted (no
    double lies strictly between its ends, as with a tol below the spacing
    of doubles at theta) or Certified (two sums on either side of a
    proposal bracket it, and no search ran: iterations 2, as (2, 0, 0));
    otherwise IterationLimit (MaxIterations), NoSignChange (NoPositivePart,
    NoNegativePart) or NaNSum (NonFiniteSum).
    """

    theta: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    status: str
    stop: str
    phase_evals: tuple

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _step_toward(t: float, endpoint: float, delta: float) -> float:
    """One expansion step from t toward an interval endpoint.

    Finite endpoint: halve the remaining distance (stays strictly inside).
    Infinite endpoint: step outward by delta, which _expansion doubles.
    """
    if math.isfinite(endpoint):
        return 0.5 * (t + endpoint)
    return t + math.copysign(delta, endpoint)


def _expansion(seed: float, endpoint: float):
    """The bracket expansion's walk: the t it visits, in order, from seed
    toward endpoint (theta.lo or theta.hi), by _step_toward with a delta
    that starts at max(1, |seed|) and doubles each step.  The search
    (_solve_predicate) and its reach (expansion_reach) both read it."""
    t, delta = seed, max(1.0, abs(seed))
    while True:
        t = _step_toward(t, endpoint, delta)
        delta *= 2.0
        yield t


@functools.lru_cache(maxsize=64)
def expansion_reach(theta: OpenInterval) -> tuple:
    """(lo, hi): the t that the search's walk (_expansion) on theta reaches
    in MAX_EXPAND // 2 steps from theta.midpoint_seed(), toward theta.lo
    and toward theta.hi.  A sign change strictly between them is bracketed
    with half the expansion budget to spare; on (0, inf) they are 2**-100
    and 2**100."""
    walks = (_expansion(theta.midpoint_seed(), end) for end in (theta.lo, theta.hi))
    return tuple(next(itertools.islice(w, MAX_EXPAND // 2 - 1, None)) for w in walks)


def _solve_predicate(
    value: Callable[[float], float], theta: OpenInterval, cfg: SolverConfig
) -> SignChangeResult:
    """Locate where value(t) > 0 flips to not > 0 (decreasing type).

    value(t) must be > 0 strictly below the target and not > 0 strictly
    above it; the refinement steps interpolate on value(t).  A NaN value has
    no side, so the search stops at the first t where value(t) is NaN, with
    status NonFiniteSum and theta that t.
    """
    expand = refine = 0

    def nan_at(t: float) -> SignChangeResult:
        phases = (1, expand, refine)
        return SignChangeResult(t, math.nan, math.nan, 1 + expand + refine,
                                NON_FINITE_SUM, STOP_NAN, phases)

    # Walk away from the seed (_expansion), toward the side where the flip
    # lies, until the sign flips: near is the last t on the seed's side, far
    # the first beyond the flip.
    seed = theta.midpoint_seed()
    v_near = value(seed)
    if math.isnan(v_near):
        return nan_at(seed)
    up = v_near > 0.0
    endpoint = theta.hi if up else theta.lo
    near, far = seed, None
    for t in itertools.islice(_expansion(seed, endpoint), MAX_EXPAND):
        expand += 1
        v = value(t)
        if math.isnan(v):
            return nan_at(t)
        if (v > 0.0) != up:
            far, v_far = t, v
            break
        near, v_near = t, v

    if far is None:
        status = NO_NEGATIVE_PART if up else NO_POSITIVE_PART
        stop = STOP_NO_SIGN_CHANGE
        a, b = (near, math.nan) if up else (math.nan, near)
        theta_hat = math.nan
    else:
        a, b = (near, far) if up else (far, near)
        ga, gb = (v_near, v_far) if up else (v_far, v_near)
        status, stop = CONVERGED, STOP_WIDTH
        itp = _Itp(a, b, cfg)
        while b - a > cfg.width_tol(0.5 * (a + b)):
            if refine >= MAX_BISECT:
                status, stop = MAX_ITERATIONS, STOP_LIMIT
                break
            mid = 0.5 * (a + b)
            if not (a < mid < b):
                stop = STOP_EXHAUSTED  # no double strictly inside
                break
            t = itp.point(a, b, ga, gb, mid)
            v = value(t)
            refine += 1
            if math.isnan(v):
                return nan_at(t)
            if v > 0.0:
                a, ga = t, v
            else:
                b, gb = t, v
        theta_hat = 0.5 * (a + b)
    phases = (1, expand, refine)
    return SignChangeResult(theta_hat, a, b, 1 + expand + refine, status, stop, phases)


class _Itp:
    """ITP steps (interpolate, truncate, project) on one bracket [a0, b0]:
    Oliveira & Takahashi, "An enhancement of the bisection method average
    performance preserving minmax optimality", ACM TOMS 47(1), 2021.

    kappa1 = _ITP_K1 / (b0 - a0), kappa2 = 2, n0 = _ITP_N0, and epsilon is
    half the smallest width_tol on [a0, b0], so the stop b - a <=
    width_tol(mid) holds once b - a <= 2 epsilon.  The projection keeps the
    bracket after j steps at most 2**(n_max - j) * 2 epsilon wide, with n_max
    = n_half + n0 and n_half the steps bisection needs to reach 2 epsilon.
    """

    __slots__ = ("eps", "k1", "reach")

    def __init__(self, a: float, b: float, cfg: SolverConfig):
        w0 = b - a
        two_eps = cfg.width_tol(0.0 if a < 0.0 < b else min(abs(a), abs(b)))
        self.eps = 0.5 * two_eps
        if 0.0 < w0 < math.inf:
            self.k1 = _ITP_K1 / w0
            # log2 of (b0 - a0) / (2 epsilon) as a difference: the quotient
            # overflows on brackets like (0, 5e299)
            n_half = math.ceil(math.log2(w0) - math.log2(two_eps))
            # epsilon * 2**(n_max - j - 1) for step j = 0; below b0 - a0, so
            # it does not overflow
            self.reach = math.ldexp(two_eps, n_half + _ITP_N0 - 2)
        else:  # wider than a double: the midpoint only
            self.k1, self.reach = 0.0, 0.0

    def point(self, a: float, b: float, ga: float, gb: float, mid: float) -> float:
        """The next point strictly inside (a, b), given the end values ga and
        gb (of opposite signs, or 0 at one end).  It is mid when an end value
        is NaN, infinite or at the kernel's clamp (no slope to interpolate),
        or when the regula-falsi point is not in [a, b]."""
        w = b - a
        r = max(0.0, 2.0 * (self.reach - 0.25 * w))  # epsilon * 2**(n_max - j) - w/2
        self.reach *= 0.5
        if not (abs(ga) < _CAP and abs(gb) < _CAP):
            return mid
        t = a + w * (ga / (ga - gb))
        if not (a <= t <= b):
            return mid
        # Truncate: move toward mid by kappa1 * w**2, multiplied in an order
        # that cannot overflow, and by at least epsilon, since the product
        # falls below one ulp once w is ~1e-8 and t would stay on an end.
        d = mid - t
        delta = max(self.k1 * w * w, self.eps)
        t = t + math.copysign(delta, d) if delta <= abs(d) else mid
        # Project into the ball of radius r around mid.
        if abs(t - mid) > r:
            t = mid - math.copysign(r, d)
        return t if a < t < b else mid


def _propose(kernel: PsiKernel, sample: WeightedSample, cfg: SolverConfig):
    """Where the estimate should lie, or None.  Where the kernel's terms
    carry a _proposal (the expectile's formula, families.make_kernel), its
    value at the sample's columns and weights.  Where they are an
    expression's, affine in its one column c (terms._linear,
    exprparse.compile_terms), the root of t -> psi(c, t) at c = S / W, the
    weighted mean of the column (WeightedSample.sums), searched to a
    quarter of cfg.tol at O(1) cost a step, so that its midpoint lies
    inside the certificate's bracket.  It may raise."""
    terms = kernel.terms
    proposal = getattr(terms, "_proposal", None)
    if proposal is not None:
        return proposal(sample.columns(kernel), sample._live_weights)
    if not getattr(terms, "_linear", False):
        return None
    sums = sample.sums(kernel)
    if sums is None:
        return None
    c = (sums[0] / sums[1],)
    res = _solve_predicate(lambda t: terms(c, t)[0], kernel.theta,
                           SolverConfig(0.25 * cfg.tol))
    return res.theta if res.converged else None


def _certified(value: Callable[[float], float], t, theta: OpenInterval,
               cfg: SolverConfig) -> Optional[SignChangeResult]:
    """The result at proposal t, or None where the search must run: t is
    None or outside theta, or the bracket [a, b] = [t - h, t + h], h =
    width_tol(t) / 4 and at least one ulp each side, leaves theta or fails
    the search's stop test, or not value(a) > 0 >= value(b) (a NaN, or a
    raise, fails it).  Two sums at most."""
    if t is None or not theta.contains(t):
        return None
    h = 0.25 * cfg.width_tol(t)
    a = min(t - h, math.nextafter(t, -math.inf))
    b = max(t + h, math.nextafter(t, math.inf))
    mid = 0.5 * (a + b)
    if not (theta.contains(a) and theta.contains(b) and math.isfinite(mid)
            and b - a <= cfg.width_tol(mid)):
        return None
    try:
        if not (value(a) > 0.0 and value(b) <= 0.0):
            return None
    except (PsiEstError, ArithmeticError, ValueError):
        return None
    return SignChangeResult(mid, a, b, 2, CONVERGED, STOP_CERTIFIED, (2, 0, 0))


def solve_sign_change(
    kernel: PsiKernel,
    sample: WeightedSample,
    cfg: SolverConfig = SolverConfig(),
) -> SignChangeResult:
    """Point of sign change of t -> sum_i lambda_i psi(x_i, t) on Theta.

    A kernel whose sum is taken term by term (no PsiKernel._affine) and
    that has a proposal (_propose) is first certified there: where the sum
    is > 0 just below the proposal and <= 0 just above it (_certified), the
    result is Converged with stop Certified after those 2 sums.  Every
    other case runs the search, as if no proposal had been made.  The
    affine rows' sums cost O(1), so a proposal would save them nothing.

    A non-converged status means the required sign was never observed
    (the kernel violates the sign-change premise numerically, or Theta is
    mis-specified), the refinement reached MAX_BISECT steps, or the weighted
    sum was NaN, which has no sign, at some evaluated t (NonFiniteSum).
    Convergence is judged by bracket width alone, never by the size of the
    sum, since the kernel may jump across zero.
    """
    sample.check(kernel)
    value = functools.partial(weighted_sum, kernel, sample)
    if kernel._affine is None:
        try:
            t = _propose(kernel, sample, cfg)
        except (PsiEstError, ArithmeticError, ValueError):
            t = None
        res = _certified(value, t, kernel.theta, cfg)
        if res is not None:
            return res
    return _solve_predicate(value, kernel.theta, cfg)


def theta1(kernel: PsiKernel, x: float, cfg: SolverConfig = SolverConfig()) -> float:
    """Single-observation estimator: the closed form when available, else a
    sign-change solve on the singleton sample.  A closed form outside Theta
    (an overflowed or NaN value) raises DomainError naming x."""
    kernel.check_observation(x)
    if kernel.theta1 is not None:
        t = kernel.theta1(x)
        if not kernel.theta.contains(t):
            raise DomainError(
                f"theta1({x!r}) = {t!r} lies outside Theta for {kernel.name}")
        return t
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
    [f(t0-), f(t0+)] it returns t0.  This is the point where y - f(t)
    changes sign, found by the same search as solve_sign_change; the
    bracket is kept by sign, so no continuity is needed.  Raises OutOfRange
    when y is not finite or falls outside the convex hull of f(Theta)
    beyond 1e-9 * (1 + |y|), and SolverError naming the first t where f(t)
    was NaN.
    """
    if not math.isfinite(y):
        raise OutOfRange(f"{y!r} is not finite")
    res = _solve_predicate(lambda t: y - f(t), theta, cfg)
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
        raise SolverError(f"left-inverse search stalled at y={y!r}", res)
    return res.theta
