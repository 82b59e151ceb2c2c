"""Core domain types: open parameter intervals, psi-kernels, weighted samples.

A psi-kernel is a map psi(x, t) over observations x and parameters t in an
open interval Theta such that, for each admissible x, t -> psi(x, t) changes
sign from positive to negative somewhere in Theta.  The weighted estimator is
the point of sign change of t -> sum_i lambda_i * psi(x_i, t).
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import DomainError, InvalidArgument

# Magnitude cap applied per term: kernels like Beta/Lomax blow up toward the
# endpoints of Theta, but the limit sign is always definite.
_CAP = 1e300
_MAX = sys.float_info.max
# The fewest unit-weight terms weighted_sum adds by _add.  Below it the
# guard's min and max cost more than the loop they replace: 4-20% slower at
# n <= 4, even at n = 6-8 (gamma_rate, laplace_scale and expectile terms,
# Python 3.11 on a 2-vCPU x86-64 host).
_ADD_IN_C_MIN = 8


@dataclass(frozen=True)
class OpenInterval:
    """Nondegenerate open interval (lo, hi); endpoints may be +-inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidArgument(f"degenerate interval ({self.lo}, {self.hi})")

    def contains(self, t: float) -> bool:
        return self.lo < t < self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def midpoint_seed(self) -> float:
        """A reasonable interior starting point for bracket searches."""
        if self.bounded:
            return 0.5 * (self.lo + self.hi)
        # 1.0 in, or one ulp where 1.0 is below the float spacing (past 2^53)
        if math.isfinite(self.lo):
            return self.lo + max(1.0, math.ulp(self.lo))
        if math.isfinite(self.hi):
            return self.hi - max(1.0, math.ulp(self.hi))
        return 0.0

    def probe_window(self) -> tuple[float, float]:
        """(lo, hi) shrunk by a 1e-6 relative margin; an infinite endpoint is
        first clamped to a window of width 200 next to the finite one (or
        around 0).  Where hi - lo overflows, the margin is taken from each
        end apart.

        Where that window is not two points strictly inside (lo, hi), since
        200 or the margin is below an ulp of the ends (|end| past about
        1e12), an infinite end is clamped 2**20 ulps of the finite end away
        instead, and each end of the window lies at least one ulp inside; so
        the window is two points strictly inside wherever (lo, hi) holds two
        doubles."""
        lo, hi = self.lo, self.hi
        if not math.isfinite(lo):
            lo = (hi - 200.0) if math.isfinite(hi) else -100.0
        if not math.isfinite(hi):
            hi = lo + 200.0
        width = hi - lo
        margin = 1e-6 * width if math.isfinite(width) else 1e-6 * hi - 1e-6 * lo
        window = (lo + margin, hi - margin)
        if self.lo < window[0] < window[1] < self.hi:
            return window
        span = 2.0 ** 20 * math.ulp(self.hi if math.isfinite(self.hi) else self.lo)
        lo = self.lo if math.isfinite(self.lo) else max(self.hi - span, -_MAX)
        hi = self.hi if math.isfinite(self.hi) else min(self.lo + span, _MAX)
        margin = 1e-6 * hi - 1e-6 * lo
        lo = max(lo + margin, math.nextafter(self.lo, math.inf))
        hi = min(hi - margin, math.nextafter(self.hi, -math.inf))
        return (lo, hi) if self.lo < lo < hi < self.hi else window

    def probe_grid(self, n: int) -> list[float]:
        """n equispaced probes spanning probe_window(), ends included: probe k
        is lo + (hi - lo) k / (n-1), or, where (hi - lo) (n-1) overflows,
        lo (1 - s) + hi s, s = k/(n-1)."""
        if n < 2:
            raise InvalidArgument(f"probe grid needs n >= 2, got {n!r}")
        lo, hi = self.probe_window()
        if math.isfinite((hi - lo) * (n - 1)):
            return [lo + (hi - lo) * k / (n - 1) for k in range(n)]
        return [lo * (1.0 - k / (n - 1)) + hi * (k / (n - 1)) for k in range(n)]


def _always_admissible(x: float) -> bool:
    return True


@dataclass(frozen=True)
class PsiKernel:
    """A kernel psi(x, t) on X x Theta with optional closed forms.

    theta1, when present, is the single-observation estimator x -> theta_1(x);
    d2, when present, is the partial derivative of psi in its second variable.

    column and terms give psi in batched form, for the sums over a sample.
    column(x) is the part of psi(x, t) that does not depend on t (x itself
    when column is None).  terms(cs, t) is the list of psi(x, t) over the xs
    whose columns are cs, in order, each the same float as eval(x, t); it
    computes the parts of psi that depend on t alone once per call.  A
    kernel given by eval alone has terms [eval(x, t) for x in cs].
    dataclasses.replace copies terms as they are: replacing eval that way
    changes only the per-point calls, unless terms=None is passed too.

    _affine is (q, g) for psi = q(t) (F(x) - g(t)), F the column, where the
    terms function carries it as its attribute _affine (families.make_kernel
    sets it): weighted_sum then takes q(t) (S - W g(t)) from the sample's
    sums S of w F(x) and W of w.  It goes with terms, so
    dataclasses.replace keeps it unless terms=None is passed.

    Two more attributes of terms go with it in the same way, and make the
    solver certify a proposal before any search (solver._propose):
    _proposal(columns, weights), a family row's own estimate formula where
    the row proposes it (families.make_kernel), and _linear, set where an
    expression is affine in its one column (exprparse.compile_terms).

    _estimate, set by families.make_kernel alone, is the weighted estimator
    as a formula: sample -> the point of sign change, raising (DomainError,
    or what the formula's arithmetic raises) where it has none.  It is
    not an argument, and dataclasses.replace leaves it None: a replaced
    kernel may have another psi, so its estimator is solved.  It is
    trusted without a sum (comparison._settled), where a proposal is not.
    """

    theta: OpenInterval
    eval: Callable[[float, float], float]
    theta1: Optional[Callable[[float], float]] = None
    d2: Optional[Callable[[float, float], float]] = None
    domain_check: Callable[[float], bool] = _always_admissible
    name: str = "kernel"
    column: Optional[Callable[[float], float]] = None
    # derived from eval when not given, so left out of ==
    terms: Optional[Callable[[Sequence[float], float], list]] = field(
        default=None, compare=False)
    _estimate: Optional[Callable[["WeightedSample"], float]] = field(
        default=None, init=False, compare=False, repr=False)
    _affine: Optional[tuple] = field(default=None, init=False, compare=False,
                                     repr=False)

    def __post_init__(self):
        if self.terms is None:
            if self.column is not None:
                raise InvalidArgument(f"{self.name}: a column needs its terms")
            ev = self.eval
            object.__setattr__(self, "terms", lambda cs, t: [ev(x, t) for x in cs])
        object.__setattr__(self, "_affine", getattr(self.terms, "_affine", None))

    def columns(self, xs: Sequence[float]) -> Sequence[float]:
        """column(x) for each x of xs, in order; xs itself without a column.
        A column that carries its batched form column.batch (families sets
        it) gives them from it, the same floats; where the batch gives None
        or raises, column(x) runs x by x, so any error is that of the first
        x that has one."""
        col = self.column
        if col is None:
            return xs
        batch = getattr(col, "batch", None)
        if batch is not None:
            try:
                cs = batch(xs)
            except (ArithmeticError, ValueError):
                cs = None
            if cs is not None:
                return cs
        return list(map(col, xs))

    def check_observation(self, x: float) -> None:
        if not self.domain_check(x):
            raise DomainError(f"observation {x!r} outside X for {self.name}")

    def check_parameter(self, t: float) -> None:
        if not self.theta.contains(t):
            raise DomainError(f"parameter {t!r} outside Theta for {self.name}")


@dataclass(frozen=True)
class WeightedSample:
    """Observations with finite nonnegative weights, not all zero.

    The terms weighted_sum adds are those of positive weight.  For each
    kernel it sums, the sample checks every x against the kernel's domain
    once (check) and computes the kernel's column of each summed x once
    (columns), and for an affine kernel the sums of its column once (sums);
    all are cached on the sample, outside ==, hash and repr, as is whether
    weighted_sum may add the terms in C (_add_in_c).

    A sample whose weights are all 1.0 is told by one count of 1.0 and
    skips the other scans of its weights.  Where every positive weight is
    1.0 (_unit), its sums are S = fsum of the column and W = n, the floats
    fsum gives with the weights.
    """

    xs: tuple
    weights: tuple
    # The kernel domain checks every x has passed; see check().
    _passed: set = field(default_factory=set, init=False, repr=False, compare=False)
    # The xs and weights of the positive-weight terms, the only ones summed.
    _live_xs: tuple = field(default=(), init=False, repr=False, compare=False)
    _live_weights: tuple = field(default=(), init=False, repr=False, compare=False)
    # Every positive weight 1.0.
    _unit: bool = field(default=False, init=False, repr=False, compare=False)
    # At least _ADD_IN_C_MIN live weights, each 1.0: weighted_sum may then
    # add the terms by _add, skipping the multiply.
    _add_in_c: bool = field(default=False, init=False, repr=False, compare=False)
    # column function -> its values over _live_xs, None -> _live_xs; see columns().
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # column function -> (S, W) or None; see sums().
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(map(float, self.xs)))
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if len(self.xs) != len(self.weights):
            raise InvalidArgument("xs and weights must have equal length")
        if len(self.xs) == 0:
            raise InvalidArgument("sample must contain at least one observation")
        xs, ws = self.xs, self.weights
        unit = ws.count(1.0) == len(ws)
        if not unit:
            low, high = min(ws), max(ws)  # read only once every w is finite
            if not (all(map(math.isfinite, ws)) and low >= 0.0):
                raise InvalidArgument("weights must be finite and nonnegative")
            if not high > 0.0:
                raise InvalidArgument("at least one weight must be positive")
            if low == 0.0:  # else the live terms are xs and weights themselves
                xs = tuple(x for x, w in zip(xs, ws) if w > 0.0)
                ws = tuple(w for w in ws if w > 0.0)
                unit = ws.count(1.0) == len(ws)
        object.__setattr__(self, "_live_xs", xs)
        object.__setattr__(self, "_live_weights", ws)
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_add_in_c", unit and len(ws) >= _ADD_IN_C_MIN)
        self._columns[None] = xs

    @classmethod
    def uniform(cls, xs: Sequence[float]) -> "WeightedSample":
        return cls(tuple(xs), (1.0,) * len(xs))

    def check(self, kernel: PsiKernel) -> None:
        """kernel.check_observation on every x, unless the sample has already
        passed kernel.domain_check; a check that fails is not recorded."""
        check = kernel.domain_check
        if check in self._passed:
            return
        batch = getattr(check, "batch", None)  # all(map(check, xs)), in C
        if not (all(map(check, self.xs)) if batch is None else batch(self.xs)):
            # find the first x outside X
            for x in self.xs:
                kernel.check_observation(x)
        self._passed.add(check)

    def columns(self, kernel: PsiKernel):
        """kernel.columns of the positive-weight xs, after check(kernel);
        computed once per column function, and kept."""
        if kernel.domain_check not in self._passed:
            self.check(kernel)
        cs = self._columns.get(kernel.column)
        if cs is None:
            cs = self._columns[kernel.column] = kernel.columns(self._live_xs)
        return cs

    def sums(self, kernel: PsiKernel):
        """(S, W) for kernel's column F, after columns(kernel): S the sum of
        w F(x) and W that of w over the positive-weight terms, each by
        math.fsum, so correctly rounded and independent of their order.
        None where either is not finite, or fsum raises (OverflowError at
        [1e308, 1e308], ValueError at [inf, -inf]).  Computed once per
        column function, and kept."""
        cs = self.columns(kernel)
        key = kernel.column
        if key not in self._sums:
            try:
                if self._unit:
                    s, w = math.fsum(cs), float(len(cs))
                else:
                    s = math.fsum(map(operator.mul, self._live_weights, cs))
                    w = math.fsum(self._live_weights)
            except (OverflowError, ValueError):
                s = w = math.nan
            finite = math.isfinite(s) and math.isfinite(w)
            self._sums[key] = (s, w) if finite else None
        return self._sums[key]

    def __len__(self) -> int:
        return len(self.xs)


def _clamp(v: float) -> float:
    if v > _CAP:
        return _CAP
    if v < -_CAP:
        return -_CAP
    return v


def weighted_sum(kernel: PsiKernel, sample: WeightedSample, t: float) -> float:
    """sum_i lambda_i * psi(x_i, t) over the terms of positive weight (psi
    is not evaluated where lambda_i = 0).

    A kernel with psi = q(t) (F(x) - g(t)) (PsiKernel._affine) gives the
    sum as q(t) (S - W g(t)), clamped to +-1e300, from the sample's sums S
    of w F(x) and W of w (WeightedSample.sums), taken once per sample by
    math.fsum: each t costs O(1), kernel.terms is not called, and the sum
    depends neither on the order of the sample nor on the Python version.
    q raises where the row's terms raise (1/(t t) where t t underflows to
    0).  Where S or W is not finite, or q(t) (S - W g(t)) is NaN (0 inf),
    the terms are summed as for any other kernel.

    Otherwise the terms are summed left to right, for reproducibility of
    sign decisions near zero.  Individual terms are clamped to +-1e300 so
    endpoint blowups keep their limit sign instead of producing inf - inf.
    The terms come from one kernel.terms call on the sample's columns
    (WeightedSample.columns), so the sample is checked against the kernel's
    domain and its columns are computed once, not per term or per t.

    Where the sample has at least _ADD_IN_C_MIN live weights, all 1.0
    (WeightedSample._add_in_c), and min and max put every term within
    +-1e300, each clamp and multiply is a no-op and _add sums the terms in
    C; a NaN term then gives NaN, as in the loop.  Every other sample is
    weighted and clamped term by term in the loop below.
    """
    theta = kernel.theta
    if not theta.lo < t < theta.hi:  # theta.contains(t), inline on this hot path
        kernel.check_parameter(t)
    affine = kernel._affine
    if affine is not None:
        sums = sample.sums(kernel)
        if sums is not None:
            q, g = affine
            total = q(t) * (sums[0] - sums[1] * g(t))
            if total == total:  # not NaN
                return _CAP if total > _CAP else -_CAP if total < -_CAP else total
    # sample.columns(kernel), its two lookups inline on this hot path
    cs = None
    if kernel.domain_check in sample._passed:
        cs = sample._columns.get(kernel.column)
    if cs is None:
        cs = sample.columns(kernel)
    vs = kernel.terms(cs, t)
    if sample._add_in_c and type(vs) is not list:  # min, max and _add each read vs
        vs = list(vs)
    if sample._add_in_c and -_CAP <= min(vs) and max(vs) <= _CAP:
        total = _add(vs)
    else:
        total = 0.0
        for v, w in zip(vs, sample._live_weights):
            if v > _CAP:
                v = _CAP
            elif v < -_CAP:
                v = -_CAP
            v *= w
            if v > _CAP:
                v = _CAP
            elif v < -_CAP:
                v = -_CAP
            total += v
    return _CAP if total > _CAP else -_CAP if total < -_CAP else total  # _clamp(total)


def _column_sums(columns, n: int) -> list:
    """weighted_sum's total, for a kernel without (q, g), at each of the
    first n points of a grid for a sample of unit weights, given for each
    term, in the sample's order, its column: psi(x, t) along the grid,
    already clamped to +-1e300.  Each
    weight is 1.0, so weighted_sum's multiply and second clamp leave a term
    as it is; the columns are added left to right as weighted_sum adds the
    terms, one column at a time, the additions by map in C; so each total
    is the same float.  The equality sign scan (comparison._kernel_sums) is
    the one caller, and its samples come from comparison._random_cases."""
    acc = [0.0] * n
    for col in columns:
        acc = list(map(operator.add, acc, col))
    return [_clamp(a) for a in acc]


def _add(values) -> float:
    """The package's one order for adding floats: left to right from 0.0,
    by functools.reduce in C.  weighted_sum sums a sample of at least
    _ADD_IN_C_MIN unit weights with it; _column_sums adds in the same
    order, a column at a time.

    The builtin sum is not used: from Python 3.12 it compensates float sums,
    so the same code would print other last digits there."""
    return functools.reduce(operator.add, values, 0.0)


def _weighted_mean(values, weights) -> float:
    """sum w v / sum w, each sum taken by _add.  Where that is not finite
    although every v is, or the sum of the weights overflows, a sum
    overflowed: the mean is taken again as sum (w / total) v, the weights
    first divided by the largest one to find their total."""
    den = _add(weights)
    mean = _add(w * v for v, w in zip(values, weights)) / den
    if (math.isfinite(mean) and math.isfinite(den)) or not all(
            math.isfinite(v) for v in values):
        return mean
    top = max(weights)
    scaled = [w / top for w in weights]
    total = _add(scaled)
    return _add(w / total * v for v, w in zip(values, scaled))


def rises(f: Callable[[float], float], points: Sequence[float],
          flat: float = 0.0) -> bool:
    """True iff f(points[0]) < f(points[-1]) and every step a -> b between
    successive values rises: a < b, or with flat > 0, b >= a or
    b >= a - flat*max(1, |a|), so a flat stretch from rounding passes.

    f is evaluated once per point.  Each test is the condition that must
    hold, so a NaN anywhere fails it.  This is the one monotonicity check
    for a user-supplied f (BajraktarevicSpec, the mathieu family,
    validate_monotone).
    """
    vals = [f(t) for t in points]
    if not vals[0] < vals[-1]:
        return False
    if flat > 0.0:
        return all(b >= a or b >= a - flat * max(1.0, abs(a))
                   for a, b in zip(vals, vals[1:]))
    return all(a < b for a, b in zip(vals, vals[1:]))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi), which is lo + (hi - lo) u for one u = rng.random(),
    from the same u as lo (1 - u) + hi u where hi - lo overflows."""
    u = rng.random()
    return lo + (hi - lo) * u if math.isfinite(hi - lo) else lo * (1.0 - u) + hi * u


def validate_monotone(f: Callable[[float], float], theta: OpenInterval) -> bool:
    """True iff f is strictly increasing (rises) on theta.probe_grid(513)
    and on each of 100 random sorted pairs (seed 0) from theta.probe_window().

    A pair whose two draws coincide is skipped.  A NaN value reads as not
    increasing.  An exception from f (a DomainError, say) propagates.
    """
    lo, hi = theta.probe_window()
    rng = random.Random(0)
    pairs = (sorted((_uniform(rng, lo, hi), _uniform(rng, lo, hi)))
             for _ in range(100))
    return rises(f, theta.probe_grid(513)) and all(
        rises(f, pair) for pair in pairs if pair[0] < pair[1])
