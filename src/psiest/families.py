"""Catalog of concrete statistical psi-kernels and their closed forms.

Each family defines a kernel psi(x, t) whose weighted-sum sign change is the
estimator of interest: expectiles, Mathieu-type location kernels, and the
likelihood-equation kernels of six distributions (normal variance, Beta shape
parameters, Gamma, Lomax, lognormal location, Laplace scale).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Callable, Mapping, Optional

from .errors import DomainError, InvalidParameter, MissingClosedForm
from .kernel import (OpenInterval, PsiKernel, WeightedSample, _add,
                     _weighted_mean, rises)

_REAL_LINE = OpenInterval(-math.inf, math.inf)
_POSITIVE = OpenInterval(0.0, math.inf)


@dataclass(frozen=True)
class FamilySpec:
    """A family identifier plus its fixed (known) parameters.

    params keys by family (any other key is rejected):
      expectile: alpha in (0,1)
      mathieu: none (supply f with f(0)=0, strictly increasing and never
        NaN on [0, 10])
      normal_var: m (known mean)
      beta_alpha: beta > 0
      beta_beta: alpha > 0
      gamma_shape: lambda > 0 (known rate)
      gamma_rate: p > 0 (known shape)
      lomax_rate_lambda: alpha > 0 (known shape)
      lomax_shape_alpha: lambda > 0 (known rate)
      lognormal_mu: sigma2 > 0 (known variance)
      laplace_scale: mu (known location)
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)
    f: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        row = _FAMILIES.get(self.family)
        if row is None:
            raise InvalidParameter(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", dict(self.params))
        for key in self.params:
            if key != row.key:
                raise InvalidParameter(f"{self.family} has no parameter {key!r}")
        if row.key is None:
            _validate_increasing(self)
            return
        if row.key not in self.params:
            raise InvalidParameter(f"{self.family} requires parameter {row.key!r}")
        v = float(self.params[row.key])
        if not math.isfinite(v):
            raise InvalidParameter(f"{self.family}: {row.key}={v!r} must be finite")
        if not row.admissible(v):
            raise InvalidParameter(f"{self.family}: {row.key}={v!r} must be {row.what}")

    def param(self, key: str) -> float:
        return float(self.params[key])


def _validate_increasing(spec: FamilySpec) -> None:
    f = spec.f
    if f is None:
        raise InvalidParameter(
            f"{spec.family} requires an increasing function f with f(0)=0")
    if not abs(f(0.0)) <= 1e-12:
        raise InvalidParameter(f"{spec.family}: f(0) must be 0")
    if not rises(f, [0.05 * k for k in range(201)]):
        raise InvalidParameter(
            f"{spec.family}: f must be strictly increasing on [0, 10]")


# Bernoulli numbers B_2, B_4, ..., B_18, for the asymptotic expansions.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
)
# B_2k / (2k) and B_2k, highest k first: the series' coefficients in the
# order Horner's rule reads them.
_DIGAMMA_SERIES = tuple(b / (2.0 * k) for k, b in enumerate(_BERNOULLI, start=1))[::-1]
_TRIGAMMA_SERIES = _BERNOULLI[::-1]


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function.

    Upward recurrence until x >= 6, then the asymptotic series
    ln x - 1/(2x) - sum_k B_{2k}/(2k x^{2k}) truncated after B_18, whose
    next term is below 1e-14 there, summed by Horner's rule.  Against
    mpmath on (1e-8, 1e3) the error is at most 1e-14 max(1, |digamma(x)|).
    """
    if not (x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for c in _DIGAMMA_SERIES:
        series = series * z + c
    return math.log(x) - 0.5 / x - z * series + acc


def trigamma(x: float) -> float:
    """Derivative of digamma, written like it: upward recurrence until
    x >= 6, then the asymptotic series 1/x + 1/(2x^2) + sum_k B_{2k}/x^{2k+1}
    truncated after B_18, summed by Horner's rule.  Against mpmath on
    (1e-8, 1e8) its relative error is below 2e-13."""
    if not (x > 0.0):
        raise DomainError(f"trigamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for b in _TRIGAMMA_SERIES:
        series = series * z + b
    return (1.0 + 0.5 / x + z * series) / x + acc


# A column or domain check may carry its batched form as the attribute
# batch, as a terms function carries _affine: check.batch(xs) is
# all(map(check, xs)), and column.batch(xs) is list(map(column, xs)), the
# same floats, or None (or a raise) where the per-x path must run, to give
# the values or the error of the first bad x (PsiKernel.columns,
# WeightedSample.check).
def _positive(x: float) -> bool:
    return x > 0.0


def _unit(x: float) -> bool:
    return 0.0 < x < 1.0


def _finite_not(m: float):
    """The check math.isfinite(x) and x != m, with its batched form."""
    def check(x):
        return math.isfinite(x) and x != m

    check.batch = lambda xs: all(map(math.isfinite, xs)) and m not in xs
    return check


_positive.batch = lambda xs: all(map(operator.lt, repeat(0.0), xs))
_unit.batch = lambda xs: (all(map(operator.lt, repeat(0.0), xs))
                          and all(map(operator.lt, xs, repeat(1.0))))


def _any(v: float) -> bool:
    return True


def _identity(x: float) -> float:
    return x


def _first(x: float, v) -> float:
    """x itself, whatever the known parameter v."""
    return x


def _one(t: float, v) -> float:
    return 1.0


def _minus_one(t: float, v) -> float:
    return -1.0


def _ln_one_minus_pow(x: float, beta: float) -> float:
    """ln(1 - x^beta) for x in (0,1), stable as x^beta -> 1: where x^beta
    rounds to 1, ln(-expm1(beta ln x)); DomainError where that is ln 0."""
    u = beta * math.log(x)
    p = math.exp(u)
    if p < 1.0:
        return math.log1p(-p)
    gap = -math.expm1(u)
    if not gap > 0.0:
        raise DomainError(f"1 - x^beta rounds to 0 at x={x!r}, beta={beta!r}")
    return math.log(gap)


def _ln_one_minus_pows(xs, beta: float):
    """_ln_one_minus_pow at each x, its first branch in C; None where some
    x^beta is not below 1 (or NaN)."""
    ps = list(map(math.exp, map(operator.mul, repeat(beta), map(math.log, xs))))
    if not all(map(operator.lt, ps, repeat(1.0))):
        return None
    return list(map(math.log1p, map(operator.neg, ps)))


def _minus_inv_square(x: float, t: float) -> float:
    return -1.0 / (t * t)


# Kernel builders: known parameter -> (column or None, terms, d2 or None,
# domain check), psi in the batched form of PsiKernel.  column(x) is the
# exact subexpression of psi that does not depend on t, terms(cs, t) the
# rest, with the parts that depend on t alone computed once per call; each
# term is the formula's float, evaluated in the formula's order.
def _expectile(alpha):
    below = 1.0 - alpha

    def terms(xs, t):
        return [alpha * (x - t) if x > t else below * (x - t) if x < t else 0.0
                for x in xs]

    def d2(x, t):
        if x > t:
            return -alpha
        if x < t:
            return -below
        return -0.5

    return None, terms, d2, math.isfinite


def _expectile_estimate(xs, ws, alpha: float) -> float:
    """The weighted alpha-expectile, exactly (Newey & Powell 1987,
    Econometrica 55).  Its sum is linear in t between order statistics:
    with the (x, w) pairs sorted by x and the first k of them below t, its
    root is (alpha S_R + (1 - alpha) S_L) / (alpha W_R + (1 - alpha) W_L),
    S the sums of w x and W those of w over the pairs above (R) and below
    (L).  The root lies on the first piece whose root is not above the
    piece's upper end; it is clamped to the lower end against rounding.
    The sums below are added from the smallest x up, those above from the
    largest down, each from 0.0.  DomainError where the root is not finite
    (a sum overflowed), or where some |x| exceeds 2**10 max(1, |root|): the
    sums then cancel, and this root and a solve's are both off by rounding
    on the scale of the largest |x|."""
    pairs = sorted(zip(xs, ws))
    wx = [w * x for x, w in pairs]
    ws = [w for _, w in pairs]
    s_lo, w_lo = list(accumulate(wx, initial=0.0)), list(accumulate(ws, initial=0.0))
    s_hi = list(accumulate(reversed(wx), initial=0.0))[::-1]
    w_hi = list(accumulate(reversed(ws), initial=0.0))[::-1]
    below = 1.0 - alpha
    ends = [x for x, _ in pairs] + [math.inf]
    for k, hi in enumerate(ends):
        t = (alpha * s_hi[k] + below * s_lo[k]) / (alpha * w_hi[k] + below * w_lo[k])
        if not t > hi:  # the root's piece, or a NaN
            break
    if k:
        t = max(t, ends[k - 1])
    if not math.isfinite(t):
        raise DomainError(f"expectile: estimate is {t!r}")
    if max(-ends[0], ends[-2]) > 1024.0 * max(1.0, abs(t)):
        raise DomainError(f"expectile: sums cancel to {t!r}")
    return t


def _mathieu(f):
    copysign = math.copysign

    def terms(xs, t):
        return [0.0 if x == t else copysign(f(abs(x - t)), x - t) for x in xs]

    return None, terms, None, math.isfinite


def _pow(u: float, k: int) -> float:
    """u ** k for a whole k, or the inf of its sign where it overflows: a
    float ** raises OverflowError there, where * gives inf."""
    try:
        return u ** k
    except OverflowError:
        return math.copysign(math.inf, u) if k % 2 else math.inf


def _normal_var(m):
    def terms(cs, t):  # cs: (x - m)^2
        d = 2.0 * t * t
        return [(c - t) / d for c in cs]

    def column(x):
        return _pow(x - m, 2)

    # OverflowError where a square overflows: the per-x path gives inf
    column.batch = lambda xs: list(map(operator.pow, map(operator.sub, xs, repeat(m)),
                                       repeat(2)))
    return (column, terms,
            (lambda x, t: (t - 2.0 * _pow(x - m, 2)) / (2.0 * _pow(t, 3))),
            _finite_not(m))


def _beta_alpha(beta):
    def terms(cs, t):  # cs: ln(1 - x^beta)
        inv = 1.0 / t
        return [inv + c for c in cs]

    def column(x):
        return _ln_one_minus_pow(x, beta)

    column.batch = lambda xs: _ln_one_minus_pows(xs, beta)
    return column, terms, _minus_inv_square, _unit


def _beta_beta(alpha):
    exp, expm1 = math.exp, math.expm1

    def terms(cs, t):  # cs: ln x
        inv = 1.0 / t
        # x^t = e^(t ln x); 1 - x^t via expm1 to keep precision as t -> 0
        return [inv + c * (1.0 - alpha * exp(t * c)) / (-expm1(t * c)) for c in cs]

    def d2(x, t):
        # -1/t^2 + (1 - alpha) (ln x)^2 u/(1 - u)^2, u = x^t, 1 - u by expm1
        c = math.log(x)
        r = c / -expm1(t * c)
        return -1.0 / (t * t) + (1.0 - alpha) * exp(t * c) * r * r

    return math.log, terms, d2, _unit


def _gamma_shape(lam):
    log_lam = math.log(lam)

    def terms(cs, t):  # cs: ln x
        d = -digamma(t)
        return [d + c + log_lam for c in cs]

    return math.log, terms, (lambda x, t: -trigamma(t)), _positive


def _gamma_rate(p):
    def terms(xs, t):
        q = p / t
        return [q - x for x in xs]

    return None, terms, (lambda x, t: -p / (t * t)), _positive


def _lomax_rate_lambda(alpha):
    def terms(xs, t):
        return [(alpha * x - t) / (t * (t + x)) for x in xs]

    def d2(x, t):
        # (N/D)' with N = alpha x - t and D = t (t + x)
        n, d = alpha * x - t, t * (t + x)
        return (-d - n * (2.0 * t + x)) / (d * d)

    return None, terms, d2, _positive


# Newton steps _lomax_rate_estimate takes at most: the most seen over
# samples spread across 80 binades is 30.
_LOMAX_STEPS = 100
# The relative rounding allowed on the bounds alpha H and alpha xbar, which
# are the root itself where every x is the same: about four ulps.
_LOMAX_SLACK = 2.0 ** -50


def _lomax_rate_estimate(xs, ws, alpha: float) -> float:
    """The root of the Lomax rate's likelihood equation, by Newton steps.
    On t > 0 the sum has the sign of h(t) = (alpha + 1) sum w x/(t + x) - W,
    W = sum w, which decreases and is convex in t.  By Jensen's inequality
    its root lies in [alpha H, alpha xbar], H the weighted harmonic mean of
    the xs and xbar their weighted mean; so Newton steps from alpha H rise
    to the root.  They stop at the first step that does not rise.  Each
    step is three passes by map and two math.fsum, in C.

    DomainError where the root or alpha xbar is not finite, where the root
    leaves [alpha H, alpha xbar] by more than rounding or takes more than
    _LOMAX_STEPS steps, and where |h'(t)| at the root is not finite or
    max(1, alpha) W exceeds 2**10 t |h'(t)|.  In the last case h's
    rounding, about ulps of W, and that of a solve's sum, about ulps of
    sum |w (alpha x - t)/(t + x)| <= max(1, alpha) W, move the root by more
    than 2**10 ulps of t or so (xs = (1, 1e10) is one such sample)."""
    total = math.fsum(ws)
    wx = list(map(operator.mul, ws, xs))
    inv = math.fsum(map(operator.truediv, ws, xs))
    lo = alpha * (total / inv) if inv < math.inf else 0.0
    hi = alpha * (math.fsum(wx) / total)
    up = alpha + 1.0
    t = lo
    for _ in range(_LOMAX_STEPS):
        ds = list(map(operator.add, xs, repeat(t)))
        qs = list(map(operator.truediv, wx, ds))
        slope = up * math.fsum(map(operator.truediv, qs, ds))  # -h'(t)
        step = t + (up * math.fsum(qs) - total) / slope
        if not step > t:
            break
        t = step
    else:
        raise DomainError(f"lomax_rate_lambda: no root in {_LOMAX_STEPS} Newton steps")
    # each test is false on NaN: an x of inf, or a w x past the largest
    # float, gives hi = inf and a NaN or infinite slope
    if not (0.0 < t < math.inf and hi < math.inf
            and lo * (1.0 - _LOMAX_SLACK) <= t <= hi * (1.0 + _LOMAX_SLACK)):
        raise DomainError(f"lomax_rate_lambda: estimate {t!r} outside [{lo!r}, {hi!r}]")
    if not max(1.0, alpha) * total <= 1024.0 * t * slope < math.inf:
        raise DomainError(f"lomax_rate_lambda: rounding moves the root {t!r}")
    return t


def _lomax_shape_alpha(lam):
    def terms(cs, t):  # cs: ln(1 + x/lambda)
        inv = 1.0 / t
        return [inv - c for c in cs]

    def column(x):
        return math.log1p(x / lam)

    column.batch = lambda xs: list(map(math.log1p, map(operator.truediv, xs, repeat(lam))))
    return column, terms, _minus_inv_square, _positive


def _lognormal_mu(sigma2):
    def terms(cs, t):  # cs: ln x
        return [(c - t) / sigma2 for c in cs]

    return math.log, terms, (lambda x, t: -1.0 / sigma2), _positive


def _laplace_scale(mu):
    def terms(cs, t):  # cs: |x - mu|
        tt, inv = t * t, 1.0 / t
        return [c / tt - inv for c in cs]

    def column(x):
        return abs(x - mu)

    column.batch = lambda xs: list(map(abs, map(operator.sub, xs, repeat(mu))))
    return (column, terms,
            (lambda x, t: -2.0 * abs(x - mu) / _pow(t, 3) + 1.0 / (t * t)),
            _finite_not(mu))


@dataclass(frozen=True)
class _Family:
    """One catalog row.

    key is the known parameter (None: the family takes the function f),
    admissible its range and what the range in words.  build maps the known
    value to (column or None, terms, d2 or None, domain check).  A
    quasi-arithmetic family has psi = q(t) (F(x) - g(t)) with q of one sign,
    F its column (x itself where the column is None).  It gives q and g,
    each taking t and the known value, so weighted_sum takes its sum as
    q(t) (S - W g(t)) from S = sum w F(x) and W = sum w; q raises where the
    terms raise.  Where it also gives F_inv, the inverse of g, taking the
    known value as a second argument, theta1(x) = F_inv(F(x)) and the
    estimator is F_inv(weighted mean of F(x_i)).  Other families may give
    theta1(x, value) directly, and their estimator as estimate(columns,
    weights, value) over the positive-weight terms.  The comparison scans'
    screen trusts that estimator (PsiKernel._estimate, comparison._settled),
    and the solver certifies it before any search (the terms' _proposal)
    unless proposes is False.  lomax_rate_lambda's Newton root serves the
    screen alone, so each of its solves stays the search's, bit for bit:
    at n = 2500 the root takes 3.1 ms and the search 3.6 ms (timeit, Python
    3.11 on a 2-vCPU x86-64 host), so certifying it would save little.
    beta_beta and gamma_shape have no estimator formula, so their scan
    cases are all solved.
    """

    key: Optional[str]
    admissible: Optional[Callable[[float], bool]]
    what: Optional[str]
    theta: OpenInterval
    build: Callable
    q: Optional[Callable[[float, float], float]] = None
    g: Optional[Callable[[float, float], float]] = None
    F_inv: Optional[Callable[[float, float], float]] = None
    theta1: Optional[Callable[[float, float], float]] = None
    estimate: Optional[Callable] = None
    proposes: bool = True


_FAMILIES = {
    "expectile": _Family("alpha", _unit, "in (0,1)", _REAL_LINE, _expectile,
                         theta1=_first, estimate=_expectile_estimate),
    "mathieu": _Family(None, None, None, _REAL_LINE, _mathieu, theta1=_first),
    "normal_var": _Family("m", _any, "finite", _POSITIVE, _normal_var,
                          q=lambda t, m: 1.0 / (2.0 * t * t), g=_first,
                          F_inv=_first),
    "beta_alpha": _Family("beta", _positive, "> 0", _POSITIVE, _beta_alpha,
                          q=_one, g=lambda t, beta: -1.0 / t,
                          F_inv=lambda y, beta: -1.0 / y),
    "beta_beta": _Family("alpha", _positive, "> 0", _POSITIVE, _beta_beta),
    "gamma_shape": _Family("lambda", _positive, "> 0", _POSITIVE, _gamma_shape,
                           q=_one, g=lambda t, lam: digamma(t) - math.log(lam)),
    "gamma_rate": _Family("p", _positive, "> 0", _POSITIVE, _gamma_rate,
                          q=_minus_one, g=lambda t, p: p / t,
                          F_inv=lambda y, p: p / y),
    "lomax_rate_lambda": _Family("alpha", _positive, "> 0", _POSITIVE,
                                 _lomax_rate_lambda,
                                 theta1=lambda x, alpha: alpha * x,
                                 estimate=_lomax_rate_estimate, proposes=False),
    "lomax_shape_alpha": _Family("lambda", _positive, "> 0", _POSITIVE,
                                 _lomax_shape_alpha, q=_minus_one,
                                 g=lambda t, lam: 1.0 / t,
                                 F_inv=lambda y, lam: 1.0 / y),
    "lognormal_mu": _Family("sigma2", _positive, "> 0", _REAL_LINE, _lognormal_mu,
                            q=lambda t, sigma2: 1.0 / sigma2, g=_first,
                            F_inv=_first),
    "laplace_scale": _Family("mu", _any, "finite", _POSITIVE, _laplace_scale,
                             q=lambda t, mu: 1.0 / (t * t), g=_first,
                             F_inv=_first),
}

FAMILY_IDS = tuple(_FAMILIES)

# Families whose estimator has an elementary closed form.
CLOSED_FORM_IDS = tuple(fam for fam, row in _FAMILIES.items() if row.F_inv is not None)


def _known(spec: FamilySpec, row: _Family):
    return spec.f if row.key is None else spec.param(row.key)


def _pointwise(column, terms):
    """psi(x, t) at one point, from the batched form."""
    if column is None:
        return lambda x, t: terms((x,), t)[0]
    return lambda x, t: terms((column(x),), t)[0]


def make_kernel(spec: FamilySpec) -> PsiKernel:
    """Build the PsiKernel for a family, with closed-form theta1 and the
    partial derivative in t where elementary, its weighted estimator
    (PsiKernel._estimate) and its (q, g) (PsiKernel._affine) where the row
    gives them.  A row's own estimate formula is also the terms' _proposal,
    which the solver certifies, where the row proposes it.  Its eval is the
    row's batched formula at one point."""
    row = _FAMILIES[spec.family]
    v = _known(spec, row)
    column, terms, d2, check = row.build(v)
    if row.g is not None:  # PsiKernel._affine reads it
        q, g = row.q, row.g
        terms._affine = (lambda t: q(t, v), lambda t: g(t, v))
    th1 = estimate = None
    if row.F_inv is not None:
        F, F_inv = column or _identity, row.F_inv

        def th1(x):
            return F_inv(F(x), v)

        def estimate(sample):
            mean = _weighted_mean(sample.columns(kernel), sample._live_weights)
            if not math.isfinite(mean):
                raise DomainError(f"{spec.family}: weighted mean of F(x) is {mean!r}")
            return F_inv(mean, v)
    elif row.theta1 is not None:
        explicit = row.theta1

        def th1(x):
            return explicit(x, v)
    if row.estimate is not None:
        formula = row.estimate

        def estimate(sample):
            return formula(sample.columns(kernel), sample._live_weights, v)
        if row.proposes:
            # the solver's proposal (solver._propose), kept with terms by
            # dataclasses.replace, as _affine is
            terms._proposal = lambda cs, ws: formula(cs, ws, v)
    kernel = PsiKernel(row.theta, _pointwise(column, terms), theta1=th1, d2=d2,
                       domain_check=check, name=spec.family, column=column,
                       terms=terms)
    object.__setattr__(kernel, "_estimate", estimate)
    return kernel


def closed_form_estimate(spec: FamilySpec, sample: WeightedSample) -> float:
    """Elementary estimator formula where one exists: the kernel's
    F_inv(weighted mean of F(x)).

    With nonuniform weights this returns the weighted generalization
    (weighted averages in place of 1/n sums); callers that care should flag
    that in their reports.  The mean of F runs over the positive-weight
    terms, as weighted_sum does, and F(x) is the kernel's column, kept on
    the sample.  Raises DomainError for an observation outside X, then
    MissingClosedForm for families whose estimating equation has no
    elementary solution, and DomainError when the weighted mean of F(x) is
    not finite.
    """
    kernel = make_kernel(spec)
    sample.check(kernel)
    if _FAMILIES[spec.family].F_inv is None:
        raise MissingClosedForm(f"{spec.family} has no elementary estimator formula")
    return kernel._estimate(sample)


def beta_alpha_bounds(alpha: float, sample: WeightedSample) -> tuple[float, float]:
    """Bracket for the Beta shape-beta estimator at known alpha.

    With L = mean of ln x_i (negative for x_i in (0,1)), the estimator lies in
    [-min(alpha,1)/L, -max(alpha,1)/L]; the bounds coincide at alpha=1.
    Requires uniform weights.
    """
    if not math.isfinite(alpha):
        raise InvalidParameter(f"alpha={alpha!r} must be finite")
    if not (alpha > 0.0):
        raise InvalidParameter(f"alpha={alpha!r} must be > 0")
    if len(set(sample.weights)) != 1:
        raise InvalidParameter("bounds require uniform weights")
    for x in sample.xs:
        if not (0.0 < x < 1.0):
            raise DomainError(f"observation {x!r} outside (0,1)")
    mean_ln = _add(math.log(x) for x in sample.xs) / len(sample.xs)
    lower = -min(alpha, 1.0) / mean_ln
    upper = -max(alpha, 1.0) / mean_ln
    return (lower, upper)
