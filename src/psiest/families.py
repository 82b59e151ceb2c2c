"""Catalog of concrete statistical psi-kernels and their closed forms.

Each family defines a kernel psi(x, t) whose weighted-sum sign change is the
estimator of interest: expectiles, Mathieu-type location kernels, and the
likelihood-equation kernels of six distributions (normal variance, Beta shape
parameters, Gamma, Lomax, lognormal location, Laplace scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
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


# Bernoulli numbers B_2, B_4, ..., B_14 for the asymptotic expansion.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function.

    Upward recurrence until x >= 6, then the asymptotic series
    ln x - 1/(2x) - sum_k B_{2k}/(2k x^{2k}) truncated after B_14; the
    switchover keeps the truncation error below 1e-13.
    """
    if not (x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    total = math.log(x) - 0.5 / x
    power = inv2
    for k, b2k in enumerate(_BERNOULLI, start=1):
        total -= b2k / (2.0 * k) * power
        power *= inv2
    return total + acc


def _finite(x: float) -> bool:
    return math.isfinite(x)


def _positive(x: float) -> bool:
    return x > 0.0


def _unit(x: float) -> bool:
    return 0.0 < x < 1.0


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

    return None, terms, d2, _finite


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

    return None, terms, None, _finite


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

    return ((lambda x: _pow(x - m, 2)), terms,
            (lambda x, t: (t - 2.0 * _pow(x - m, 2)) / (2.0 * _pow(t, 3))),
            (lambda x: _finite(x) and x != m))


def _beta_alpha(beta):
    def terms(cs, t):  # cs: ln(1 - x^beta)
        inv = 1.0 / t
        return [inv + c for c in cs]

    return (lambda x: _ln_one_minus_pow(x, beta)), terms, _minus_inv_square, _unit


def _beta_beta(alpha):
    exp, expm1 = math.exp, math.expm1

    def terms(cs, t):  # cs: ln x
        inv = 1.0 / t
        # x^t = e^(t ln x); 1 - x^t via expm1 to keep precision as t -> 0
        return [inv + c * (1.0 - alpha * exp(t * c)) / (-expm1(t * c)) for c in cs]

    return math.log, terms, None, _unit


def _gamma_shape(lam):
    log_lam = math.log(lam)

    def terms(cs, t):  # cs: ln x
        d = -digamma(t)
        return [d + c + log_lam for c in cs]

    return math.log, terms, None, _positive


def _gamma_rate(p):
    def terms(xs, t):
        q = p / t
        return [q - x for x in xs]

    return None, terms, (lambda x, t: -p / (t * t)), _positive


def _lomax_rate_lambda(alpha):
    def terms(xs, t):
        return [(alpha * x - t) / (t * (t + x)) for x in xs]

    return None, terms, None, _positive


def _lomax_shape_alpha(lam):
    def terms(cs, t):  # cs: ln(1 + x/lambda)
        inv = 1.0 / t
        return [inv - c for c in cs]

    return (lambda x: math.log1p(x / lam)), terms, _minus_inv_square, _positive


def _lognormal_mu(sigma2):
    def terms(cs, t):  # cs: ln x
        return [(c - t) / sigma2 for c in cs]

    return math.log, terms, (lambda x, t: -1.0 / sigma2), _positive


def _laplace_scale(mu):
    def terms(cs, t):  # cs: |x - mu|
        tt, inv = t * t, 1.0 / t
        return [c / tt - inv for c in cs]

    return ((lambda x: abs(x - mu)), terms,
            (lambda x, t: -2.0 * abs(x - mu) / _pow(t, 3) + 1.0 / (t * t)),
            (lambda x: _finite(x) and x != mu))


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
    weights, value) over the positive-weight terms.
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
                                 theta1=lambda x, alpha: alpha * x),
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
    gives them.  Its eval is the row's batched formula at one point."""
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
