"""Catalog of concrete statistical psi-kernels and their closed forms.

Each family defines a kernel psi(x, t) whose weighted-sum sign change is the
estimator of interest: expectiles, Mathieu-type location kernels, and the
likelihood-equation kernels of six distributions (normal variance, Beta shape
parameters, Gamma, Lomax, lognormal location, Laplace scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .errors import DomainError, InvalidParameter, MissingClosedForm
from .kernel import OpenInterval, PsiKernel, WeightedSample, rises

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
        if not (math.isfinite(v) and row.admissible(v)):
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


def _first(x: float, v) -> float:
    """x itself, whatever the known parameter v."""
    return x


def _ln_one_minus_pow(x: float, beta: float) -> float:
    """ln(1 - x^beta) for x in (0,1), stable as x^beta -> 1."""
    return math.log1p(-math.exp(beta * math.log(x)))


def _minus_inv_square(x: float, t: float) -> float:
    return -1.0 / (t * t)


# Kernel builders: known parameter -> (eval, d2 or None, domain check).  Each
# eval is one closure so a term costs a single call.
def _expectile(alpha):
    def ev(x, t):
        if x > t:
            return alpha * (x - t)
        if x < t:
            return (1.0 - alpha) * (x - t)
        return 0.0

    def d2(x, t):
        if x > t:
            return -alpha
        if x < t:
            return -(1.0 - alpha)
        return -0.5

    return ev, d2, _finite


def _mathieu(f):
    def ev(x, t):
        if x == t:
            return 0.0
        return math.copysign(f(abs(x - t)), x - t)

    return ev, None, _finite


def _normal_var(m):
    return ((lambda x, t: ((x - m) ** 2 - t) / (2.0 * t * t)),
            (lambda x, t: (t - 2.0 * (x - m) ** 2) / (2.0 * t ** 3)),
            (lambda x: _finite(x) and x != m))


def _beta_alpha(beta):
    return (lambda x, t: 1.0 / t + _ln_one_minus_pow(x, beta)), _minus_inv_square, _unit


def _beta_beta(alpha):
    def ev(x, t):
        lx = math.log(x)
        u = math.exp(t * lx)  # x^t
        # 1 - x^t via expm1 to keep precision as t -> 0
        return 1.0 / t + lx * (1.0 - alpha * u) / (-math.expm1(t * lx))

    return ev, None, _unit


def _gamma_shape(lam):
    log_lam = math.log(lam)
    # The latest (t, digamma(t)), one tuple so a reader never sees half an
    # update: a weighted sum evaluates every x at one t.
    last = (math.nan, math.nan)

    def ev(x, t):
        nonlocal last
        last_t, d = last
        if last_t != t:
            d = digamma(t)
            last = (t, d)
        return -d + math.log(x) + log_lam

    return ev, None, _positive


def _gamma_rate(p):
    return (lambda x, t: p / t - x), (lambda x, t: -p / (t * t)), _positive


def _lomax_rate_lambda(alpha):
    return (lambda x, t: (alpha * x - t) / (t * (t + x))), None, _positive


def _lomax_shape_alpha(lam):
    return (lambda x, t: 1.0 / t - math.log1p(x / lam)), _minus_inv_square, _positive


def _lognormal_mu(sigma2):
    return ((lambda x, t: (math.log(x) - t) / sigma2), (lambda x, t: -1.0 / sigma2),
            _positive)


def _laplace_scale(mu):
    return ((lambda x, t: abs(x - mu) / (t * t) - 1.0 / t),
            (lambda x, t: -2.0 * abs(x - mu) / t ** 3 + 1.0 / (t * t)),
            (lambda x: _finite(x) and x != mu))


@dataclass(frozen=True)
class _Family:
    """One catalog row.

    key is the known parameter (None: the family takes the function f),
    admissible its range and what the range in words.  build maps the known
    value to (eval, d2 or None, domain check).  A quasi-arithmetic family has
    psi = q(t) (F(x) - g(t)) with q of one sign and gives the pair (F, F_inv),
    F_inv the inverse of g; then theta1(x) = F_inv(F(x)) and the estimator
    is F_inv(weighted mean of F(x_i)).  Both take the known value as a
    second argument.  Other families may give theta1(x, value) directly.
    """

    key: Optional[str]
    admissible: Optional[Callable[[float], bool]]
    what: Optional[str]
    theta: OpenInterval
    build: Callable
    F: Optional[Callable[[float, float], float]] = None
    F_inv: Optional[Callable[[float, float], float]] = None
    theta1: Optional[Callable[[float, float], float]] = None


_FAMILIES = {
    "expectile": _Family("alpha", _unit, "in (0,1)", _REAL_LINE, _expectile,
                         theta1=_first),
    "mathieu": _Family(None, None, None, _REAL_LINE, _mathieu, theta1=_first),
    "normal_var": _Family("m", _any, "finite", _POSITIVE, _normal_var,
                          F=lambda x, m: (x - m) ** 2, F_inv=_first),
    "beta_alpha": _Family("beta", _positive, "> 0", _POSITIVE, _beta_alpha,
                          F=_ln_one_minus_pow, F_inv=lambda y, beta: -1.0 / y),
    "beta_beta": _Family("alpha", _positive, "> 0", _POSITIVE, _beta_beta),
    "gamma_shape": _Family("lambda", _positive, "> 0", _POSITIVE, _gamma_shape),
    "gamma_rate": _Family("p", _positive, "> 0", _POSITIVE, _gamma_rate,
                          F=_first, F_inv=lambda y, p: p / y),
    "lomax_rate_lambda": _Family("alpha", _positive, "> 0", _POSITIVE,
                                 _lomax_rate_lambda,
                                 theta1=lambda x, alpha: alpha * x),
    "lomax_shape_alpha": _Family("lambda", _positive, "> 0", _POSITIVE,
                                 _lomax_shape_alpha,
                                 F=lambda x, lam: math.log1p(x / lam),
                                 F_inv=lambda y, lam: 1.0 / y),
    "lognormal_mu": _Family("sigma2", _positive, "> 0", _REAL_LINE, _lognormal_mu,
                            F=lambda x, sigma2: math.log(x), F_inv=_first),
    "laplace_scale": _Family("mu", _any, "finite", _POSITIVE, _laplace_scale,
                             F=lambda x, mu: abs(x - mu), F_inv=_first),
}

FAMILY_IDS = tuple(_FAMILIES)

# Families whose estimator has an elementary closed form.
CLOSED_FORM_IDS = tuple(fam for fam, row in _FAMILIES.items() if row.F is not None)


def _known(spec: FamilySpec, row: _Family):
    return spec.f if row.key is None else spec.param(row.key)


def make_kernel(spec: FamilySpec) -> PsiKernel:
    """Build the PsiKernel for a family, with closed-form theta1 and the
    partial derivative in t where elementary."""
    row = _FAMILIES[spec.family]
    v = _known(spec, row)
    ev, d2, check = row.build(v)
    th1 = None
    if row.F is not None:
        F, F_inv = row.F, row.F_inv

        def th1(x):
            return F_inv(F(x, v), v)
    elif row.theta1 is not None:
        explicit = row.theta1

        def th1(x):
            return explicit(x, v)
    return PsiKernel(row.theta, ev, theta1=th1, d2=d2, domain_check=check,
                     name=spec.family)


def _weighted_mean(values, weights) -> float:
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += w * v
        den += w
    return num / den


def closed_form_estimate(spec: FamilySpec, sample: WeightedSample) -> float:
    """Elementary estimator formula where one exists.

    With nonuniform weights this returns the weighted generalization
    (weighted averages in place of 1/n sums); callers that care should flag
    that in their reports.  Raises MissingClosedForm for families whose
    estimating equation has no elementary solution.
    """
    sample.check(make_kernel(spec))
    row = _FAMILIES[spec.family]
    if row.F is None:
        raise MissingClosedForm(f"{spec.family} has no elementary estimator formula")
    v = _known(spec, row)
    F = row.F
    return row.F_inv(_weighted_mean([F(x, v) for x in sample.xs], sample.weights), v)


def beta_alpha_bounds(alpha: float, sample: WeightedSample) -> tuple[float, float]:
    """Bracket for the Beta shape-beta estimator at known alpha.

    With L = mean of ln x_i (negative for x_i in (0,1)), the estimator lies in
    [-min(alpha,1)/L, -max(alpha,1)/L]; the bounds coincide at alpha=1.
    Requires uniform weights.
    """
    if not (alpha > 0.0):
        raise InvalidParameter(f"alpha={alpha!r} must be > 0")
    if len(set(sample.weights)) != 1:
        raise InvalidParameter("bounds require uniform weights")
    for x in sample.xs:
        if not (0.0 < x < 1.0):
            raise DomainError(f"observation {x!r} outside (0,1)")
    mean_ln = sum(math.log(x) for x in sample.xs) / len(sample.xs)
    lower = -min(alpha, 1.0) / mean_ln
    upper = -max(alpha, 1.0) / mean_ln
    return (lower, upper)
