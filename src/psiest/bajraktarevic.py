"""Estimators of the form psi(x,t) = p(x) (F(x) - f(t)) and their algebra.

These kernels admit the closed form  theta = f^(-1)( sum w p F / sum w p )
through the generalized left inverse of f.  Two such kernels produce
identical estimators exactly when their f's are Mobius transforms of each
other; this module provides the transform, a coefficient fitter, the 4x4
determinant test, and a finite-difference Schwarzian derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    DegenerateDerivative,
    DegenerateProbes,
    DomainError,
    InvalidArgument,
    SignViolation,
)
from .kernel import (OpenInterval, PsiKernel, WeightedSample, _add,
                     _weighted_mean, rises)
from .solver import SolverConfig, generalized_left_inverse


@dataclass(frozen=True)
class BajraktarevicSpec:
    """The triple (f, p, F) on an open interval.

    f must be strictly increasing and never NaN on theta (validated on a
    probe grid), p positive on admissible observations, and F must map
    observations into the convex hull of f(theta).  fprime is optional and
    only used to supply a closed-form parameter derivative to the kernel.
    """

    f: Callable[[float], float]
    p: Callable[[float], float]
    F: Callable[[float], float]
    theta: OpenInterval
    fprime: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        # validated by sampling; tolerate flat stretches from rounding (e.g.
        # Mobius transforms saturating at double precision) but reject any
        # decrease, overall constancy and NaN
        if not rises(self.f, self.theta.probe_grid(33), flat=1e-13):
            raise InvalidArgument(
                "f must be strictly increasing and not NaN on theta")


@dataclass(frozen=True)
class MobiusCoefficients:
    """Coefficients of g = (a f + b) / (c f + d) with ad - bc != 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.determinant == 0.0:
            raise InvalidArgument("ad - bc must be nonzero")

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c


def as_kernel(spec: BajraktarevicSpec, cfg: SolverConfig = SolverConfig()) -> PsiKernel:
    """Kernel view: eval(x,t) = p(x) (F(x) - f(t)).

    theta1 goes through the generalized left inverse of f, so it is correct
    even when f jumps.  d2 is -p(x) f'(t) when fprime was supplied.
    """

    def ev(x: float, t: float) -> float:
        return spec.p(x) * (spec.F(x) - spec.f(t))

    def t1(x: float) -> float:
        return generalized_left_inverse(spec.f, spec.theta, spec.F(x), cfg)

    d2 = None
    if spec.fprime is not None:
        fp = spec.fprime

        def d2(x: float, t: float) -> float:
            return -spec.p(x) * fp(t)

    def admissible(x: float) -> bool:
        try:
            return spec.p(x) > 0.0 and math.isfinite(spec.F(x))
        except (ValueError, OverflowError, ZeroDivisionError):
            return False

    return PsiKernel(spec.theta, ev, theta1=t1, d2=d2,
                     domain_check=admissible, name="bajraktarevic")


def estimate(
    spec: BajraktarevicSpec,
    sample: WeightedSample,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Closed form: f^(-1) of the p-weighted average of F over the sample.
    Each x in turn has p(x) checked, then F(x): a p(x) that is not > 0 (NaN
    included) or a NaN F(x) raises DomainError naming x."""
    weights, values = [], []
    for x, w in zip(sample._live_xs, sample._live_weights):
        px = spec.p(x)
        if not px > 0.0:
            raise DomainError(f"p({x!r}) = {px!r} must be positive")
        Fx = spec.F(x)
        if math.isnan(Fx):
            raise DomainError(f"F({x!r}) is NaN")
        weights.append(w * px)
        values.append(Fx)
    if not any(weights):  # a total of 0: every w p(x) underflowed
        raise InvalidArgument("total p-weight must be positive")
    return generalized_left_inverse(
        spec.f, spec.theta, _weighted_mean(values, weights), cfg)


def apply_mobius(spec: BajraktarevicSpec, m: MobiusCoefficients) -> BajraktarevicSpec:
    """Transformed spec (g, q, G) with g=(af+b)/(cf+d), G=(aF+b)/(cF+d),
    q=(cF+d) p; it produces the same estimator as the original.

    Requires ad > bc and c f + d of constant sign on a 257-point probe grid; a
    uniformly negative denominator is normalized by negating all four
    coefficients (which leaves the transform unchanged).
    """
    if m.determinant <= 0.0:
        raise InvalidArgument("ad - bc must be positive for an increasing g")
    grid = spec.theta.probe_grid(257)
    dens = [m.c * spec.f(t) + m.d for t in grid]
    if any(v == 0.0 for v in dens) or (min(dens) < 0.0 < max(dens)):
        raise SignViolation("c*f(t)+d changes sign on the probe grid")
    a, b, c, d = m.a, m.b, m.c, m.d
    if dens[0] < 0.0:
        a, b, c, d = -a, -b, -c, -d

    f, p, F = spec.f, spec.p, spec.F

    def g(t: float) -> float:
        ft = f(t)
        return (a * ft + b) / (c * ft + d)

    def G(x: float) -> float:
        Fx = F(x)
        return (a * Fx + b) / (c * Fx + d)

    def q(x: float) -> float:
        return (c * F(x) + d) * p(x)

    gprime = None
    if spec.fprime is not None:
        det = a * d - b * c
        fp = spec.fprime

        def gprime(t: float) -> float:
            den = c * f(t) + d
            return det * fp(t) / (den * den)

    return BajraktarevicSpec(g, q, G, spec.theta, fprime=gprime)


def _step(s: float) -> float:
    """schwarzian's default step at s."""
    return max(1e-2, 2.0 ** -20 * abs(s))


def schwarzian(
    h: Callable[[float], float], s: float, step: Optional[float] = None
) -> float:
    """Finite-difference Schwarzian  h'''/h' - (3/2)(h''/h')^2  at s.

    Central stencils of width 5; default step max(1e-2, 2^-20 |s|): fixed
    up to |s| ~ 1e4, then growing only to stay well above the float spacing
    at s.  Raises DegenerateDerivative when the first derivative estimate is
    below 1e-8.
    """
    e = step if step is not None else _step(s)
    hm2, hm1, h0, hp1, hp2 = h(s - 2 * e), h(s - e), h(s), h(s + e), h(s + 2 * e)
    d1 = (hp1 - hm1) / (2.0 * e)
    if abs(d1) < 1e-8:
        raise DegenerateDerivative(f"|h'({s!r})| below threshold")
    d2 = (hp1 - 2.0 * h0 + hm1) / (e * e)
    d3 = (hp2 - 2.0 * hp1 + 2.0 * hm1 - hm2) / (2.0 * e * e * e)
    r = d2 / d1
    return d3 / d1 - 1.5 * r * r


def _det3(r0, r1, r2) -> float:
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def determinant_test(
    f_vals: Sequence[float], g_vals: Sequence[float]
) -> float:
    """Determinant of the 4x4 matrix with rows (1, f_i, g_i, f_i g_i) at four
    probes; it vanishes exactly when g is a Mobius transform of f there.

    Cofactor expansion along the column of ones."""
    if len(f_vals) != 4 or len(g_vals) != 4:
        raise InvalidArgument("determinant test needs exactly four probes")
    rows = [(fv, gv, fv * gv) for fv, gv in zip(f_vals, g_vals)]
    return _add((-1) ** i * _det3(*rows[:i], *rows[i + 1:]) for i in range(4))


def determinant_scale(f_vals: Sequence[float], g_vals: Sequence[float]) -> float:
    """Scale for judging a determinant value: the product of row norms."""
    out = 1.0
    for fv, gv in zip(f_vals, g_vals):
        fg = fv * gv  # a product, not ** 2, which raises OverflowError
        out *= math.sqrt(1.0 + fv * fv + gv * gv + fg * fg)
    return out


def _orth(v: Sequence[float], basis: Sequence[Sequence[float]]) -> list[float]:
    """v minus its projection onto an orthonormal basis: classical
    Gram-Schmidt run twice, which keeps the result orthogonal to working
    precision."""
    v = list(v)
    for _ in range(2):
        for q in basis:
            p = _add(x * y for x, y in zip(v, q))
            v = [x - p * y for x, y in zip(v, q)]
    return v


def _centre(values: Sequence[float]) -> tuple[float, float]:
    """(c, s), the midpoint and the half-width of the values' range, so each
    (v - c) / s lies in [-1, 1]; (0, 1) where the half-width is 0, or is not
    finite."""
    lo, hi = min(values), max(values)
    c, s = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    return (c, s) if 0.0 < s < math.inf else (0.0, 1.0)


def mobius_fit(
    f_vals: Sequence[tuple[float, float]],
    g_vals: Sequence[tuple[float, float]],
) -> Optional[MobiusCoefficients]:
    """Fit g = (a f + b)/(c f + d) from probe pairs, or None when no Mobius
    relation explains all probes.

    Three anchors (smallest, median, largest f) give a 3x4 homogeneous system
    whose nullspace is the coefficient vector.  The system is written in f
    and g centred and scaled at the anchors (_centre), where a Mobius
    relation is again one, so its rank test does not depend on where the
    probes lie or how far apart; the coefficients are then mapped back to f
    and g.  The fit is accepted only if the residual
    |(c f + d) g - (a f + b)| stays within 1e-8 of scale at every probe.
    A NaN determinant or residual means no fit.
    """
    if len(f_vals) < 4 or len(g_vals) != len(f_vals):
        raise InvalidArgument("need at least 4 paired probes")
    fs = [fv for _, fv in f_vals]
    gs = [gv for _, gv in g_vals]
    if len(set(fs)) < 4:
        raise DegenerateProbes("probe f-values must be distinct")

    order = sorted(range(len(fs)), key=lambda i: fs[i])
    anchors = [order[0], order[len(order) // 2], order[-1]]
    cf, sf = _centre([fs[i] for i in anchors])
    cg, sg = _centre([gs[i] for i in anchors])
    rows = []
    for i in anchors:
        u, v = (fs[i] - cf) / sf, (gs[i] - cg) / sg
        rows.append([u, 1.0, -u * v, -v])
    # Orthonormal basis of the row space; a row with (almost) nothing
    # outside the span of the earlier ones leaves the coefficients
    # underdetermined.
    tol = 1e-12 * max(max(math.hypot(*r) for r in rows), 1.0)
    basis = []
    for r in rows:
        v = _orth(r, basis)
        n = math.hypot(*v)
        if n <= tol:
            raise DegenerateProbes("anchor system is rank-deficient")
        basis.append([x / n for x in v])
    # The nullspace is the orthogonal complement: project out the row space
    # from the unit vector e_k with the largest remainder (norm >= 1/2).
    a, b, c, d = max((_orth([float(j == k) for j in range(4)], basis) for k in range(4)),
                     key=lambda v: math.hypot(*v))
    # a u + b - c u v - d v, times sf sg, in f = cf + sf u and g = cg + sg v
    coeffs = [a * sg + c * cg, b * sf * sg - a * sg * cf + d * sf * cg - c * cf * cg,
              c, d * sf - c * cf]
    # unit norm, and fix the overall sign deterministically
    n = math.copysign(math.hypot(*coeffs), max(coeffs, key=abs))
    a, b, c, d = (v / n for v in coeffs)
    if not abs(a * d - b * c) > 1e-12:
        return None

    for fv, gv in zip(fs, gs):
        lhs = (c * fv + d) * gv
        rhs = a * fv + b
        scale = max(1.0, abs(lhs), abs(rhs))
        if not abs(lhs - rhs) <= 1e-8 * scale:
            return None
    return MobiusCoefficients(a, b, c, d)


def theta_psi_empty(
    spec: BajraktarevicSpec,
    witnesses: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
) -> bool:
    """True iff every witness has the same single-observation estimator, the
    finite-witness sign that the estimator hull is empty (all F-values land
    in one jump gap of f, or coincide)."""
    if not witnesses:
        raise InvalidArgument("witnesses must be nonempty")
    vals = [generalized_left_inverse(spec.f, spec.theta, spec.F(x), cfg)
            for x in witnesses]
    lo, hi = min(vals), max(vals)
    return hi - lo <= 1e-9 * (1.0 + max(abs(lo), abs(hi)))
