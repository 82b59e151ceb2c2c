"""Shared random generators and the comparison regression corpus."""

import math
import random

from psiest import (
    BajraktarevicSpec,
    FamilySpec,
    MobiusCoefficients,
    OpenInterval,
    WeightedSample,
    make_kernel,
)

# Kernel pairs whose estimator ordering is an if-and-only-if in the family
# parameter: forward order holds, reversed order fails.
# (name, family, params_psi, params_phi, observations)
ORDERED_PAIRS = [
    ("expectile", "expectile", {"alpha": 0.3}, {"alpha": 0.7}, (0.0, 1.0, 2.0, 5.0)),
    ("beta_alpha", "beta_alpha", {"beta": 1.0}, {"beta": 2.0}, (0.3, 0.7)),
    ("gamma_shape", "gamma_shape", {"lambda": 1.0}, {"lambda": 2.0}, (0.5, 2.0)),
    ("lomax_lambda", "lomax_rate_lambda", {"alpha": 1.0}, {"alpha": 2.0}, (1.0, 3.0)),
    ("lomax_alpha", "lomax_shape_alpha", {"lambda": 1.0}, {"lambda": 2.0}, (1.0, 3.0)),
]


def comparison_corpus():
    """Ten regression pairs: each ordered pair forward (no counterexample
    expected) and reversed (counterexample expected)."""
    out = []
    for name, family, lo, hi, obs in ORDERED_PAIRS:
        klo = make_kernel(FamilySpec(family, lo))
        khi = make_kernel(FamilySpec(family, hi))
        out.append((name + "_forward", klo, khi, obs, False))
        out.append((name + "_reversed", khi, klo, obs, True))
    return out

_LINE = OpenInterval(-math.inf, math.inf)
_POS = OpenInterval(0.0, math.inf)

# (name, f, f', theta)
BASE_FUNCS = [
    ("id", lambda t: t, lambda t: 1.0, _LINE),
    ("ln", math.log, lambda t: 1.0 / t, _POS),
    ("exp", math.exp, math.exp, _LINE),
    ("cube", lambda t: t ** 3, lambda t: 3.0 * t * t, _LINE),
    ("affine", lambda t: 2.0 * t + 1.0, lambda t: 2.0, _LINE),
]

P_FUNCS = [
    ("one", lambda x: 1.0),
    ("x", lambda x: x),
    ("exp_clipped", lambda x: min(math.exp(x), 1e6)),
]


def random_spec(rng: random.Random) -> BajraktarevicSpec:
    """Random (f, p, F) triple with F = f o h for an increasing affine h, so
    that F maps the observation window (0.1, 3) into f(theta)."""
    _, f, fp, theta = BASE_FUNCS[rng.randrange(len(BASE_FUNCS))]
    _, p = P_FUNCS[rng.randrange(len(P_FUNCS))]
    a = rng.uniform(0.3, 2.0)
    b = rng.uniform(0.1, 1.5)

    def F(x: float) -> float:
        return f(a * x + b)

    return BajraktarevicSpec(f, p, F, theta, fprime=fp)


def random_sample(rng: random.Random, max_n: int = 8) -> WeightedSample:
    n = rng.randint(1, max_n)
    xs = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
    ws = tuple(rng.uniform(0.1, 2.0) for _ in range(n))
    return WeightedSample(xs, ws)


def random_mobius(rng: random.Random, spec: BajraktarevicSpec) -> MobiusCoefficients:
    """Coefficients with ad > bc and c f + d positive on the probe grid.

    c is scaled by the F-spread over the observation window so the transform
    stays well conditioned there (no saturation toward a/c)."""
    fmin = min(spec.f(t) for t in spec.theta.probe_grid(257))
    f_lo, f_hi = sorted((spec.F(0.1), spec.F(3.0)))
    if rng.random() < 0.4:
        c = 0.0
    else:
        c = rng.uniform(0.1, 1.0) / max(1.0, f_hi - f_lo)
    d = max(0.0, -c * fmin) + rng.uniform(0.5, 2.0)
    a = rng.uniform(0.5, 2.0)
    while True:
        b = rng.uniform(-2.0, 2.0)
        if a * d - b * c > 0.1:
            return MobiusCoefficients(a, b, c, d)
