"""Invariances of the estimators, as hypothesis properties.

A sign-change estimator depends on the sample only through the weighted sum
t -> sum_i w_i psi(x_i, t), so it does not see the order of the sample,
k copies of an observation count as weight k, and it lies in the hull of
the single-observation estimates theta1(x_i).  Each family property holds to
1e-9 * (1 + |theta|): the solver's width plus the rounding of the sum; the
seven affine rows are permutation invariant exactly.  A
Bajraktarevic estimator is unchanged by a Mobius transform of (f, F).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from psiest import (
    FamilySpec,
    WeightedSample,
    apply_mobius,
    estimate as quasi_mean,
    make_kernel,
    solve_sign_change,
    theta1,
)

# (spec, observation range inside the family's domain)
FAMILIES = [
    (FamilySpec("expectile", {"alpha": 0.3}), (-10.0, 10.0)),
    (FamilySpec("mathieu", {}, f=lambda u: u ** 3), (-10.0, 10.0)),
    (FamilySpec("normal_var", {"m": 0.0}), (0.1, 10.0)),
    (FamilySpec("beta_alpha", {"beta": 2.0}), (0.05, 0.95)),
    (FamilySpec("beta_beta", {"alpha": 2.0}), (0.05, 0.95)),
    (FamilySpec("gamma_shape", {"lambda": 1.0}), (0.1, 10.0)),
    (FamilySpec("gamma_rate", {"p": 2.0}), (0.1, 10.0)),
    (FamilySpec("lomax_rate_lambda", {"alpha": 2.0}), (0.1, 10.0)),
    (FamilySpec("lomax_shape_alpha", {"lambda": 2.0}), (0.1, 10.0)),
    (FamilySpec("lognormal_mu", {"sigma2": 1.0}), (0.1, 10.0)),
    (FamilySpec("laplace_scale", {"mu": 0.0}), (0.1, 10.0)),
]

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def family_samples(draw, max_n=8):
    spec, (lo, hi) = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, max_n))
    xs = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    ws = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return spec, xs, ws


def estimate(spec, xs, ws):
    res = solve_sign_change(make_kernel(spec), WeightedSample(tuple(xs), tuple(ws)))
    assert res.converged, res.status
    return res.theta


def close(a, b):
    return abs(a - b) <= 1e-9 * (1.0 + abs(a))


@PROPERTY
@given(family_samples(), st.data())
def test_permutation_invariance(case, data):
    # exact on the seven affine rows: their sums come from S and W, each
    # correctly rounded (math.fsum), so the solver sees the same floats
    spec, xs, ws = case
    order = data.draw(st.permutations(range(len(xs))))
    permuted = estimate(spec, [xs[i] for i in order], [ws[i] for i in order])
    if make_kernel(spec)._affine is not None:
        assert repr(estimate(spec, xs, ws)) == repr(permuted)
    else:
        assert close(estimate(spec, xs, ws), permuted)


@PROPERTY
@given(family_samples(), st.data())
def test_replication_equals_weight(case, data):
    spec, xs, _ = case
    j = data.draw(st.integers(0, len(xs) - 1))
    k = data.draw(st.integers(2, 6))
    copies = xs + [xs[j]] * (k - 1)
    weighted = [float(k) if i == j else 1.0 for i in range(len(xs))]
    assert close(estimate(spec, copies, [1.0] * len(copies)),
                 estimate(spec, xs, weighted))


@PROPERTY
@given(family_samples())
def test_internality(case):
    spec, xs, ws = case
    kernel = make_kernel(spec)
    singles = [theta1(kernel, x) for x in xs]
    theta = estimate(spec, xs, ws)
    pad = 1e-9 * (1.0 + abs(theta))
    assert min(singles) - pad <= theta <= max(singles) + pad


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mobius_invariance(seed):
    # A random (f, p, F), a Mobius map with c f + d > 0 on Theta, and a
    # random weighted sample, all drawn from one seeded generator.
    rng = random.Random(seed)
    spec = gen.random_spec(rng)
    moved = apply_mobius(spec, gen.random_mobius(rng, spec))
    sample = gen.random_sample(rng)
    t1 = quasi_mean(spec, sample)
    assert abs(quasi_mean(moved, sample) - t1) <= 1e-9 * max(1.0, abs(t1))
