"""The paper's equivalence theorem as properties, in both directions.

Ordering on every sample, the two-point condition and the ratio
(multiplier) condition are equivalent (Barczy and Pales).  Both directions
of the proof are constructive, so each check's counterexample can be turned
into one of the other kind:

- ratio -> sample.  A cross witness (x, y, t) gives the weight
  lam = psi(y,t)/(psi(y,t) - psi(x,t)).  On the sample ((x, y), (lam, 1-lam))
  the psi-sum vanishes at t and the phi-sum is negative, so
  theta_psi = t > theta_phi.  The test weights x and y by psi(y,t) and
  -psi(x,t), the same sample up to a factor.  A theta1 witness x is the
  one-point sample (x).
- sample -> ratio.  A sample S with theta_phi(S) < theta_psi(S) makes the
  ratio check fail at their midpoint t on the distinct points of S: if the
  multiplier p(t) bounded psi by p(t) phi there, then
  sum psi(t) <= p(t) sum phi(t) < 0, against sum psi(t) > 0.

A near tie may give no conclusion: two estimates within 1e-9 relative, ten
times the ratio check's slack on its products.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from strategies import MATHIEU_FS, family_pairs
from psiest import (
    FamilySpec,
    SolverConfig,
    WeightedSample,
    build_witness_set,
    check_direct,
    check_ratio_condition,
    check_two_point,
    make_kernel,
    solve_sign_change,
)
from psiest.comparison import COUNTEREXAMPLE, WitnessSet

CFG = SolverConfig()
CORPUS = [(name, kp, kq, obs) for name, kp, kq, obs, _ in gen.comparison_corpus()]


def _thetas(kp, kq, sample):
    tp = solve_sign_change(kp, sample, CFG)
    tq = solve_sign_change(kq, sample, CFG)
    assert tp.converged and tq.converged
    return tp.theta, tq.theta


def _near_tie(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def ratio_implies_sample(kp, kq, obs, seed=0):
    """A ratio counterexample on obs gives a sample with theta_psi above
    theta_phi.  Returns the stage of the witness, or None without one."""
    ws = build_witness_set(kq, obs, seed=seed, grid_points=9, random_points=8)
    v = check_ratio_condition(kp, kq, ws)
    if v.status != COUNTEREXAMPLE:
        return None
    w = v.witness
    if w["stage"] == "theta1":
        sample = WeightedSample((w["x"],), (1.0,))
    else:
        # weights lam and 1 - lam up to a factor, with no rounding in 1 - lam
        x, y, t = w["x"], w["y"], w["t"]
        sample = WeightedSample((x, y), (kp.eval(y, t), -kp.eval(x, t)))
    tp, tq = _thetas(kp, kq, sample)
    assert tp > tq or _near_tie(tp, tq), (w, tp, tq)
    return w["stage"]


def sample_implies_ratio(kp, kq, obs, seed=0):
    """Direct and two-point counterexamples on obs each make the ratio check
    fail at the midpoint of the two estimates on the sample's distinct
    points.  Returns how many counterexamples were turned."""
    ws = build_witness_set(kq, obs, seed=seed, grid_points=3, random_points=0)
    found = []
    v = check_direct(kp, kq, ws, max_n=4, trials=30)
    if v.status == COUNTEREXAMPLE:
        found.append((v.witness["sample"], v.witness))
    lo, hi = min(obs), max(obs)
    if lo < hi:
        v = check_two_point(kp, kq, lo, hi, max_km=8)
        if v.status == COUNTEREXAMPLE:
            found.append(((lo, hi), v.witness))
    for points, w in found:
        tp, tq = w["theta_psi"], w["theta_phi"]
        t = 0.5 * (tp + tq)
        v = check_ratio_condition(kp, kq, WitnessSet(sorted(set(points)), (t,)))
        assert v.status == COUNTEREXAMPLE or _near_tie(tp, tq), (points, w, v)
    return len(found)


class TestRatioImpliesSample:
    @settings(max_examples=50, deadline=None)
    @given(family_pairs(), st.integers(0, 5))
    def test_family_pairs(self, case, seed):
        _, kp, kq, obs = case
        ratio_implies_sample(kp, kq, obs, seed)

    @pytest.mark.parametrize("name,kp,kq,obs", CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, name, kp, kq, obs):
        stage = ratio_implies_sample(kp, kq, obs)
        assert (stage is None) == name.endswith("_forward")

    def test_cross_witness_turns(self):
        # the corpus's one cross witness: expectile 0.7 against 0.3
        _, kp, kq, obs = next(c for c in CORPUS if c[0] == "expectile_reversed")
        assert ratio_implies_sample(kp, kq, obs) == "cross"


def _mathieu(i):
    return make_kernel(FamilySpec("mathieu", {}, f=MATHIEU_FS[i]))


class TestSampleImpliesRatio:
    @settings(max_examples=50, deadline=None)
    @given(family_pairs(), st.integers(0, 5))
    # f(u) = u^2 against f(u) = u orders the sample (0, 1e-8, 0, 0) the wrong
    # way, with every product of kernel values below 1e-10 in size
    @example(("mathieu f2 vs f0", _mathieu(2), _mathieu(0), (0.0, 1e-8)), 1)
    def test_family_pairs(self, case, seed):
        _, kp, kq, obs = case
        sample_implies_ratio(kp, kq, obs, seed)

    @pytest.mark.parametrize("name,kp,kq,obs", CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, name, kp, kq, obs):
        turned = sample_implies_ratio(kp, kq, obs)
        assert (turned == 0) == name.endswith("_forward")
