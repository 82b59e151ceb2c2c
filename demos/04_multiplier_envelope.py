"""Constructing the pointwise multiplier that certifies an ordering.

For an ordered pair (psi, phi), construct_multiplier(t) returns the infimum of
psi/phi over the witnesses whose single-point estimate lies below t.  The
resulting p(t) satisfies psi(x, t) <= p(t) * phi(x, t) on the witness set.
For two log-normal location kernels that differ only in variance, the
multiplier is exactly the variance ratio.

check_ratio_condition certifies its cross stage with the same bound,
computed on its own at each grid t: there the largest psi/phi above t must
not exceed the least psi/phi below, p(t).
"""

import math

from psiest import FamilySpec, build_witness_set, construct_multiplier, make_kernel

kp = make_kernel(FamilySpec("lognormal_mu", {"sigma2": 1.0}))
kq = make_kernel(FamilySpec("lognormal_mu", {"sigma2": 4.0}))
obs = (1.0, math.e, math.e ** 2)
ws = build_witness_set(kq, obs)
for t in (0.3, 1.0, 1.7):
    p = construct_multiplier(kp, kq, ws, t)
    print(f"lognormal sigma2 1 vs 4, t = {t}: p(t) = {p:.15g}")

kp = make_kernel(FamilySpec("expectile", {"alpha": 0.3}))
kq = make_kernel(FamilySpec("expectile", {"alpha": 0.7}))
ws = build_witness_set(kq, (0.0, 10.0))
p = construct_multiplier(kp, kq, ws, 5.0)
print(f"\nexpectile 0.3 vs 0.7, witnesses (0, 10), t = 5: p = {p:.15g}"
      f"  (= 0.7/0.3 ratio of down-weights, 7/3 = {7/3:.15g})")

print("\nsandwich check on the witness grid:")
worst = 0.0
for t in ws.parameter_grid[::32]:
    p = construct_multiplier(kp, kq, ws, t)
    for z in (0.0, 10.0):
        worst = max(worst, kp.eval(z, t) - p * kq.eval(z, t))
print(f"  max over grid of psi - p*phi = {worst:.3e}  (<= 0 up to rounding)")
