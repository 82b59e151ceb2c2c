"""Solving weighted estimating equations by bracketed sign change.

The solver keeps its bracket by the sign of t -> sum_i w_i psi(x_i, t): it
expands a bracket until the left end is positive and the right end is
non-positive, then narrows it with ITP steps.  The sum's values only choose
where to look next, and no derivatives are needed, so it works unchanged for
kinked or discontinuous kernels.
"""

import math

from psiest import OpenInterval, PsiKernel, WeightedSample, solve_sign_change

line = OpenInterval(-math.inf, math.inf)

# The sample mean, phrased as a sign-change problem: psi(x, t) = x - t.
mean_kernel = PsiKernel(line, lambda x, t: x - t, theta1=lambda x: x,
                        name="mean")
sample = WeightedSample.uniform([1.0, 2.0, 6.0])
res = solve_sign_change(mean_kernel, sample)
print(f"mean of {sample.xs}: theta = {res.theta:.12g}  "
      f"({res.iterations} iterations, status {res.status})")

# A kernel with a kink at t = x (the median-like check function).
kink = PsiKernel(line, lambda x, t: math.copysign(1.0, x - t) if x != t else 0.0,
                 theta1=lambda x: x, name="sign")
res = solve_sign_change(kink, WeightedSample([0.0, 1.0], (1.0, 3.0)))
print(f"weighted sign kernel: theta = {res.theta:.6g}, "
      f"bracket = [{res.bracket_lo:.6g}, {res.bracket_hi:.6g}]")

# Failure modes are reported as statuses, not exceptions.
always_neg = PsiKernel(OpenInterval(0.0, 1.0), lambda x, t: -1.0)
res = solve_sign_change(always_neg, WeightedSample.uniform([0.5]))
print(f"kernel with no positive part: status = {res.status}")
