"""Hypothesis strategies shared by the test modules.

Kept apart from gen.py, which the benchmark harness loads: importing
hypothesis there would count in its set-up time and memory.
"""

import math

from hypothesis import strategies as st

from psiest import FamilySpec, make_kernel

# Every family row: (family, known-parameter key, range of the known value,
# observation range inside the family's domain).  mathieu takes a function f
# in place of a value, drawn from MATHIEU_FS.
FAMILY_ROWS = [
    ("expectile", "alpha", (0.05, 0.95), (-5.0, 5.0)),
    ("mathieu", None, None, (-5.0, 5.0)),
    ("normal_var", "m", (-1.0, 1.0), (1.5, 10.0)),
    ("beta_alpha", "beta", (0.2, 5.0), (0.05, 0.95)),
    ("beta_beta", "alpha", (0.2, 5.0), (0.05, 0.95)),
    ("gamma_shape", "lambda", (0.2, 5.0), (0.2, 5.0)),
    ("gamma_rate", "p", (0.2, 5.0), (0.2, 5.0)),
    ("lomax_rate_lambda", "alpha", (0.2, 5.0), (0.2, 5.0)),
    ("lomax_shape_alpha", "lambda", (0.2, 5.0), (0.2, 5.0)),
    ("lognormal_mu", "sigma2", (0.2, 5.0), (0.2, 5.0)),
    ("laplace_scale", "mu", (-1.0, 1.0), (1.5, 10.0)),
]

# Increasing functions with f(0) = 0 for mathieu kernels.
MATHIEU_FS = (lambda u: u, lambda u: 2.0 * u, lambda u: u * u, lambda u: u ** 3,
              math.sinh)


@st.composite
def family_pairs(draw, max_obs=6):
    """(name, kernel psi, kernel phi, observations): one family row at two
    known values drawn independently, so both orders occur, and 1..max_obs
    observations from the row's range."""
    family, key, known, (lo, hi) = draw(st.sampled_from(FAMILY_ROWS))
    if key is None:
        fs = [draw(st.sampled_from(range(len(MATHIEU_FS)))) for _ in range(2)]
        specs = [FamilySpec(family, {}, f=MATHIEU_FS[i]) for i in fs]
        name = f"{family} f{fs[0]} vs f{fs[1]}"
    else:
        vs = [draw(st.floats(*known)) for _ in range(2)]
        specs = [FamilySpec(family, {key: v}) for v in vs]
        name = f"{family} {key}={vs[0]!r} vs {vs[1]!r}"
    obs = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=max_obs))
    return name, make_kernel(specs[0]), make_kernel(specs[1]), tuple(obs)
