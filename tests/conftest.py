"""Hypothesis profiles for the suite.

`HYPOTHESIS_PROFILE=ci` selects a derandomized profile with more examples:
every property without its own max_examples (the bitwise terms properties
among them) then runs 1000 examples, the same on every run.  The default
profile is hypothesis's own.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
