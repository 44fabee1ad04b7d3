"""Shared settings for the test suite.

The Hypothesis tests (tests/test_exact_oracle.py, tests/test_tensor_oracle.py)
run on one budget: 40 derandomized examples per test, a 1 s deadline and no
example database, so Tier-1 is reproducible and its time stays bounded.
Failing examples are shrunk, except in
`test_tensor_oracle.py::test_pencil_lie_matches_each_member`, whose
examples rescan dense pencil members on moved bases: there each shrink
step costs seconds, a failure took minutes to report with shrinking on,
and its `settings` leave out `Phase.shrink`, keeping this budget.
Hypothesis is test-only; without it those files are skipped.
"""

from datetime import timedelta

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("liepencil", max_examples=40,
                              deadline=timedelta(seconds=1),
                              derandomize=True, database=None)
    settings.load_profile("liepencil")
