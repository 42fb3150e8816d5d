"""Test-suite settings.

Hypothesis runs derandomized with a bounded example count and no example
database, so every run of the suite draws the same cases and writes no
files; property tests that propagate long pulse trains get no deadline.
"""

from hypothesis import settings

settings.register_profile("qubitfr", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("qubitfr")
