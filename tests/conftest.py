"""Hypothesis profiles for the test suite.

The default profile, derandomized, draws the same examples on every run, so
a property test's outcome and duration belong to the code, not to the draw.
`pytest --hypothesis-profile=random` draws afresh on each run, which CI does
in a step of its own.  Neither lowers a test's max_examples, and neither
sets a deadline: the examples' cost varies with n far more than with the
code.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.register_profile("random", deadline=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")
