"""Shared pytest set-up: a deterministic Hypothesis profile.

Property tests draw the same examples on every run and have no per-example
deadline, so a slow or shared machine cannot make them flaky.
"""

from hypothesis import settings

settings.register_profile("omlkit", derandomize=True, deadline=None)
settings.load_profile("omlkit")
