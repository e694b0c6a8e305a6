"""Shared test settings.

Property tests run a fixed sequence of examples, so the suite is
reproducible, and without a per-example deadline, because the first
example of a run also builds the cached reference tables.
"""

from hypothesis import settings

settings.register_profile("hpeig", derandomize=True, deadline=None)
settings.load_profile("hpeig")
