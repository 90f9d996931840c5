"""Shared test settings.

Property tests draw the same examples on every run, so a rerun, or a
comparison of two revisions, sees the same cases; each test keeps its
own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
