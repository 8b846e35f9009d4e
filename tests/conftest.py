"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same cases, and without a deadline, since timings on a loaded
machine say nothing about correctness.
"""

from hypothesis import settings

settings.register_profile("derandomized", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("derandomized")
