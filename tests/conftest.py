"""Shared test settings and fixtures.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same cases, and without a deadline, since timings on a loaded
machine say nothing about correctness.

`benchmark_graph` is the benchmark's CSBM graph (n=5000, d=40, f=128,
mu=10) at h=0.2 and at h=0.8, generated once per session; a test that takes
it runs once per graph.
"""

import pytest
from hypothesis import settings

from hsgppt.csbm import CsbmParams, generate

settings.register_profile("derandomized", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session", params=[0.2, 0.8], ids=["h0.2", "h0.8"])
def benchmark_graph(request):
    return generate(CsbmParams(n=5000, f=128, d_avg=40.0, h=request.param, mu=10.0, seed=0))
