"""Shared test settings and fixtures.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same cases, and without a deadline, since timings on a loaded
machine say nothing about correctness.

`benchmark_graph` is the benchmark's CSBM graph (n=5000, d=40, f=128,
mu=10) at h=0.2 and at h=0.8, generated once per session; a test that takes
it runs once per graph.

`run_at_blas_threads(script, threads)` runs a Python script in a fresh
interpreter with OPENBLAS_NUM_THREADS=threads and this hsgppt on its path,
and returns the JSON on the last line of its stdout. OpenBLAS reads its
thread count at start-up, so each count needs its own process.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from hsgppt.csbm import CsbmParams, generate

settings.register_profile("derandomized", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session", params=[0.2, 0.8], ids=["h0.2", "h0.8"])
def benchmark_graph(request):
    return generate(CsbmParams(n=5000, f=128, d_avg=40.0, h=request.param, mu=10.0, seed=0))


@pytest.fixture
def run_at_blas_threads():
    src = str(Path(importlib.import_module("hsgppt").__file__).resolve().parents[1])

    def run(script, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    return run
