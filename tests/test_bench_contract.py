"""The benchmark's tracer finds every binding it patches.

bench/tracing.py wraps package functions by (module, attribute path). A name
it lists that the package renames or deletes would only fail the benchmark's
own tests, so this checks each one where the tracer looks it up, the call
shape of the one function whose arguments the tracer reads, and the
attributes it reads off what the package returns.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import hsgppt.prompt
from hsgppt.graph import Graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_is_owned_by_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() also wraps prompt._forward, which has no span of its own
    bindings = [b for spans in tracing.SPANS.values() for b in spans]
    bindings.append(("hsgppt.prompt", "_forward"))
    missing = []
    for module, path in bindings:
        owner, attr = tracing._resolve(module, path)
        if attr not in owner.__dict__:
            missing.append(f"{module}:{path}")
    assert missing == []


def test_forward_keeps_the_call_shape_the_tracer_reads():
    # install()'s forward_hook calls _forward(g, frozen, state, branches, train)
    # positionally and reads train, which nothing in the package reads
    params = list(inspect.signature(hsgppt.prompt._forward).parameters)
    assert params == ["g", "frozen", "state", "branches", "train"]


def test_prompted_graphs_keep_the_attributes_the_tracer_reads():
    # the insert_prompt hook counts out.cross_edges and out.inner_edges; the
    # forward hook compares b.prompted.cross_edges and .inner_edges across epochs
    g = Graph("g", np.array([[0, 1], [1, 2]]), np.eye(3))
    pg = hsgppt.prompt.insert_prompt(g, 10.0 * np.eye(3)[:2], 0.2, 0.9)
    assert pg.cross_edges.shape == (2, 2) and pg.inner_edges.shape == (1, 2)
    assert "prompted" in hsgppt.prompt._Branch.__slots__
