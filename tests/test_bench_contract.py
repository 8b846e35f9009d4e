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
import scipy.sparse as sp

import hsgppt.prompt
from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import Graph, kshot_split, laplacian
from hsgppt.pretrain import PretrainedModel, freeze
from hsgppt.spectral import FilterBank

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


def test_full_prompt_path_hands_the_filter_a_csr(monkeypatch):
    # the beta_filter_apply hook reads L.shape, .nnz, .data, .indices and
    # .indptr off the full path's operand, which must stay a scipy CSR
    g = generate(CsbmParams(n=40, f=6, d_avg=5.0, h=0.3, mu=4.0, seed=0))
    pg = hsgppt.prompt.insert_prompt(g, g.features[:3], 0.2, 0.5)
    assert sp.isspmatrix_csr(pg.laplacian(laplacian(g)))
    frozen = freeze(PretrainedModel(FilterBank.full(2), g.feature_dim, 8, seed=0))
    operands = []
    apply = hsgppt.prompt.beta_filter_apply

    def spy(L, k, r, x):
        operands.append(L)
        return apply(L, k, r, x)

    monkeypatch.setattr(hsgppt.prompt, "beta_filter_apply", spy)
    cfg = hsgppt.prompt.TuneConfig(epochs=1, seed=0)
    state = hsgppt.prompt.init_state(g, frozen, cfg, n_classes=2)
    n_total = g.n_nodes + cfg.n_prompt
    runs = [
        lambda: hsgppt.prompt.tune(g, frozen, kshot_split(g, 2, seed=0), cfg),  # validation
        lambda: hsgppt.prompt.predict(g, frozen, state),
        lambda: hsgppt.prompt.prompted_encode(g, frozen, state),
    ]
    for run in runs:
        operands.clear()
        run()
        assert len(operands) == frozen.model.bank.size
        for L in operands:
            assert sp.isspmatrix_csr(L) and L.shape == (n_total, n_total)
            assert L.nnz == L.data.size == L.indices.size == L.indptr[-1]
