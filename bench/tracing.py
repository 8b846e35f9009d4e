"""In-memory span tracer that times hsgppt's layers from outside the package.

The package is not instrumented. Instead, `install` replaces the functions
and methods below with wrappers for the duration of a traced run, and the
returned callable puts every original back. Functions are wrapped where they
are looked up at call time: `from .spectral import beta_filter_apply` gives
`hsgppt.prompt` and `hsgppt.pretrain` their own bindings, which patching the
defining module would never reach, so each binding is patched separately.
Modules are resolved with `importlib.import_module`, because the attribute
`hsgppt.pretrain` is the re-exported function, not the module.

Span names are `<module>.<layer>`. A span records (name, start, end, parent);
a layer's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute path) bindings it wraps
SPANS = {
    "csbm.generate": [("hsgppt.csbm", "generate")],
    "graph.save_graph": [("hsgppt.graph", "save_graph")],
    "graph.load_graph": [("hsgppt.graph", "load_graph")],
    # graph.laplacian (and so hsgppt.pretrain.laplacian) looks this up in
    # hsgppt.graph at call time; the prompted graph uses its own binding
    "graph.laplacian_from_edges": [
        ("hsgppt.graph", "laplacian_from_edges"),
        ("hsgppt.prompt", "laplacian_from_edges"),
    ],
    "graph.corrupt_features": [("hsgppt.pretrain", "corrupt_features")],
    "spectral.beta_filter_apply": [
        ("hsgppt.prompt", "beta_filter_apply"),
        ("hsgppt.pretrain", "beta_filter_apply"),
    ],
    "pretrain.pretrain": [("hsgppt.pretrain", "pretrain")],
    "pretrain.filtered_views": [("hsgppt.pretrain", "filtered_views")],
    "pretrain.freeze": [("hsgppt.pretrain", "freeze")],
    "pretrain.verify": [("hsgppt.pretrain", "FrozenModel.verify")],
    "prompt.tune": [("hsgppt.prompt", "tune")],
    "prompt.insert_prompt": [("hsgppt.prompt", "insert_prompt")],
    # forward and the returned vjp closure share the span name
    "prompt.normalize_prompt": [("hsgppt.prompt", "normalize_prompt")],
    "prompt.laplacian": [("hsgppt.prompt", "PromptedGraph.laplacian")],
    "evaluate.predict": [("hsgppt.prompt", "predict")],
    "nn.linear.fwd": [("hsgppt.nn", "LinearLayer.apply")],
    "nn.linear.vjp": [],  # closures returned by LinearLayer.apply
    "nn.discriminator": [("hsgppt.nn", "BilinearDiscriminator.apply")],
    "nn.adam.step": [("hsgppt.nn", "Adam.step")],
}

# spans with child spans also report their inclusive time
TOTAL_TIME_SPANS = (
    "pretrain.pretrain",
    "pretrain.filtered_views",
    "prompt.tune",
    "prompt.laplacian",
    "evaluate.predict",
)

# (metric, unit); the traced run emits exactly these
PER_LAYER = (
    [(f"{name}.s", "s") for name in SPANS]
    + [(f"{name}.total_s", "s") for name in TOTAL_TIME_SPANS]
    + [
        ("spectral.beta_filter_apply.calls", "count"),
        ("spectral.beta_filter_apply.matvecs", "count"),
        ("spectral.beta_filter_apply.flops_computed", "flop"),
        ("spectral.beta_filter_apply.bytes_computed", "B"),
        ("spectral.beta_filter_apply.gflops_computed", "GFLOP/s"),
        ("graph.laplacian_from_edges.calls", "count"),
        ("graph.laplacian_from_edges.edges", "count"),
        ("prompt.cross_edges", "count"),
        ("prompt.inner_edges", "count"),
        ("prompt.wiring_changed_frac", "ratio"),
        ("nn.linear.calls", "count"),
        ("nn.adam.scalars", "count"),
        ("pretrain.verify.calls", "count"),
        ("pretrain.epochs", "count"),
        ("csbm.edges", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []
        self._wiring_prev = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        """fn timed under `name`; after(args, result) may replace the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            return after(args, out) if after is not None else out

        return wrapper

    def times(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur[i], own + dur[i] - child[i])
        return out

    # -- counters taken where the work happens ---------------------------

    def _filter_work(self, args, out):
        L, k, r, x = args[:4]
        cols = x.shape[1] if np.ndim(x) == 2 else 1
        steps = k + r
        n = L.shape[0]
        c = self.counters
        c["filter.matvecs"] += steps
        c["filter.flops"] += 2 * L.nnz * cols * steps
        # compulsory traffic per product: the CSR arrays, the input block
        # and the output block (computed, not measured; cache misses ignored)
        csr = L.nnz * (L.data.itemsize + L.indices.itemsize) + (n + 1) * L.indptr.itemsize
        c["filter.bytes"] += steps * (csr + 2 * n * cols * 8)
        return out

    def _prompt_work(self, args, out):
        self.counters["insert.cross"] += out.cross_edges.shape[0]
        self.counters["insert.inner"] += out.inner_edges.shape[0]
        return out

    def _wiring(self, branches):
        """Compare each branch's edge set with the previous training epoch's."""
        now = [(b.prompted.cross_edges, b.prompted.inner_edges) for b in branches if b.prompted]
        prev, self._wiring_prev = self._wiring_prev, now
        if prev is None or len(prev) != len(now):
            return
        for (c0, i0), (c1, i1) in zip(prev, now):
            self.counters["wiring.compared"] += 1
            if not (np.array_equal(c0, c1) and np.array_equal(i0, i1)):
                self.counters["wiring.changed"] += 1

    def per_layer(self, overhead_s, untraced_s):
        """The PER_LAYER metrics as {name: (value, unit)}."""
        t = defaultdict(lambda: (0, 0.0, 0.0), self.times())
        c = self.counters
        units = dict(PER_LAYER)
        vals = {f"{name}.s": t[name][2] for name in SPANS}
        vals.update({f"{name}.total_s": t[name][1] for name in TOTAL_TIME_SPANS})
        filter_s = vals["spectral.beta_filter_apply.s"]
        inserts = max(t["prompt.insert_prompt"][0], 1)
        vals.update(
            {
                "spectral.beta_filter_apply.calls": t["spectral.beta_filter_apply"][0],
                "spectral.beta_filter_apply.matvecs": c["filter.matvecs"],
                "spectral.beta_filter_apply.flops_computed": c["filter.flops"],
                "spectral.beta_filter_apply.bytes_computed": c["filter.bytes"],
                "spectral.beta_filter_apply.gflops_computed": c["filter.flops"] / filter_s / 1e9
                if filter_s > 0
                else 0.0,
                "graph.laplacian_from_edges.calls": t["graph.laplacian_from_edges"][0],
                "graph.laplacian_from_edges.edges": c["laplacian.edges"],
                # mean per inserted prompt graph (one per branch per build)
                "prompt.cross_edges": c["insert.cross"] / inserts,
                "prompt.inner_edges": c["insert.inner"] / inserts,
                "prompt.wiring_changed_frac": c["wiring.changed"] / max(c["wiring.compared"], 1),
                "nn.linear.calls": t["nn.linear.fwd"][0],
                "nn.adam.scalars": c["adam.scalars"],
                "pretrain.verify.calls": t["pretrain.verify"][0],
                "pretrain.epochs": c["pretrain.epochs"],
                "csbm.edges": c["csbm.edges"] / max(t["csbm.generate"][0], 1),
                "trace.overhead_s": overhead_s,
                "trace.overhead_frac": overhead_s / untraced_s if untraced_s > 0 else 0.0,
            }
        )
        return {name: (vals[name], units[name]) for name, _ in PER_LAYER}

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters)}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer):
    """Patch every binding in SPANS; returns a callable that restores them."""
    saved = []

    def patch(module, path, make):
        owner, attr = _resolve(module, path)
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def closure_result(name):
        # (value, vjp) results: time the returned vjp closure as well
        return lambda args, out: (out[0], tracer.wrap(name, out[1]))

    def counted(key, size):
        def after(args, out):
            tracer.counters[key] += size(args, out)
            return out

        return after

    def tune_reset(fn):
        def wrapper(*args, **kwargs):
            tracer._wiring_prev = None  # wiring is compared within one tune()
            return tracer.call("prompt.tune", fn, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def forward_hook(fn):
        def wrapper(g, frozen, state, branches, train):
            if train:
                tracer._wiring(branches)
            return fn(g, frozen, state, branches, train)

        return functools.wraps(fn)(wrapper)

    after = {
        "csbm.generate": counted("csbm.edges", lambda a, g: g.n_edges),
        "graph.laplacian_from_edges": counted("laplacian.edges", lambda a, out: np.asarray(a[0]).size // 2),
        "spectral.beta_filter_apply": tracer._filter_work,
        "pretrain.pretrain": counted("pretrain.epochs", lambda a, out: len(out[1])),
        "prompt.insert_prompt": tracer._prompt_work,
        "prompt.normalize_prompt": closure_result("prompt.normalize_prompt"),
        "nn.linear.fwd": closure_result("nn.linear.vjp"),
        "nn.discriminator": closure_result("nn.discriminator"),
        "nn.adam.step": counted("adam.scalars", lambda a, out: sum(p.value.size for p in a[0].params)),
    }
    try:
        for name, bindings in SPANS.items():
            for module, path in bindings:
                if name == "prompt.tune":
                    patch(module, path, tune_reset)
                else:
                    patch(module, path, lambda fn, n=name: tracer.wrap(n, fn, after.get(n)))
        # training-epoch edge sets, for wiring_changed_frac (no span)
        patch("hsgppt.prompt", "_forward", forward_hook)
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    while saved:
        owner, attr, orig = saved.pop()
        setattr(owner, attr, orig)
