"""Tests of the benchmark itself, on graphs small enough to run in seconds.

    python -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

HS = harness.load_hsgppt(ROOT)
TINY = harness.Workload(
    "tiny",
    n=200,
    h=0.2,
    tune_epochs=(1, 3),
    pretrain_epochs=(1, 2),
    eval_seeds=2,
    d_avg=10.0,
    f=16,
    hidden=8,
    n_prompt=3,
    k_shots=2,
    setups=2,
)


def _traced(tmp_path, wl=TINY):
    bench = harness.Bench(HS, wl, seed=3, workdir=tmp_path)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        bench.setup_once()
        bench.round()
    finally:
        restore()
    return bench, tracer, tracer.per_layer(0.0, 1.0)


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    bench = harness.Bench(HS, TINY, seed=3, workdir=tmp_path)
    bench.setup()
    bench.measure(0)
    metrics = bench.end_to_end()
    assert bench.correct, bench.errors
    assert bench.attempted > 0 and bench.failed == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == spec
    # epoch-time differences can be noise-negative at this size; only finite
    assert all(v is not None and math.isfinite(v) for v, _ in metrics.values())


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    _, _, metrics = _traced(tmp_path)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == spec


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_every_declared_span_fires(tmp_path):
    _, tracer, _ = _traced(tmp_path)
    calls = {name: n for name, (n, _, _) in tracer.times().items()}
    silent = [name for name in tracing.SPANS if not calls.get(name)]
    assert silent == []
    assert tracer.counters["wiring.compared"] > 0


def test_originals_restored_and_outputs_unchanged_by_tracing(tmp_path):
    bindings = [mp for b in tracing.SPANS.values() for mp in b] + [("hsgppt.prompt", "_forward")]
    before = {(m, p): tracing._resolve(m, p) for m, p in bindings}
    originals = {k: owner.__dict__[attr] for k, (owner, attr) in before.items()}
    bench, _, _ = _traced(tmp_path)
    for (owner, attr), orig in zip(before.values(), originals.values()):
        assert owner.__dict__[attr] is orig
    traced_hashes = dict(bench.hashes)
    bench.round()  # untraced: every output hash must repeat
    assert bench.correct, bench.errors
    assert bench.hashes == traced_hashes


def test_deterministic_counters_repeat_exactly(tmp_path):
    deterministic = [
        "spectral.beta_filter_apply.calls",
        "spectral.beta_filter_apply.matvecs",
        "spectral.beta_filter_apply.flops_computed",
        "spectral.beta_filter_apply.bytes_computed",
        "graph.laplacian_from_edges.edges",
        "prompt.cross_edges",
        "prompt.inner_edges",
        "prompt.wiring_changed_frac",
        "nn.linear.calls",
        "nn.adam.scalars",
        "pretrain.epochs",
        "csbm.edges",
    ]
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        bench, _, metrics = _traced(tmp_path / sub)
        runs.append(({k: metrics[k][0] for k in deterministic}, bench.f1))
    assert runs[0] == runs[1]
    assert runs[0][0]["spectral.beta_filter_apply.matvecs"] > 0


def test_wiring_fixed_when_every_pair_is_wired(tmp_path):
    # tau_cross 0.40 sits below every sigmoid score at these sizes: the
    # heterophilic regime, where the edge set never changes
    _, _, metrics = _traced(tmp_path, replace(TINY, n=400, f=128))
    assert metrics["prompt.cross_edges"][0] == 3 * 400
    assert metrics["prompt.wiring_changed_frac"][0] == 0.0


def test_failed_operation_is_counted_not_fatal(tmp_path, monkeypatch):
    bench = harness.Bench(HS, TINY, seed=3, workdir=tmp_path)
    bench.setup_once()

    def broken(*args, **kwargs):
        raise HS.nn.NumericError("non-finite tuning loss at epoch 0")

    monkeypatch.setattr(HS.prompt, "tune", broken)
    bench.round()
    bench.round(1)
    assert not bench.correct
    assert (bench.attempted, bench.failed) == (4, 2)  # pretrain, then the failing tune
    assert not bench.samples  # no timing comes from a round that failed


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "tune-hetero", "--seed", "0", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_summary_tail_needs_ten_samples_beyond():
    assert harness.summarize([1.0] * 19)["tail"] is None
    s = harness.summarize(list(range(100)))
    assert (s["tail_pct"], s["n"]) == (90, 100)
    assert harness.summarize(list(range(20)))["tail_pct"] == 50


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workloads_valid(name):
    wl = harness.WORKLOADS[name]
    HS.csbm.CsbmParams(n=wl.n, f=wl.f, d_avg=wl.d_avg, h=wl.h, mu=wl.mu)  # validates
    assert wl.tune_epochs[0] < wl.tune_epochs[1]
    assert wl.pretrain_epochs[0] < wl.pretrain_epochs[1]
    # the eval seed's tune must validate only after its last epoch, like the
    # validation-off short call, or the pair's difference counts a val pass
    assert wl.tune_epochs[1] <= HS.prompt.TuneConfig().eval_every
