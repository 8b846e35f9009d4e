"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Each test prints `criterion N <name>: PASS|FAIL (<measured detail>)` before
asserting, so the run log carries the full scorecard. Criterion 4 is expected
to fail: the monotone trend it checks is real but the demanded margin is far
above what these generator settings produce (see the assert message).
"""

import json
import time

import numpy as np
import pytest

from hsgppt import cli
from hsgppt.csbm import CsbmParams, generate
from hsgppt.evaluate import PipelineConfig, filter_sweep_study, run_ablation_study
from hsgppt.graph import Graph, edge_homophily, kshot_split, laplacian
from hsgppt.nn import NumericError, softmax_over_filters
from hsgppt.pretrain import (
    PretrainConfig,
    PretrainedModel,
    encode,
    freeze,
    pretrain,
)
from hsgppt.prompt import TuneConfig, init_state, normalize_prompt, prompted_encode, tune
from hsgppt.spectral import (
    FilterBank,
    beta_constant,
    beta_filter_apply,
    eigendecompose,
    energy_identity_check,
    filter_response,
    high_freq_profile,
)


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def random_labeled_graph(rng, n):
    full = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    m = int(rng.integers(n, full.shape[0] + 1))
    pick = rng.choice(full.shape[0], size=m, replace=False)
    edges = full[pick]
    labels = rng.integers(0, 2, size=n)
    while len(set(labels[edges].sum(axis=1).tolist())) < 2:  # need intra and inter
        labels = rng.integers(0, 2, size=n)
    return Graph(f"r{n}", edges, rng.standard_normal((n, 2)), labels=labels, n_classes=2)


def test_criterion_01_filter_closed_forms():
    exact = beta_constant(0, 2) == 1.5 and beta_constant(1, 1) == 3.0 and beta_constant(2, 0) == 1.5
    resp = (
        abs(filter_response((0, 2), 0.0) - 1.5) < 1e-12
        and abs(filter_response((1, 1), 1.0) - 0.75) < 1e-12
        and abs(filter_response((2, 0), 2.0) - 1.5) < 1e-12
    )
    ok = report(1, "filter closed forms", exact and resp,
                f"constants exact={exact}, responses within 1e-12={resp}")
    assert ok


def test_criterion_02_spectral_oracle_equivalence():
    rng = np.random.default_rng(2025)
    pairs = [(k, c - k) for c in range(4) for k in range(c + 1)]
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 101))
        g = random_labeled_graph(rng, n)
        L = laplacian(g, "normalized")
        decomp = eigendecompose(L)
        U = decomp.eigenvectors
        lam = np.clip(decomp.eigenvalues, 0.0, 2.0)
        X = rng.standard_normal((n, 3))
        for k, r in pairs:
            got = beta_filter_apply(L, k, r, X)
            want = U @ (np.asarray(filter_response((k, r), lam))[:, None] * (U.T @ X))
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = report(2, "polynomial filters match the eigenbasis oracle", worst < 1e-8,
                f"20 graphs, k+r <= 3, max abs diff {worst:.3e}")
    assert ok


def test_criterion_03_energy_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g = random_labeled_graph(rng, int(rng.integers(6, 51)))
        x = rng.standard_normal(g.n_nodes)
        worst = max(worst, energy_identity_check(g, x).abs_error)
    ok = report(3, "unnormalized Rayleigh quotient equals the homophily mixture",
                worst < 1e-9, f"100 graphs, max abs error {worst:.3e}")
    assert ok


def test_criterion_04_s_high_monotonicity_margin():
    h_levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    means = []
    for h in h_levels:
        vals = []
        for seed in range(3):
            g = generate(CsbmParams(n=3000, f=128, d_avg=50.0, h=h, mu=10.0, seed=seed))
            vals.append(float(np.nanmean(high_freq_profile(g, "normalized"))))
        means.append(float(np.mean(vals)))
    margins = [means[i] - means[i + 1] for i in range(len(means) - 1)]
    strict = all(m > 0 for m in margins)
    margin_ok = all(m >= 0.01 for m in margins)
    detail = (
        "mean S_high by h: "
        + ", ".join(f"{h:g}->{s:.5f}" for h, s in zip(h_levels, means))
        + "; adjacent margins "
        + ", ".join(f"{m:.5f}" for m in margins)
        + f"; strictly decreasing={strict}"
    )
    ok = report(4, "S_high decreasing in h with margin >= 0.01", strict and margin_ok, detail)
    assert ok, (
        "mean per-dimension S_high does decrease strictly in h (margins "
        f"{['%.5f' % m for m in margins]}), but the demanded 0.01 separation is about "
        "ten times larger than these generator settings can produce: the expected "
        "adjacent-level drop scales like 2*dh*(mu/n)*d/(d+1) ~ 0.0013 at "
        "mu=10, n=3000, d=50, and averaging seeds cannot raise a mean gap. "
        "Reaching 0.01 would need mu ~ 75 or n ~ 400, both fixed by the criterion. "
        "The trend itself is asserted green in "
        "test_s_high_strictly_decreasing_in_homophily."
    )


def test_s_high_strictly_decreasing_in_homophily():
    # the real, attainable form of criterion 4's trend at the pinned settings
    h_levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    means = []
    for h in h_levels:
        vals = [
            float(np.nanmean(high_freq_profile(
                generate(CsbmParams(n=3000, f=128, d_avg=50.0, h=h, mu=10.0, seed=seed)),
                "normalized")))
            for seed in range(3)
        ]
        means.append(float(np.mean(vals)))
    assert all(means[i] > means[i + 1] for i in range(len(means) - 1)), means


def test_criterion_05_csbm_calibration():
    max_h_err, max_d_err = 0.0, 0.0
    for h in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        g = generate(CsbmParams(n=3000, f=8, d_avg=50.0, h=h, mu=10.0, seed=0))
        max_h_err = max(max_h_err, abs(edge_homophily(g) - h))
        max_d_err = max(max_d_err, abs(2.0 * g.n_edges / g.n_nodes - 50.0))
    ok = report(5, "generator calibration", max_h_err < 0.02 and max_d_err < 2.0,
                f"max homophily error {max_h_err:.4f}, max mean-degree error {max_d_err:.3f}")
    assert ok


def test_criterion_06_filter_sweep_pattern():
    cells = filter_sweep_study([0.0, 1.0], seeds=[0, 1, 2])
    ok = True
    details = []
    for seed in (0, 1, 2):
        by = {(c.h, c.filter): c.test_f1 for c in cells if c.seed == seed}
        best_at_1 = max(("low", "mid", "high"), key=lambda f: by[(1.0, f)])
        best_at_0 = max(("low", "mid", "high"), key=lambda f: by[(0.0, f)])
        ok = ok and best_at_1 == "low" and best_at_0 == "high"
        details.append(f"seed {seed}: h=1.0 best {best_at_1}, h=0.0 best {best_at_0}")
    ok = report(6, "reference-filter sweep pattern", ok, "; ".join(details))
    assert ok


def test_criterion_07_gradient_correctness():
    worst = 0.0
    parts = []
    for label, rep in cli.gradient_check_reports(seed=0):
        worst = max(worst, rep.max_rel_error)
        parts.append(f"{label} {rep.max_rel_error:.3e}")
    ok = report(7, "finite-difference gradient checks", worst < 1e-4, "; ".join(parts))
    assert ok


def test_criterion_08_frozen_backbone_contract():
    g = generate(CsbmParams(n=80, f=8, d_avg=6.0, h=0.3, mu=4.0, seed=0))
    model, _ = pretrain(g, PretrainConfig(order=2, hidden_dim=8, epochs=10, patience=10, seed=0))
    frozen = freeze(model)
    before = frozen.content_hash
    split = kshot_split(g, 3, seed=0)
    tune(g, frozen, split, TuneConfig(n_prompt=4, epochs=20, eval_every=5, seed=0))
    unchanged = frozen.rehash() == before
    # the violation path must be a hard failure
    p = frozen.model.mix
    p.value.setflags(write=True)
    p.value[0, 0] += 1.0
    with pytest.raises(NumericError):
        frozen.verify()
    p.value[0, 0] -= 1.0
    p.value.setflags(write=False)
    ok = report(8, "frozen backbone hash across a tune run", unchanged,
                f"sha256 {before[:12]} unchanged={unchanged}, tampering raises")
    assert ok


def test_criterion_09_normalization_and_integration_invariants():
    rng = np.random.default_rng(0)
    sums_err = 0.0
    for _ in range(10):
        a = softmax_over_filters(rng.standard_normal((3, 64)) * 100.0)
        sums_err = max(sums_err, float(np.max(np.abs(a.sum(axis=0) - 1.0))))

    P = rng.standard_normal((10, 6)) * 4.0 + 1.0
    mu_o, sigma_o = rng.standard_normal(6), rng.random(6) + 0.5
    once, _ = normalize_prompt(P, mu_o, sigma_o)
    twice, _ = normalize_prompt(once, mu_o, sigma_o)
    idem_err = float(np.max(np.abs(twice - once)))

    g = generate(CsbmParams(n=40, f=6, d_avg=5.0, h=0.3, mu=4.0, seed=0))
    frozen = freeze(PretrainedModel(FilterBank.full(2), 6, 8, seed=0))
    state = init_state(g, frozen, TuneConfig(n_prompt=0, seed=0), n_classes=2)
    empty_err = float(np.max(np.abs(
        prompted_encode(g, frozen, state) - encode(g, frozen.model).integrated
    )))

    ok = report(
        9, "normalization and integration invariants",
        sums_err < 1e-12 and idem_err < 1e-10 and empty_err < 1e-12,
        f"softmax col-sum err {sums_err:.2e}, idempotence err {idem_err:.2e}, "
        f"empty-prompt err {empty_err:.2e}",
    )
    assert ok


def test_criterion_10_directional_ablation():
    g = generate(CsbmParams(n=1000, f=128, d_avg=50.0, h=0.2, mu=10.0, seed=0))
    cfg = PipelineConfig(
        pretrain=PretrainConfig(epochs=500, patience=50),
        tune=TuneConfig(epochs=400, eval_every=25),
        k_shots=5,
    )
    reports = run_ablation_study(
        g, cfg, seeds=[0, 1, 2, 3, 4],
        variants=["full", "low_pass_only", "single_prompt", "no_prompt"],
    )
    mean = {variant: rep.mean_f1 for variant, rep in reports.items()}
    gaps = {
        "full-single_prompt": mean["full"] - mean["single_prompt"],
        "single_prompt-no_prompt": mean["single_prompt"] - mean["no_prompt"],
        "full-low_pass_only": mean["full"] - mean["low_pass_only"],
    }
    ok_flag = all(v >= -0.01 for v in gaps.values())
    detail = (
        ", ".join(f"{variant} {rep.mean_f1:.4f}" for variant, rep in reports.items())
        + "; gaps "
        + ", ".join(f"{k} {v:+.4f}" for k, v in gaps.items())
    )
    ok = report(10, "directional ablation ordering", ok_flag, detail)
    for variant, rep in reports.items():
        print(f"    {variant}: per-seed {[round(s.f1, 4) for s in rep.per_seed]}")
    assert ok


def test_criterion_11_determinism(tmp_path, capsys):
    def run_twice(name, argv, out):
        rc = cli.main([str(a) for a in argv])
        assert rc == 0, name
        first_out = capsys.readouterr().out
        first = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "timings.json"  # timing telemetry is advisory
        } if out is not None else {}
        rc = cli.main([str(a) for a in argv])
        assert rc == 0, name
        second_out = capsys.readouterr().out
        second = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "timings.json"
        } if out is not None else {}
        same = first == second and first_out == second_out
        return name, same

    data = tmp_path / "data"
    pre = tmp_path / "pre"
    checks = []
    checks.append(run_twice(
        "gen-csbm",
        ["gen-csbm", "--n", 40, "--f", 6, "--d", 5, "--h", 0.3, "--mu", 4, "--out", data],
        data))
    checks.append(run_twice(
        "analyze", ["analyze", "--data", data, "--out", tmp_path / "an"], tmp_path / "an"))
    checks.append(run_twice(
        "pretrain",
        ["pretrain", "--data", data, "--out", pre, "--hidden", 8, "--epochs", 4,
         "--patience", 4],
        pre))
    checks.append(run_twice(
        "tune",
        ["tune", "--data", data, "--ckpt", pre / "model.ckpt", "--out", tmp_path / "tu",
         "--k", 2, "--n-prompt", 3, "--epochs", 4, "--eval-every", 2],
        tmp_path / "tu"))
    checks.append(run_twice(
        "eval",
        ["eval", "--mode", "transductive", "--data", data, "--out", tmp_path / "ev",
         "--seeds", "0,1", "--k", 2, "--hidden", 8, "--pretrain-epochs", 3,
         "--patience", 3, "--tune-epochs", 3, "--eval-every", 3, "--n-prompt", 3],
        tmp_path / "ev"))
    checks.append(run_twice(
        "sweep",
        ["sweep", "--out", tmp_path / "sw", "--h-values", "0.1,0.9", "--seeds", "0",
         "--n", 80, "--f", 8, "--d", 6, "--mu", 8],
        tmp_path / "sw"))
    checks.append(run_twice(
        "ablate",
        ["ablate", "--data", data, "--out", tmp_path / "ab", "--seeds", "0", "--k", 2,
         "--hidden", 8, "--pretrain-epochs", 3, "--patience", 3, "--tune-epochs", 3,
         "--eval-every", 3, "--n-prompt", 3],
        tmp_path / "ab"))
    checks.append(run_twice("gradcheck", ["gradcheck", "--tol", "1e-4"], None))

    bad = [name for name, same in checks if not same]
    ok = report(11, "bit-exact re-runs for every subcommand", not bad,
                f"{len(checks)} subcommands, mismatches: {bad or 'none'}")
    assert ok


def test_criterion_12_performance_budget():
    g = generate(CsbmParams(n=5000, f=128, d_avg=40.0, h=0.2, mu=10.0, seed=0))
    frozen = freeze(PretrainedModel(FilterBank.full(2), 128, 64, seed=0))
    backbone = sum(p.value.size for p in frozen.model.params())
    state = init_state(g, frozen, TuneConfig(n_prompt=10, seed=0), n_classes=2)
    per_prompt = state.prompts[0].value.size
    all_tunable = sum(p.value.size for p in state.tunable_params())
    ratio_prompt = per_prompt / backbone
    ratio_all = all_tunable / backbone

    split = kshot_split(g, 5, seed=0)

    def timed(epochs):
        t0 = time.perf_counter()
        tune(g, frozen, split, TuneConfig(n_prompt=10, epochs=epochs, eval_every=10_000, seed=0))
        return time.perf_counter() - t0

    t_short = timed(3)
    t_long = timed(11)
    per_epoch = (t_long - t_short) / 8.0  # init, hashing, final eval cancel

    ok_flag = ratio_prompt < 0.05 and per_epoch < 0.250
    detail = (
        f"{g.n_nodes} nodes, {g.n_edges} edges; prompt graph {per_prompt}/{backbone} "
        f"= {100 * ratio_prompt:.2f}% (all tunables incl. head: {all_tunable} "
        f"= {100 * ratio_all:.2f}%); tuning epoch {1000 * per_epoch:.0f} ms"
    )
    ok = report(12, "prompt overhead and epoch budget", ok_flag, detail)
    assert ok
