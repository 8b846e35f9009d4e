"""Metrics against hand-counted oracles; pipeline plumbing on micro runs."""

import numpy as np
import pytest

import hsgppt.evaluate as evaluate
from hsgppt.csbm import CsbmParams, generate
from hsgppt.evaluate import (
    EvalReport,
    PipelineConfig,
    SeedResult,
    accuracy,
    f1_score,
    filter_sweep_study,
    macro_f1,
    run_ablation_study,
    run_inductive,
    run_transductive,
    split_50_20_30,
    sweep_table,
    train_linear_probe,
    weighted_f1,
)
from hsgppt.pretrain import PretrainConfig
from hsgppt.prompt import ABLATION_VARIANTS, TuneConfig


def micro_cfg(**kw):
    kw.setdefault("k_shots", 2)
    return PipelineConfig(
        pretrain=PretrainConfig(order=2, hidden_dim=8, epochs=4, patience=4),
        tune=TuneConfig(n_prompt=3, epochs=6, eval_every=3),
        **kw,
    )


def test_f1_hand_counted_case():
    pred = [0, 0, 1, 2]
    truth = [0, 1, 1, 1]
    mask = [0, 1, 2, 3]
    # class 0: tp=1 fp=1 fn=0 -> 2/3; class 1: tp=1 fp=0 fn=2 -> 1/2; class 2: 0
    assert macro_f1(pred, truth, 3, mask) == pytest.approx((2 / 3 + 0.5 + 0.0) / 3)
    # supports 1, 3, 0
    assert weighted_f1(pred, truth, 3, mask) == pytest.approx((2 / 3 * 1 + 0.5 * 3) / 4)


def test_macro_f1_counts_absent_classes_as_zero():
    pred = [0, 1, 0, 1]
    truth = [0, 1, 0, 1]
    assert macro_f1(pred, truth, 2, [0, 1, 2, 3]) == 1.0
    # same predictions under a 4-class space: two absent classes dilute
    assert macro_f1(pred, truth, 4, [0, 1, 2, 3]) == 0.5


def test_constant_predictor_balanced_two_class():
    n = 10
    pred = np.zeros(n, dtype=int)
    truth = np.array([0, 1] * 5)
    # class 0: f1 = 2/3, class 1: 0 -> macro 1/3
    assert macro_f1(pred, truth, 2, np.arange(n)) == pytest.approx(1 / 3)


def test_f1_respects_mask():
    pred = [0, 1, 1, 0]
    truth = [0, 0, 1, 1]
    assert macro_f1(pred, truth, 2, [0, 2]) == 1.0
    assert macro_f1(pred, truth, 2, [1, 3]) == 0.0
    with pytest.raises(ValueError, match="empty"):
        macro_f1(pred, truth, 2, [])


def test_f1_average_dispatch():
    pred, truth, mask = [0, 1], [0, 1], [0, 1]
    assert f1_score(pred, truth, 2, mask, "macro") == macro_f1(pred, truth, 2, mask)
    assert f1_score(pred, truth, 2, mask, "weighted") == weighted_f1(pred, truth, 2, mask)
    with pytest.raises(ValueError, match="average"):
        f1_score(pred, truth, 2, mask, "micro")


def test_accuracy_hand_case():
    assert accuracy([1, 0, 1], [1, 1, 1], [0, 1, 2]) == pytest.approx(2 / 3)
    assert accuracy([1, 0, 1], [1, 1, 1], [0]) == 1.0


def test_split_50_20_30_partitions():
    tr, va, te = split_50_20_30(10, seed=0)
    assert len(tr) == 5 and len(va) == 2 and len(te) == 3
    allidx = np.concatenate([tr, va, te])
    assert sorted(allidx.tolist()) == list(range(10))
    assert np.all(np.diff(tr) > 0)
    tr2, _, _ = split_50_20_30(10, seed=0)
    assert np.array_equal(tr, tr2)


def test_linear_probe_solves_separable_problem():
    rng = np.random.default_rng(0)
    n = 60
    labels = np.repeat([0, 1], n // 2)
    X = np.where(labels[:, None] == 1, 1.0, -1.0) + 0.05 * rng.standard_normal((n, 3))
    idx = split_50_20_30(n, seed=1)
    assert train_linear_probe(X, labels, 2, idx, seed=0) == 1.0


def test_pipeline_fingerprint_stability():
    a = micro_cfg().fingerprint(["g"])
    b = micro_cfg().fingerprint(["g"])
    c = micro_cfg().fingerprint(["other"])
    d = micro_cfg(k_shots=3).fingerprint(["g"])
    assert a == b
    assert len({a, c, d}) == 3


def test_run_transductive_report_shape_and_determinism():
    g = generate(CsbmParams(n=50, f=6, d_avg=5.0, h=0.3, mu=4.0, seed=0))
    cfg = micro_cfg()
    rep1 = run_transductive(g, cfg, seeds=[0, 1])
    rep2 = run_transductive(g, cfg, seeds=[0, 1])
    assert rep1.dataset == g.name and rep1.mode == "transductive"
    assert [r.seed for r in rep1.per_seed] == [0, 1]
    assert rep1.mean_f1 == pytest.approx(np.mean([r.f1 for r in rep1.per_seed]))
    assert rep1.std_f1 == pytest.approx(np.std([r.f1 for r in rep1.per_seed], ddof=1))
    assert rep1.to_json_dict() == rep2.to_json_dict()  # timings excluded
    assert "wall_clock" not in rep1.to_json_dict()
    assert set(rep1.wall_clock) == {"pretrain_seed_sum", "tune_seed_sum"}
    assert all(v > 0 for v in rep1.wall_clock.values())
    single = run_transductive(g, cfg, seeds=[0])
    assert single.std_f1 is None and single.std_accuracy is None
    assert single.per_seed[0].f1 == rep1.per_seed[0].f1


def test_run_transductive_workers_match_serial():
    g = generate(CsbmParams(n=40, f=4, d_avg=4.0, h=0.4, mu=4.0, seed=1))
    cfg = micro_cfg()
    serial = run_transductive(g, cfg, seeds=[0, 1], workers=1)
    fanned = run_transductive(g, cfg, seeds=[0, 1], workers=2)
    assert [vars(r) for r in serial.per_seed] == [vars(r) for r in fanned.per_seed]


def test_run_inductive_and_rank_bound():
    src = generate(CsbmParams(n=50, f=10, d_avg=5.0, h=0.7, mu=4.0, seed=0))
    tgt = generate(CsbmParams(n=40, f=8, d_avg=5.0, h=0.3, mu=4.0, seed=1))
    with pytest.raises(ValueError, match="rank bound"):
        run_inductive(src, tgt, micro_cfg(svd_dim=9), seeds=[0])
    rep = run_inductive(src, tgt, micro_cfg(svd_dim=6), seeds=[0])
    assert rep.mode == "inductive"
    assert rep.dataset == f"{src.name}->{tgt.name}"
    assert 0.0 <= rep.mean_f1 <= 1.0


def test_run_inductive_workers_match_serial():
    src = generate(CsbmParams(n=50, f=10, d_avg=5.0, h=0.7, mu=4.0, seed=0))
    tgt = generate(CsbmParams(n=40, f=8, d_avg=5.0, h=0.3, mu=4.0, seed=1))
    cfg = micro_cfg(svd_dim=6)
    serial = run_inductive(src, tgt, cfg, seeds=[0, 1], workers=1)
    fanned = run_inductive(src, tgt, cfg, seeds=[0, 1], workers=2)
    assert [vars(r) for r in serial.per_seed] == [vars(r) for r in fanned.per_seed]
    assert serial.to_json_dict() == fanned.to_json_dict()
    assert set(fanned.wall_clock) == {"pretrain_seed_sum", "tune_seed_sum"}


def test_ablation_rows_and_determinism():
    g = generate(CsbmParams(n=40, f=4, d_avg=4.0, h=0.3, mu=4.0, seed=2))
    cfg = micro_cfg()
    reports = run_ablation_study(g, cfg, seeds=[0, 1], variants=["full", "no_prompt"])
    assert list(reports) == ["full", "no_prompt"]
    for rep in reports.values():
        f1s = [s.f1 for s in rep.per_seed]
        assert len(f1s) == 2
        assert rep.mean_f1 == pytest.approx(np.mean(f1s))
        assert rep.std_f1 is not None
    again = run_ablation_study(g, cfg, seeds=[0, 1], variants=["full", "no_prompt"])
    assert [[s.f1 for s in rep.per_seed] for rep in again.values()] == [
        [s.f1 for s in rep.per_seed] for rep in reports.values()
    ]


def test_ablation_shares_backbones(monkeypatch):
    # only low_pass_only changes pre-training, so the five variants need two
    # backbones per seed: the full bank's and the low-pass kernel's
    g = generate(CsbmParams(n=40, f=4, d_avg=4.0, h=0.3, mu=4.0, seed=2))
    cfg = micro_cfg()
    calls, pretrain = [], evaluate.pretrain

    def counting(graph, pre_cfg):
        calls.append((pre_cfg.filters, pre_cfg.seed))
        return pretrain(graph, pre_cfg)

    monkeypatch.setattr(evaluate, "pretrain", counting)
    run_ablation_study(g, cfg, seeds=[0, 1], variants=ABLATION_VARIANTS)
    low_pass = ((0, cfg.pretrain.order),)
    assert calls == [(None, 0), (None, 1), (low_pass, 0), (low_pass, 1)]


def test_filter_sweep_cells_and_table():
    params = CsbmParams(n=80, f=8, d_avg=6.0, h=0.5, mu=8.0, seed=0)
    cells = filter_sweep_study([0.1, 0.9], seeds=[0], params=params)
    assert len(cells) == 2 * 1 * 3
    table = sweep_table(cells)
    assert set(table) == {(h, f) for h in (0.1, 0.9) for f in ("low", "mid", "high")}
    assert all(0.0 <= v <= 1.0 for v in table.values())


def test_report_text_format():
    rep = EvalReport(
        dataset="d",
        mode="transductive",
        seeds=[0],
        per_seed=[SeedResult(seed=0, accuracy=0.75, f1=0.5)],
        mean_accuracy=0.75,
        mean_f1=0.5,
        std_accuracy=None,
        std_f1=None,
        config_fingerprint="abc",
        wall_clock={"tune": 1.0},
    )
    text = rep.to_text()
    assert "0.7500" in text and "0.5000" in text
    assert "time" not in text  # wall-clock data stays out of the report
