"""Few-shot evaluation pipelines, metrics, and diagnostic studies."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .csbm import CsbmParams, generate
from .graph import Graph, kshot_split, laplacian, svd_reduce, with_features
from .nn import Adam, LinearLayer, softmax_cross_entropy
from .pretrain import PretrainConfig, derive_seed, freeze, pretrain
from .prompt import ABLATION_VARIANTS, TuneConfig, predict, tune, variant_configs
from .spectral import REFERENCE_FILTERS, bank_filter_apply


def accuracy(pred, truth, mask) -> float:
    idx = np.asarray(mask, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("empty mask")
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    return float(np.mean(pred[idx] == truth[idx]))


def _per_class_f1(pred, truth, n_classes, mask):
    idx = np.asarray(mask, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("empty mask")
    p = np.asarray(pred).ravel()[idx]
    t = np.asarray(truth).ravel()[idx]
    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes)
    for c in range(n_classes):
        tp = np.sum((p == c) & (t == c))
        fp = np.sum((p == c) & (t != c))
        fn = np.sum((p != c) & (t == c))
        support[c] = tp + fn
        denom = 2 * tp + fp + fn
        f1[c] = 2 * tp / denom if denom else 0.0
    return f1, support


def macro_f1(pred, truth, n_classes, mask) -> float:
    """Unweighted mean F1 over the whole label space.

    A class absent from both predictions and truth on the mask contributes
    an F1 of zero.
    """
    f1, _ = _per_class_f1(pred, truth, n_classes, mask)
    return float(f1.mean())


def weighted_f1(pred, truth, n_classes, mask) -> float:
    """Support-weighted mean F1 over classes present in the truth."""
    f1, support = _per_class_f1(pred, truth, n_classes, mask)
    total = support.sum()
    if total == 0:
        raise ValueError("no labeled nodes on the mask")
    return float((f1 * support).sum() / total)


def f1_score(pred, truth, n_classes, mask, average: str = "macro") -> float:
    if average == "macro":
        return macro_f1(pred, truth, n_classes, mask)
    if average == "weighted":
        return weighted_f1(pred, truth, n_classes, mask)
    raise ValueError(f"unknown F1 average: {average!r}")


@dataclass(frozen=True)
class PipelineConfig:
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    tune: TuneConfig = field(default_factory=TuneConfig)
    k_shots: int = 5
    f1_average: str = "macro"
    svd_dim: int = 128  # inductive mode only

    def __post_init__(self):
        if self.k_shots < 1:
            raise ValueError(f"k must be >= 1, not {self.k_shots}")

    def fingerprint(self, extra=()) -> str:
        blob = json.dumps([asdict(self), list(extra)], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class SeedResult:
    seed: int
    accuracy: float
    f1: float  # averaged as EvalReport.f1_average says


@dataclass
class EvalReport:
    dataset: str
    mode: str
    seeds: list
    per_seed: list  # SeedResult
    mean_accuracy: float
    mean_f1: float
    std_accuracy: float | None  # sample std, None below 2 seeds
    std_f1: float | None
    config_fingerprint: str
    f1_average: str = "macro"  # how each F1 averages its classes
    # seconds: "total" (set by the CLI) is the run's wall clock; each
    # "<phase>_seed_sum" is that phase's per-seed time summed over seeds
    wall_clock: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # wall_clock is left out so re-runs are bit-exact; each seed's F1 is
        # keyed by its average ("macro_f1")
        out = asdict(self)
        del out["wall_clock"]
        f1_key = f"{out.pop('f1_average')}_f1"
        for row in out["per_seed"]:
            row[f1_key] = row.pop("f1")
        return out

    def to_text(self) -> str:
        # wall_clock is left out so re-runs are bit-exact
        lines = [
            f"dataset            {self.dataset}",
            f"mode               {self.mode}",
            f"seeds              {', '.join(str(s) for s in self.seeds)}",
            f"{'seed':>6} {'accuracy':>10} {self.f1_average + '_f1':>10}",
        ]
        for r in self.per_seed:
            lines.append(f"{r.seed:>6} {r.accuracy:>10.4f} {r.f1:>10.4f}")
        std_a = f" +/- {self.std_accuracy:.4f}" if self.std_accuracy is not None else ""
        std_f = f" +/- {self.std_f1:.4f}" if self.std_f1 is not None else ""
        lines.append(f"{'mean':>6} {self.mean_accuracy:>10.4f}{std_a}")
        lines.append(f"{'':>6} {self.mean_f1:>10.4f}{std_f} ({self.f1_average} F1)")
        return "\n".join(lines) + "\n"


def _sample_std(values) -> float | None:
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1))


def _run_seed(g: Graph, cfg: PipelineConfig, seed: int, source=None, backbones=None):
    """One pretrain -> freeze -> split -> tune -> predict -> score round on g.

    The backbone is pre-trained on source (default g). backbones, a dict
    the caller keeps for one source, maps each seeded PretrainConfig to its
    frozen backbone: one found there is reused, one trained is added. Test
    labels are read only at scoring. Returns (SeedResult, {phase: seconds}).
    """
    timings = {}
    backbones = {} if backbones is None else backbones
    pre_cfg = replace(cfg.pretrain, seed=seed)
    if pre_cfg not in backbones:
        t0 = time.perf_counter()
        model, _ = pretrain(g if source is None else source, pre_cfg)
        backbones[pre_cfg] = freeze(model)
        timings["pretrain"] = time.perf_counter() - t0
    frozen = backbones[pre_cfg]
    split = kshot_split(g, cfg.k_shots, seed=seed)
    t0 = time.perf_counter()
    state, _ = tune(g, frozen, split, replace(cfg.tune, seed=seed))
    timings["tune"] = time.perf_counter() - t0
    probs = predict(g, frozen, state)
    pred = np.argmax(probs, axis=1)
    result = SeedResult(
        seed=seed,
        accuracy=accuracy(pred, g.labels, split.test_indices),
        f1=f1_score(pred, g.labels, g.n_classes, split.test_indices, cfg.f1_average),
    )
    return result, timings


def _report(name, mode, extra, g, cfg, seeds, workers, source=None, backbones=None) -> EvalReport:
    """_run_seed over seeds, aggregated, with each phase's time summed over
    seeds (as "<phase>_seed_sum").

    Seeds are independent, so workers > 1 fans them out to processes; the
    per-seed results are identical to a serial run, and the sums then add
    seconds spent in parallel, so they can exceed the run's wall clock.
    The serial path passes backbones on to each _run_seed.
    """
    # a shot count the classes cannot give fails here, before any
    # pre-training: class sizes do not depend on the seed, and a split draws
    # from its own seed, so this one changes no result
    kshot_split(g, cfg.k_shots, seed=0)
    if workers > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            futures = [pool.submit(_run_seed, g, cfg, seed, source) for seed in seeds]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = [_run_seed(g, cfg, seed, source, backbones) for seed in seeds]
    rows = [result for result, _ in outcomes]
    seconds = {"pretrain_seed_sum": 0.0, "tune_seed_sum": 0.0}
    for _, timings in outcomes:
        for phase, v in timings.items():
            seconds[f"{phase}_seed_sum"] += v
    accs = [r.accuracy for r in rows]
    f1s = [r.f1 for r in rows]
    return EvalReport(
        dataset=name,
        mode=mode,
        seeds=list(seeds),
        per_seed=rows,
        mean_accuracy=float(np.mean(accs)),
        mean_f1=float(np.mean(f1s)),
        std_accuracy=_sample_std(accs),
        std_f1=_sample_std(f1s),
        config_fingerprint=cfg.fingerprint(extra),
        f1_average=cfg.f1_average,
        wall_clock=seconds,
    )


def run_transductive(g: Graph, cfg: PipelineConfig, seeds, workers: int = 1) -> EvalReport:
    """Pre-train, freeze, K-shot split, tune, and score on one graph."""
    return _report(g.name, "transductive", [g.name], g, cfg, seeds, workers)


def run_inductive(
    source: Graph, target: Graph, cfg: PipelineConfig, seeds, workers: int = 1
) -> EvalReport:
    """Pre-train on one graph, prompt-tune on another.

    Both feature sets are SVD-reduced to the shared dimension independently
    so the frozen encoders transfer across differing vocabularies.
    """
    dim = cfg.svd_dim
    bound = min(source.n_nodes, source.feature_dim, target.n_nodes, target.feature_dim)
    if dim > bound:
        raise ValueError(f"shared dim {dim} exceeds rank bound {bound}")
    src = with_features(source, svd_reduce(source.features, dim))
    tgt = with_features(target, svd_reduce(target.features, dim))
    name = f"{source.name}->{target.name}"
    return _report(name, "inductive", [name, dim], tgt, cfg, seeds, workers, source=src)


# ---------------------------------------------------------------------------
# ablation study
# ---------------------------------------------------------------------------


def run_ablation_study(g: Graph, cfg: PipelineConfig, seeds, variants=None) -> dict:
    """{variant: EvalReport}, each variant run as eval --variant runs it;
    variants that pre-train alike share each seed's backbone."""
    backbones = {}
    reports = {}
    for variant in variants if variants is not None else ABLATION_VARIANTS:
        pre_cfg, tune_cfg = variant_configs(variant, cfg.pretrain, cfg.tune)
        variant_cfg = replace(cfg, pretrain=pre_cfg, tune=tune_cfg)
        reports[variant] = _report(
            g.name, "transductive", [g.name], g, variant_cfg, seeds, 1, backbones=backbones
        )
    return reports


# ---------------------------------------------------------------------------
# filter sweep
# ---------------------------------------------------------------------------


_PROBE_LR = 0.05
_PROBE_EPOCHS = 200


def train_linear_probe(X, labels, n_classes, split_idx, seed=0):
    """Logistic head on fixed features, trained 200 epochs by Adam at lr
    0.05; returns test macro F1 at best val F1."""
    train_idx, val_idx, test_idx = split_idx
    rng = np.random.default_rng(derive_seed(seed, 3))
    head = LinearLayer(X.shape[1], n_classes, rng, activation="identity", prefix="probe")
    opt = Adam(head.params(), lr=_PROBE_LR)
    best = (-1.0, None)
    for epoch in range(_PROBE_EPOCHS):
        logits, vjp = head.apply(X)
        _, dlogits = softmax_cross_entropy(logits, labels, train_idx)
        vjp(dlogits)
        opt.step()
        if (epoch + 1) % 10 == 0 or epoch == _PROBE_EPOCHS - 1:
            logits, _ = head.apply(X)
            pred = np.argmax(logits, axis=1)
            val = macro_f1(pred, labels, n_classes, val_idx)
            if val > best[0]:
                best = (val, [p.value.copy() for p in head.params()])
    for p, v in zip(head.params(), best[1]):
        p.value[...] = v
    logits, _ = head.apply(X)
    pred = np.argmax(logits, axis=1)
    return macro_f1(pred, labels, n_classes, test_idx)


def split_50_20_30(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    a = int(round(0.5 * n))
    b = int(round(0.7 * n))
    return np.sort(perm[:a]), np.sort(perm[a:b]), np.sort(perm[b:])


@dataclass
class SweepCell:
    h: float
    seed: int
    filter: str
    test_f1: float


def filter_sweep_study(h_values, seeds, params: CsbmParams | None = None) -> list:
    """Reference filters (low/mid/high) probed across a homophily sweep.

    For each generated graph, the reference filters' bank kernels are
    applied to the features by one power series in the normalized Laplacian
    (two sparse products), each view is scaled (REFERENCE_FILTERS), and a
    logistic head is trained on a 50/20/30 node split.
    """
    base = params if params is not None else CsbmParams()
    kernels = [kernel for kernel, _ in REFERENCE_FILTERS.values()]
    # every (h, seed) is checked before the first graph is generated
    grid = [replace(base, h=float(h), seed=seed) for h in h_values for seed in seeds]
    cells = []
    for p in grid:
        g = generate(p)
        views = bank_filter_apply(laplacian(g, "normalized"), kernels, g.features)
        split_idx = split_50_20_30(g.n_nodes, seed=derive_seed(p.seed, 4))
        for (which, (_, scale)), view in zip(REFERENCE_FILTERS.items(), views):
            score = train_linear_probe(scale * view, g.labels, 2, split_idx, seed=p.seed)
            cells.append(SweepCell(h=p.h, seed=p.seed, filter=which, test_f1=float(score)))
    return cells


def sweep_table(cells) -> dict:
    """mean test F1 keyed by (h, filter)."""
    acc = {}
    for c in cells:
        acc.setdefault((c.h, c.filter), []).append(c.test_f1)
    return {k: float(np.mean(v)) for k, v in acc.items()}
