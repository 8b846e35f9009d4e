"""Contrastive pre-training: loss oracle, loop behavior, persistence."""

import importlib
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, softmax

from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import DatasetError, corrupt_features, laplacian
from hsgppt.nn import (
    NumericError,
    bce_pair_loss,
    finite_diff_check,
    pack_arrays,
    softmax_over_filters,
    softmax_over_filters_vjp,
)
from hsgppt.pretrain import (
    CHECKPOINT_MAGIC,
    FrozenModel,
    PretrainConfig,
    PretrainedModel,
    content_hash,
    contrastive_loss_fn,
    derive_seed,
    encode,
    freeze,
    load_model,
    model_bytes,
    model_from_bytes,
    pretrain,
)
from hsgppt.spectral import FilterBank, beta_constant, beta_filter_apply


def small_graph(seed=0, n=14, f=4):
    return generate(CsbmParams(n=n, f=f, d_avg=4.0, h=0.3, mu=4.0, seed=seed))


def pretrain_loss(model, g, corrupted):
    """The contrastive loss for one corruption (its grads accumulate too)."""
    return contrastive_loss_fn(model, g, corrupted)()


def dense_filter(L, k, r):
    Ld = np.asarray(L.todense())
    n = Ld.shape[0]
    A = np.linalg.matrix_power(Ld / 2.0, k)
    B = np.linalg.matrix_power(np.eye(n) - Ld / 2.0, r)
    return beta_constant(k, r) * (A @ B)


def oracle_loss(model, g, corrupted):
    """Explicit double-sum re-implementation with dense filters."""
    L = laplacian(g, "normalized")
    mats = [dense_filter(L, k, r) for k, r in model.bank.filters]
    Wd = model.discriminator.weight.value

    def encode_views(X):
        out = []
        for M, enc in zip(mats, model.encoders):
            s = (M @ X) @ enc.weight.value + enc.bias.value
            a = float(enc.alpha.value)
            out.append(np.where(s < 0, a * s, s))
        return out

    z_pos = encode_views(g.features)
    z_neg = encode_views(corrupted)
    w = softmax(model.mix.value, axis=0)
    integrated = sum(w[i][None, :] * z_pos[i] for i in range(len(z_pos)))
    s = integrated.mean(axis=0)

    total, m = 0.0, len(mats) * g.n_nodes
    for k in range(len(mats)):
        for i in range(g.n_nodes):
            p = expit(z_pos[k][i] @ Wd @ s)
            q = expit(z_neg[k][i] @ Wd @ s)
            total += -(np.log(p) + np.log(1.0 - q))
    return total / m


def test_loss_matches_explicit_double_sum_oracle():
    g = small_graph()
    model = PretrainedModel(FilterBank.full(2), g.feature_dim, 8, seed=3)
    # move off the uniform-mix init so the softmax path is exercised
    model.mix.value[:] = np.random.default_rng(0).standard_normal(model.mix.value.shape)
    corrupted = corrupt_features(g, seed=5)
    got = pretrain_loss(model, g, corrupted)
    want = oracle_loss(model, g, corrupted)
    assert got == pytest.approx(want, rel=1e-10)


def reference_forward_scores(model, filtered_pos, filtered_neg):
    """Oracle: pre-training's forward and backward with every branch alive.

    All 2C encoder outputs and all 2C discriminator gradients exist at once,
    and every gradient accumulates in the order p0, n0, p1, n1, ...
    """
    n = filtered_pos[0].shape[0]
    n_filters = model.bank.size
    m_pairs = n_filters * n

    pos_out, neg_out = [], []
    for enc, hp, hn in zip(model.encoders, filtered_pos, filtered_neg):
        pos_out.append(enc.apply(hp))
        neg_out.append(enc.apply(hn))
    weights = softmax_over_filters(model.mix.value)
    integrated = np.zeros_like(pos_out[0][0])
    for a_k, (z_k, _) in zip(weights, pos_out):
        integrated += a_k[None, :] * z_k
    summary = integrated.mean(axis=0)

    score_vjps = []
    pos_scores, neg_scores = [], []
    for (zp, _), (zn, _) in zip(pos_out, neg_out):
        sp_, vjp_p = model.discriminator.apply(zp, summary)
        sn_, vjp_n = model.discriminator.apply(zn, summary)
        pos_scores.append(sp_)
        neg_scores.append(sn_)
        score_vjps.append((vjp_p, vjp_n))
    loss = bce_pair_loss(np.concatenate(pos_scores), np.concatenate(neg_scores))

    dsummary = np.zeros_like(summary)
    dz_pos = [None] * n_filters
    dz_neg = [None] * n_filters
    for i, ((vjp_p, vjp_n), sp_, sn_) in enumerate(zip(score_vjps, pos_scores, neg_scores)):
        ws, ds = vjp_p((sp_ - 1.0) / m_pairs)
        dz_pos[i] = np.outer((sp_ - 1.0) / m_pairs, ws)
        dsummary += ds
        ws, ds = vjp_n(sn_ / m_pairs)
        dz_neg[i] = np.outer(sn_ / m_pairs, ws)
        dsummary += ds

    dintegrated = np.broadcast_to(dsummary / n, integrated.shape)
    dweights = np.empty_like(weights)
    for i, (z_k, _) in enumerate(pos_out):
        dweights[i] = np.einsum("ij,ij->j", dintegrated, z_k)
        dz_pos[i] = dz_pos[i] + weights[i][None, :] * dintegrated
    model.mix.grad += softmax_over_filters_vjp(weights, dweights)
    for (_, vjp_p), (_, vjp_n), dp, dn in zip(pos_out, neg_out, dz_pos, dz_neg):
        vjp_p(dp, project=False)
        vjp_n(dn, project=False)
    return loss


@pytest.mark.parametrize("bank", [FilterBank.full(2), FilterBank.full(3), FilterBank(((2, 1), (0, 3)))])
def test_loss_and_grads_equal_the_reference_bit_for_bit(bank):
    g = small_graph(n=90, f=12)
    model = PretrainedModel(bank, g.feature_dim, 16, seed=7)
    model.mix.value[:] = np.random.default_rng(1).standard_normal(model.mix.value.shape)
    corrupted = corrupt_features(g, seed=2)
    L = laplacian(g, "normalized")
    pos = [beta_filter_apply(L, k, r, g.features) for k, r in bank.filters]
    neg = [beta_filter_apply(L, k, r, corrupted) for k, r in bank.filters]
    params = model.params()
    for p in params:
        p.zero_grad()
    want = reference_forward_scores(model, pos, neg)
    want_grads = [p.grad.copy() for p in params]

    got = contrastive_loss_fn(model, g, corrupted)()
    assert got == want
    for p, w in zip(params, want_grads):
        assert np.array_equal(p.grad, w), p.name


# content_hash and loss history (float.hex) of pretrain(order 2, hidden 64,
# 3 epochs, seed 0) on each benchmark graph. Recorded again when pretrain
# began pinning OpenBLAS to 1 thread. The encoder weight gradient x.T @ ds
# reduces over n in an order set by the BLAS thread count, so the earlier
# hashes held only at 2 threads. These are the hashes the unpinned code gave
# under OPENBLAS_NUM_THREADS=1; the loss histories did not move.
PINNED_PRETRAIN = {
    "csbm_n5000_h0.2_seed0": (
        "251eb7a93ae546958f0969597ff5f4acb81a6515324301f00b1c2b0b249026a7",
        ["0x1.62e44a4bbf497p+0", "0x1.62e3d956027e5p+0", "0x1.62e37ce5b2518p+0"],
    ),
    "csbm_n5000_h0.8_seed0": (
        "e23d3c150aa8f195ec5ca491fcc7bf3d42b402f1c1623bfc7d85afd551628698",
        ["0x1.62e4883abe9dbp+0", "0x1.62e3ec23c1f5fp+0", "0x1.62e40618eea60p+0"],
    ),
}


def test_pretrain_on_benchmark_graphs_matches_pinned_bits(benchmark_graph):
    g = benchmark_graph
    cfg = PretrainConfig(order=2, hidden_dim=64, epochs=3, patience=3, seed=0)
    model, hist = pretrain(g, cfg)
    want_hash, want_hist = PINNED_PRETRAIN[g.name]
    assert [x.hex() for x in hist] == want_hist
    assert content_hash(model) == want_hash


_PINNED_RUN = """
import json
from hsgppt.csbm import CsbmParams, generate
from hsgppt.pretrain import PretrainConfig, content_hash, pretrain
g = generate(CsbmParams(n=5000, f=128, d_avg=40.0, h=0.2, mu=10.0, seed=0))
model, hist = pretrain(g, PretrainConfig(order=2, hidden_dim=64, epochs=3, patience=3, seed=0))
print(json.dumps([content_hash(model), [x.hex() for x in hist]]))
"""


def test_pretrain_bits_do_not_depend_on_blas_threads(run_at_blas_threads):
    # x.T @ ds gives different bits at 1 and 2 threads on the n=5000 graph;
    # pretrain runs BLAS on 1 thread whatever the environment says, so both
    # processes give the pinned checkpoint.
    runs = [run_at_blas_threads(_PINNED_RUN, threads) for threads in (1, 2)]
    want_hash, want_hist = PINNED_PRETRAIN["csbm_n5000_h0.2_seed0"]
    assert runs == [[want_hash, want_hist]] * 2


class WorkerFailure(Exception):
    pass


def _nan_loss(*args):
    return float("nan")


@pytest.mark.parametrize("ending", ["early_stop", "numeric_error", "worker_raises"])
def test_pretrain_ends_its_worker_and_restores_blas_threads(monkeypatch, ending):
    pre = importlib.import_module("hsgppt.pretrain")
    control = pre._blas_thread_control()
    get, set_ = control if control is not None else (lambda: None, lambda count: None)
    before = get()
    set_(2)  # not the pinned count, so a pin left in place shows
    seen = []  # (thread, BLAS threads) of each corruption drawn

    def corrupt(g, seed):
        seen.append((threading.get_ident(), get()))
        if ending == "worker_raises" and len(seen) == 2:
            raise WorkerFailure("epoch 1's negatives")
        return corrupt_features(g, seed)

    monkeypatch.setattr(pre, "corrupt_features", corrupt)
    if ending == "numeric_error":
        monkeypatch.setattr(pre, "bce_pair_loss", _nan_loss)
    g = small_graph(n=30)
    cfg = PretrainConfig(order=1, hidden_dim=4, epochs=50, patience=0 if ending == "early_stop" else 50)
    threads = threading.active_count()
    try:
        if ending == "early_stop":
            _, hist = pretrain(g, cfg)
            assert len(hist) == 1
        else:
            with pytest.raises({"numeric_error": NumericError, "worker_raises": WorkerFailure}[ending]):
                pretrain(g, cfg)
        blas_after = get()
    finally:
        set_(before)
    # epoch 1's negatives were drawn on the worker thread while epoch 0 ran
    assert len(seen) == 2 and seen[1][0] != threading.get_ident()
    assert threading.active_count() == threads
    if control is not None:
        assert [b for _, b in seen] == [1, 1] and blas_after == 2


def test_pretrain_traced_peak_holds_one_negative_branch():
    # bound: the 2C filtered views (positive and negative), the positive
    # branch's 2C activations (pre- and post-PReLU), and ten more n x hidden
    # arrays for one negative branch, its gradients and L. Keeping every
    # branch and gradient alive at once needs ~18 more.
    n, f, hidden, order = 2000, 32, 64, 2
    g = generate(CsbmParams(n=n, f=f, d_avg=20.0, h=0.7, mu=4.0, seed=1))
    n_filters = order + 1
    bound = 8 * (2 * n_filters * n * f + (2 * n_filters + 10) * n * hidden)
    tracemalloc.start()
    try:
        pretrain(g, PretrainConfig(order=order, hidden_dim=hidden, epochs=3, patience=3, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"traced peak {peak} B over the {bound} B bound"


def test_untrained_loss_near_two_log_two():
    g = small_graph(n=200, f=16)
    model = PretrainedModel(FilterBank.full(2), g.feature_dim, 32, seed=0)
    loss = pretrain_loss(model, g, corrupt_features(g, seed=1))
    assert abs(loss - 2 * np.log(2)) < 0.02


def test_loss_gradients_pass_finite_difference():
    g = small_graph(n=12)
    model = PretrainedModel(FilterBank.full(2), g.feature_dim, 8, seed=0)
    loss_fn = contrastive_loss_fn(model, g, corrupt_features(g, seed=1))
    rep = finite_diff_check(loss_fn, model.params(), seed=0)
    assert rep.max_rel_error < 1e-4, [(e.name, e.max_rel_error) for e in rep.entries]


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(3, 1, 7) == derive_seed(3, 1, 7)
    seen = {derive_seed(0, 1, e) for e in range(100)}
    assert len(seen) == 100
    assert derive_seed(1, 0) != derive_seed(0, 1)


def test_config_bank_default_and_override():
    assert PretrainConfig(order=2).bank().filters == ((0, 2), (1, 1), (2, 0))
    assert PretrainConfig(filters=((0, 2),)).bank().filters == ((0, 2),)
    with pytest.raises(ValueError, match="order >= 0"):
        PretrainConfig(order=-1)
    # the bank, not the config, checks the kernels: the low-pass end alone of
    # an order whose full bank overflows (FilterBank.full(1021)) is a bank
    assert PretrainConfig(order=1021, filters=((0, 1021),)).bank().size == 1


def test_parameter_count():
    model = PretrainedModel(FilterBank.full(2), 4, 8, seed=0)
    # 3 encoders (4*8 + 8 + 1), mix 3*8, discriminator 8*8
    assert sum(p.value.size for p in model.params()) == 3 * 41 + 24 + 64


def test_pretrain_reduces_loss_and_is_deterministic():
    g = small_graph(n=60, f=8)
    cfg = PretrainConfig(order=2, hidden_dim=8, lr=5e-3, epochs=40, patience=40, seed=2)
    model_a, hist_a = pretrain(g, cfg)
    model_b, hist_b = pretrain(g, cfg)
    assert hist_a == hist_b
    assert model_bytes(model_a) == model_bytes(model_b)
    assert min(hist_a) < hist_a[0]
    assert len(hist_a) <= 40


def test_pretrain_bit_identical_to_per_filter_views(monkeypatch):
    g = small_graph(n=80, f=8)
    for cfg in (
        PretrainConfig(order=3, hidden_dim=8, lr=5e-3, epochs=6, patience=6, seed=4),
        PretrainConfig(filters=((2, 1), (0, 3)), hidden_dim=8, lr=5e-3, epochs=6, seed=4),
    ):
        shared, hist_shared = pretrain(g, cfg)
        with monkeypatch.context() as m:
            m.setattr(
                importlib.import_module("hsgppt.pretrain"),
                "filtered_views",
                lambda L, bank, x, overwrite_x=False: [
                    beta_filter_apply(L, k, r, x) for k, r in bank.filters
                ],
            )
            alone, hist_alone = pretrain(g, cfg)
        assert hist_shared == hist_alone
        assert content_hash(shared) == content_hash(alone)


def test_pretrain_restores_best_epoch_parameters():
    g = small_graph(n=40, f=8)
    cfg = PretrainConfig(order=2, hidden_dim=8, lr=5e-3, epochs=25, patience=25, seed=1)
    model, hist = pretrain(g, cfg)
    best_epoch = int(np.argmin(hist))
    # re-compute the loss with the best epoch's corruption on the returned model
    corrupted = corrupt_features(g, seed=derive_seed(cfg.seed, 1, best_epoch))
    assert pretrain_loss(model, g, corrupted) == pytest.approx(min(hist), rel=1e-12)


def test_patience_zero_stops_immediately():
    g = small_graph(n=30)
    _, hist = pretrain(g, PretrainConfig(order=1, hidden_dim=4, epochs=50, patience=0, seed=0))
    assert len(hist) == 1


def test_encode_summary_is_mean_of_integration():
    g = small_graph()
    model = PretrainedModel(FilterBank.full(2), g.feature_dim, 8, seed=0)
    enc = encode(g, model)
    assert len(enc.per_filter) == 3
    assert enc.integrated.shape == (g.n_nodes, 8)
    assert np.allclose(enc.summary, enc.integrated.mean(axis=0), atol=0)
    # zero-init mix means exactly uniform integration
    assert np.allclose(enc.integrated, sum(enc.per_filter) / 3.0, atol=1e-15)


def test_save_load_round_trip(tmp_path):
    g = small_graph()
    model, _ = pretrain(g, PretrainConfig(order=2, hidden_dim=8, epochs=3, seed=0))
    path = tmp_path / "model.ckpt"
    path.write_bytes(model_bytes(model))
    loaded = load_model(path)
    assert model_bytes(loaded) == model_bytes(model)
    assert loaded.bank.filters == model.bank.filters
    a = encode(g, model).integrated
    b = encode(g, loaded).integrated
    assert a.tobytes() == b.tobytes()


def test_model_from_bytes_rejects_corruption():
    model = PretrainedModel(FilterBank.full(1), 3, 4, seed=0)
    blob = model_bytes(model)
    with pytest.raises(ValueError, match="magic"):
        model_from_bytes(b"X" * len(blob))


def test_load_model_damaged_checkpoint_is_data_error(tmp_path):
    model = PretrainedModel(FilterBank.full(1), 3, 4, seed=0)
    blob = model_bytes(model)
    path = tmp_path / "model.ckpt"
    short_header = pack_arrays(CHECKPOINT_MAGIC, [3, 4], [])
    # kernels (510, 511) and (511, 510), whose constants exceed float64
    unusable_bank = pack_arrays(CHECKPOINT_MAGIC, [3, 4, 2, 510, 511, 511, 510],
                                [(p.name, p.value) for p in model.params()])
    for damaged in (blob[:20], blob[:-1], blob + b"\0", b"X" * len(blob), short_header, unusable_bank):
        path.write_bytes(damaged)
        with pytest.raises(DatasetError, match="unreadable checkpoint") as info:
            load_model(path)
        assert info.value.path == path


def test_freeze_locks_and_verifies():
    model = PretrainedModel(FilterBank.full(1), 3, 4, seed=0)
    frozen = freeze(model)
    frozen.verify()
    assert frozen.content_hash == content_hash(frozen.model)
    with pytest.raises(ValueError):
        frozen.model.mix.value[0, 0] = 1.0  # locked array refuses writes
    # freezing snapshots: later edits to the source model do not leak in
    model.mix.value[0, 0] = 99.0
    frozen.verify()


def test_tampered_frozen_model_fails_verify():
    model = PretrainedModel(FilterBank.full(1), 3, 4, seed=0)
    frozen = FrozenModel(model)
    p = frozen.model.encoders[0].weight
    p.value.setflags(write=True)
    p.value[0, 0] += 1.0
    with pytest.raises(NumericError, match="frozen backbone changed"):
        frozen.verify()
