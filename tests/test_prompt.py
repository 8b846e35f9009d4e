"""Prompt graphs: normalization, wiring, tuning loop, label hygiene."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

import hsgppt.prompt as prompt_mod
from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import Graph, edge_homophily, kshot_split, laplacian, laplacian_from_edges
from hsgppt.nn import Adam, finite_diff_check, sigmoid, softmax_cross_entropy, softmax_over_filters
from hsgppt.pretrain import PretrainConfig, PretrainedModel, encode, freeze, pretrain
from hsgppt.prompt import (
    ABLATION_VARIANTS,
    TAU_CROSS_HETEROPHILIC,
    TAU_CROSS_HOMOPHILIC,
    TuneConfig,
    build_inner_edges,
    cross_mask,
    default_tau_cross,
    feature_stats,
    init_state,
    insert_prompt,
    normalize_prompt,
    predict,
    prompted_encode,
    save_state,
    state_bytes,
    state_from_bytes,
    state_hash,
    tune,
    tuning_loss_fn,
    variant_configs,
)
from hsgppt.spectral import (
    CsrRows,
    FilterBank,
    RowWalk,
    bank_filter_apply,
    beta_filter_apply,
    eigendecompose,
    filter_response,
    row_walk,
)


def tiny_setup(seed=0, n=40, f=6, h=0.3, hidden=8):
    g = generate(CsbmParams(n=n, f=f, d_avg=5.0, h=h, mu=4.0, seed=seed))
    frozen = freeze(PretrainedModel(FilterBank.full(2), f, hidden, seed=seed))
    return g, frozen


def combined_edges(pg):
    """The prompted graph's canonical edges: base, then inner, then cross."""
    n = pg.base.n_nodes
    parts = [pg.base.edges]
    if pg.inner_edges.size:
        parts.append(pg.inner_edges + n)
    if pg.cross_edges.size:
        # original node index is always the smaller endpoint
        parts.append(np.stack([pg.cross_edges[:, 1], pg.cross_edges[:, 0] + n], axis=1))
    return np.concatenate(parts, axis=0)


def reference_laplacian(pg):
    """L' on every row, built from the combined edges (the oracle)."""
    return laplacian_from_edges(combined_edges(pg), pg.n_total)


def reference_walk(full, rows, top):
    """The RowWalk of rows on the oracle's L', walked over its plain CSR."""
    return row_walk(CsrRows(full), rows, top, full.shape[0])


def test_normalize_prompt_restores_column_stats():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((50, 4)) * 7.0 + 3.0
    mu_o = np.array([1.0, -2.0, 0.0, 5.0])
    sigma_o = np.array([2.0, 0.5, 1.0, 3.0])
    out, _ = normalize_prompt(P, mu_o, sigma_o)
    assert np.allclose(out.mean(axis=0), mu_o, atol=1e-12)
    assert np.allclose(out.std(axis=0), sigma_o, atol=1e-12)


def test_normalize_prompt_idempotent():
    rng = np.random.default_rng(1)
    P = rng.standard_normal((12, 3))
    mu_o, sigma_o = np.array([0.5, 1.0, -1.0]), np.array([1.5, 2.0, 0.25])
    once, _ = normalize_prompt(P, mu_o, sigma_o)
    twice, _ = normalize_prompt(once, mu_o, sigma_o)
    assert np.max(np.abs(twice - once)) < 1e-10


def test_normalize_prompt_ignores_a_positive_per_column_affine_map():
    # the identity behind a fully wired graph's zero prompt gradient;
    # measured 1e-15 relative at 10 x 128
    rng = np.random.default_rng(8)
    P = rng.standard_normal((10, 128))
    mu_o, sigma_o = rng.standard_normal(128), rng.random(128) + 0.5
    a, b = rng.random(128) * 5.0 + 0.1, rng.standard_normal(128) * 3.0
    want, _ = normalize_prompt(P, mu_o, sigma_o)
    got, _ = normalize_prompt(a * P + b, mu_o, sigma_o)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_normalize_prompt_constant_column_hits_floor():
    P = np.array([[2.0, 1.0], [2.0, 3.0]])
    out, vjp = normalize_prompt(P, np.zeros(2), np.ones(2))
    assert np.all(np.isfinite(out))
    assert np.allclose(out[:, 0], 0.0)  # centered, scaled by sigma_o/floor: 0/floor = 0
    g = np.ones_like(P)
    assert np.all(np.isfinite(vjp(g)))


def test_normalize_prompt_vjp_matches_finite_difference():
    rng = np.random.default_rng(2)
    P = rng.standard_normal((6, 3))
    mu_o = rng.standard_normal(3)
    sigma_o = rng.random(3) + 0.5
    d = rng.standard_normal((6, 3))

    def loss():
        return float((normalize_prompt(P, mu_o, sigma_o)[0] * d).sum())

    _, vjp = normalize_prompt(P, mu_o, sigma_o)
    got = vjp(d)
    eps = 1e-6
    want = np.zeros_like(P)
    flat = P.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = loss()
        flat[i] = keep - eps
        down = loss()
        flat[i] = keep
        want.reshape(-1)[i] = (up - down) / (2 * eps)
    assert np.allclose(got, want, atol=1e-7)


def test_build_inner_edges_hand_case():
    P = np.array([[1.0, 0.0, 0.0], [-5.0, 1.0, 0.0], [0.0, 5.0, 0.0]])
    # dots: (0,1) -> -5, (0,2) -> 0, (1,2) -> 5
    got = build_inner_edges(P, 0.2)
    assert got.tolist() == [[0, 2], [1, 2]]  # sigmoid(0) = 0.5 passes, sigmoid(-5) fails
    assert build_inner_edges(P, 0.6).tolist() == [[1, 2]]
    assert build_inner_edges(P[:1], 0.2).shape == (0, 2)


def test_build_cross_edges_hand_case():
    P = np.array([[1.0, 0.0], [0.0, -1.0]])
    g = Graph("g", np.empty((0, 2)), np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    # scores: p0 vs x: sig(3), sig(0), sig(0); p1: sig(0), sig(-3), sig(0)
    got = insert_prompt(g, P, 1.0, 0.51).cross_edges
    assert got.tolist() == [[0, 0]]
    got = insert_prompt(g, P, 1.0, 0.4).cross_edges
    assert got.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 2]]
    assert insert_prompt(g, np.empty((0, 2)), 1.0, 0.4).cross_edges.shape == (0, 2)


def test_insert_prompt_wires_offsets():
    g = Graph("g", np.array([[0, 1], [1, 2]]), np.eye(3), labels=[0, 1, 0], n_classes=2)
    P = 10.0 * np.eye(3)[:2]  # p0 ~ e0, p1 ~ e1, both strongly aligned
    pg = insert_prompt(g, P, tau_inner=0.2, tau_cross=0.9)
    assert pg.n_total == 5
    # cross: sig(10) > 0.9 exactly where prompt row matches a basis feature
    combined = combined_edges(pg)
    # inner pair survives at tau 0.2 (dot zero, sigmoid 0.5)
    assert pg.inner_edges.tolist() == [[0, 1]]
    want_cross = {(0, 3), (1, 4)}  # node index first, prompt shifted by n
    got_cross = {tuple(e) for e in combined.tolist()} - {(0, 1), (1, 2), (3, 4)}
    assert got_cross == want_cross
    L = pg.laplacian(laplacian(g))
    assert L.shape == (5, 5)
    assert (L != reference_laplacian(pg)).nnz == 0
    with pytest.raises(ValueError, match="feature_dim"):
        insert_prompt(g, np.zeros((2, 7)), 0.2, 0.5)


def test_empty_prompt_equals_frozen_encode():
    g, frozen = tiny_setup()
    state = init_state(g, frozen, TuneConfig(n_prompt=0, seed=0), n_classes=2)
    got = prompted_encode(g, frozen, state)
    want = encode(g, frozen.model).integrated
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("shared", [False, True])
def test_prompted_encode_matches_dense_eigenbasis_oracle(shared):
    g, frozen = tiny_setup(n=30, f=5)
    state = init_state(g, frozen, TuneConfig(n_prompt=4, seed=0, shared_prompt=shared), 2)
    rng = np.random.default_rng(3)
    for p in state.prompts:  # distinct rows per filter, so every branch differs
        p.value[...] += rng.standard_normal(p.value.shape)
    model = frozen.model
    weights = softmax_over_filters(model.mix.value)
    mu_o, sigma_o = feature_stats(g.features)
    want = np.zeros((g.n_nodes, model.hidden_dim))
    wired = 0
    for k, (filt, enc) in enumerate(zip(model.bank.filters, model.encoders)):
        prompt = state.prompts[0 if shared else k]
        P_in, _ = normalize_prompt(prompt.value, mu_o, sigma_o)
        pg = insert_prompt(g, P_in, state.tau_inner, state.tau_cross)
        wired += len(pg.cross_edges)
        dec = eigendecompose(reference_laplacian(pg))
        U, lam = dec.eigenvectors, np.clip(dec.eigenvalues, 0.0, 2.0)
        features = np.vstack([g.features, pg.prompt_features])
        filtered = U @ (filter_response(filt, lam)[:, None] * (U.T @ features))
        s = filtered @ enc.weight.value + enc.bias.value
        z = np.where(s < 0, float(enc.alpha.value) * s, s)
        want += weights[k] * z[: g.n_nodes]
    assert wired > 0
    got = prompted_encode(g, frozen, state)
    assert np.max(np.abs(got - want)) < 1e-10


def _record_training_branches(monkeypatch):
    epochs = []
    forward = prompt_mod._forward

    def spy(g, frozen, state, branches, train):
        if train:
            epochs.append(list(branches))
        return forward(g, frozen, state, branches, train)

    monkeypatch.setattr(prompt_mod, "_forward", spy)
    return epochs


def _edge_key(branch):
    return branch.prompted.cross_edges.tobytes(), branch.prompted.inner_edges.tobytes()


def _assert_same_walk(got, want):
    """Two RowWalks hold the same blocks and picks, bit for bit."""
    assert isinstance(got, RowWalk) and got.n == want.n
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert a.shape == b.shape
        _assert_same_csr(a, b)
    assert len(got.picks) == len(want.picks)
    for a, b in zip(got.picks, want.picks):
        assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def test_tune_uses_the_current_wiring_when_it_changes(monkeypatch):
    g, frozen = tiny_setup(h=0.8)
    split = kshot_split(g, 3, seed=0)
    rows = np.unique(np.concatenate(split.shot_indices))
    epochs = _record_training_branches(monkeypatch)
    tune(g, frozen, split, TuneConfig(n_prompt=4, epochs=8, eval_every=4, seed=0))
    assert len(epochs) == 8
    keys = [[_edge_key(b) for b in branches] for branches in epochs]
    assert any(a != b for a, b in zip(keys, keys[1:]))  # the wiring does change
    n = g.n_nodes
    xw = [g.features @ enc.weight.value for enc in frozen.model.encoders]
    for branches in epochs:
        for (kk, rr), w, br in zip(frozen.model.bank.filters, xw, branches):
            pg = br.prompted
            fresh = reference_laplacian(pg)
            # the blocks a degree-2 filter multiplies by, equal to those cut from fresh
            _assert_same_walk(br.lap, reference_walk(fresh, rows, 2))
            indicator = np.eye(pg.n_total)[:, n:]
            gp = beta_filter_apply(fresh, kk, rr, indicator)[rows]
            assert np.max(np.abs(br.gp - gp)) < 1e-12
            padded = np.vstack([w, np.zeros((pg.n_total - n, w.shape[1]))])
            base = beta_filter_apply(fresh, kk, rr, padded)
            assert np.max(np.abs(br.base - base[rows])) < 1e-12


def test_laplacian_built_once_per_edge_set_when_wiring_is_fixed(monkeypatch):
    g, frozen = tiny_setup()
    split = kshot_split(g, 2, seed=0)
    full_builds, row_builds, row_filters = [], [], []
    build = prompt_mod.laplacian_from_edges
    assemble = prompt_mod.PromptedGraph.laplacian
    bank = prompt_mod.bank_filter_apply

    def counting(edges, n_nodes, kind="normalized"):
        full_builds.append(n_nodes)
        return build(edges, n_nodes, kind)

    def counting_rows(self, base, rows=None, top=1):
        row_builds.append(rows)
        return assemble(self, base, rows, top)

    def counting_bank(L, filters, x, **kwargs):
        row_filters.append(isinstance(L, RowWalk))
        return bank(L, filters, x, **kwargs)

    monkeypatch.setattr(prompt_mod, "laplacian_from_edges", counting)
    monkeypatch.setattr(prompt_mod.PromptedGraph, "laplacian", counting_rows)
    monkeypatch.setattr(prompt_mod, "bank_filter_apply", counting_bank)
    epochs = _record_training_branches(monkeypatch)
    # thresholds below every sigmoid score wire every pair, every epoch
    cfg = TuneConfig(n_prompt=3, tau_inner=0.0, tau_cross=0.0, epochs=6, eval_every=2, seed=0)
    tune(g, frozen, split, cfg)
    distinct = {_edge_key(b) for branches in epochs for b in branches}
    assert len(distinct) == 1
    # 3 filters x 3 validations and 3 filters x 6 epochs without reuse; the
    # full-row path assembles its rows too, so once for the shot rows and
    # once for all rows, and never from the combined edges
    assert not full_builds
    assert len(row_builds) == 2 * len(distinct)
    # the filters of one operator share one pass, once on the shot rows and
    # once on all rows; later epochs and validations run no sparse product
    assert row_filters == [True, False]

    full_builds.clear()
    row_builds.clear()
    state = init_state(g, frozen, cfg, n_classes=2)
    loss_fn = tuning_loss_fn(g, frozen, state, np.concatenate(split.shot_indices))
    for _ in range(3):
        loss_fn()
    assert len(row_builds) == 1 and not full_builds


def _assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_prompted_laplacian_rows_equal_full_rows_bit_for_bit():
    # the prompted graph's blocks on a row set equal those walked on the
    # oracle's L', for every bank order a filter may take
    rng = np.random.default_rng(9)
    for h in (0.2, 0.8):
        g0, frozen = tiny_setup(n=60, f=8, h=h, seed=1)
        keep = (g0.edges != 5).all(axis=1)  # node 5 left isolated
        g = Graph(g0.name, g0.edges[keep], g0.features, labels=g0.labels, n_classes=2)
        base = laplacian(g)
        P = rng.standard_normal((5, g.feature_dim))
        # tau_cross 0 wires every pair, 1 none; N_p 0 is the no_prompt ablation
        for n_p in (0, 1, 5):
            for tau_cross in (0.0, 0.5, 1.0):
                for tau_inner in (0.5, 1.0):
                    pg = insert_prompt(g, P[:n_p], tau_inner, tau_cross)
                    assert (pg.cross_edges.size > 0) == (n_p > 0 and tau_cross < 1.0)
                    assert (pg.inner_edges.size > 0) == (n_p > 1 and tau_inner < 1.0)
                    if tau_cross == 0.0:
                        assert pg.cross_edges.shape[0] == n_p * g.n_nodes
                    full = reference_laplacian(pg)
                    _assert_same_csr(pg.laplacian(base), full)
                    # several, isolated, with a prompt row, a prompt row alone, all
                    row_sets = [np.array([0, 5, 17]), np.array([5]), np.arange(pg.n_total)]
                    if n_p:
                        row_sets += [np.array([0, 5, 17, 60]), np.array([60])]
                    for q in row_sets:
                        for top in range(4):
                            _assert_same_walk(pg.laplacian(base, q, top), reference_walk(full, q, top))
    with pytest.raises(ValueError, match="rows must lie"):
        pg.laplacian(base, np.array([pg.n_total]), 2)
    # rows come in ascending order, each once
    for q in (np.array([17, 60, 5, 17, 0]), np.array([5, 17, 17]), np.array([17, 5])):
        for top in range(4):
            with pytest.raises(ValueError, match="strictly increasing"):
                pg.laplacian(base, q, top)


def _permuted(g, perm):
    """g with node i relabelled perm[i]."""
    inv = np.argsort(perm)
    edges = np.sort(perm[g.edges], axis=1)
    return Graph(g.name, edges, g.features[inv], labels=g.labels[inv], n_classes=2)


def _assert_permutation_equivariant(g, P, tau_inner, tau_cross, rows, rng):
    """Relabelling g's original nodes by a random permutation relabels L'
    entry for entry, bit for bit, and the row walks' filtered rows follow
    them to within 1e-14 of their scale (measured 3.4e-15 on the n=5000
    graphs). Both sides walk ascending rows, so the relabelled side's
    outputs come in the order of its own labels. Returns the unrelabelled
    prompted graph."""
    n, n_p = g.n_nodes, P.shape[0]
    perm = rng.permutation(n)
    gp = _permuted(g, perm)
    # prompts keep their indices; original node i becomes perm[i]
    full_perm = np.concatenate([perm, np.arange(n, n + n_p)])
    x = rng.standard_normal((n + n_p, 3))
    x_perm = np.empty_like(x)
    x_perm[full_perm] = x
    pg = insert_prompt(g, P, tau_inner, tau_cross)
    pgp = insert_prompt(gp, P, tau_inner, tau_cross)
    # compared as sparse matrices: a dense L' at n=5000 takes 200 MB
    want = pg.laplacian(laplacian(g)).tocoo()
    moved = sp.csr_matrix((want.data, (full_perm[want.row], full_perm[want.col])), shape=want.shape)
    moved.sort_indices()
    _assert_same_csr(pgp.laplacian(laplacian(gp)), moved)
    rows_perm = full_perm[rows]
    order = np.argsort(rows_perm)
    for top in (1, 2, 3):
        filters = FilterBank.full(top).filters
        walk = pg.laplacian(laplacian(g), rows, top)
        walk_perm = pgp.laplacian(laplacian(gp), rows_perm[order], top)
        for a, b in zip(bank_filter_apply(walk, filters, x), bank_filter_apply(walk_perm, filters, x_perm)):
            assert np.max(np.abs(a[order] - b)) <= 1e-14 * np.max(np.abs(a))
    return pg


def test_prompted_laplacian_is_node_permutation_equivariant():
    rng = np.random.default_rng(13)
    g, _ = tiny_setup(n=60, f=8, h=0.8, seed=4)
    P = rng.standard_normal((4, g.feature_dim)) * 2.0
    for tau_cross in (0.3, 0.6):
        pg = _assert_permutation_equivariant(g, P, 0.4, tau_cross, np.array([3, 17, 40, 61]), rng)
        assert pg.cross_edges.size > 0


def test_prompted_laplacian_is_node_permutation_equivariant_at_benchmark_scale(benchmark_graph):
    # prompts drawn and normalized as tuning's are, wired by the default
    # tau_cross: at h=0.2 every pair, at h=0.8 a few hundred
    g = benchmark_graph
    rng = np.random.default_rng(14)
    mu_o, sigma_o = feature_stats(g.features)
    P, _ = normalize_prompt(rng.standard_normal((10, g.feature_dim)) * sigma_o + mu_o, mu_o, sigma_o)
    rows = np.union1d(rng.choice(g.n_nodes, 20, replace=False), [g.n_nodes + 3])
    tau_cross = default_tau_cross(edge_homophily(g))
    pg = _assert_permutation_equivariant(g, P, 0.2, tau_cross, rows, rng)
    if tau_cross == TAU_CROSS_HETEROPHILIC:
        assert pg.mask.all()
    else:
        assert 0 < pg.cross_edges.shape[0] < pg.mask.size


@pytest.mark.parametrize("h", [0.2, 0.8])
def test_predict_follows_node_permutations_and_ignores_prompt_row_order(h):
    # measured 1.1e-16 for both at n=1000
    g = generate(CsbmParams(n=1000, f=32, d_avg=20.0, h=h, mu=10.0, seed=0))
    frozen = freeze(PretrainedModel(FilterBank.full(2), g.feature_dim, 16, seed=0))
    state = init_state(g, frozen, TuneConfig(seed=0), n_classes=2)
    rng = np.random.default_rng(1)
    for p in state.prompts:  # distinct rows per filter
        p.value[...] += rng.standard_normal(p.value.shape)
    P = state.prompts[0].value
    P_in, _ = normalize_prompt(P, *feature_stats(g.features))
    assert insert_prompt(g, P_in, state.tau_inner, state.tau_cross).cross_edges.size > 0
    want = predict(g, frozen, state)
    perm = rng.permutation(g.n_nodes)
    assert np.max(np.abs(predict(_permuted(g, perm), frozen, state)[perm] - want)) <= 1e-14
    order = rng.permutation(P.shape[0])
    for p in state.prompts:
        p.value[...] = p.value[order]
    assert np.max(np.abs(predict(g, frozen, state) - want)) <= 1e-14


def _full_row_reference(g, frozen, split, cfg):
    """The training loop on every row (the full path), without validation."""
    state = init_state(g, frozen, cfg, n_classes=2)
    params = state.tunable_params()
    opt = Adam(params, lr=cfg.lr)
    shots = np.concatenate(split.shot_indices)
    ops = prompt_mod._EdgeSetOperators(g, frozen.model)
    losses, wiring = [], []
    for _ in range(cfg.epochs):
        branches = ops.build(state)
        wiring.append([_edge_key(b) for b in branches])
        for p in params:
            p.zero_grad()
        _, logits, backward = prompt_mod._forward(g, frozen, state, branches, train=True)
        loss, dlogits = softmax_cross_entropy(logits, g.labels, shots)
        backward(dlogits)
        opt.step()
        losses.append(loss)
    return state, losses, wiring


@pytest.mark.parametrize("h", [0.2, 0.8])
def test_tune_on_shot_rows_matches_full_row_reference(monkeypatch, h):
    g, frozen = tiny_setup(n=120, f=8, h=h, seed=2)
    split = kshot_split(g, 4, seed=1)
    # validation only after the last epoch, so tune keeps the final values
    cfg = TuneConfig(n_prompt=5, tau_cross=0.6, lr=2e-2, epochs=40, eval_every=10**6, seed=3)
    want_state, want_losses, want_wiring = _full_row_reference(g, frozen, split, cfg)
    epochs = _record_training_branches(monkeypatch)
    state, hist = tune(g, frozen, split, cfg)
    assert [[_edge_key(b) for b in branches] for branches in epochs] == want_wiring
    assert len({tuple(w) for w in want_wiring}) > 1  # the wiring moves during the run
    assert np.max(np.abs(np.array([row[1] for row in hist]) - want_losses)) < 1e-12
    for p, q in zip(state.tunable_params(), want_state.tunable_params()):
        assert np.max(np.abs(p.value - q.value)) < 1e-12, p.name
    assert np.max(np.abs(predict(g, frozen, state) - predict(g, frozen, want_state))) < 1e-12


def test_tuning_gradients_pass_finite_difference():
    g, frozen = tiny_setup(n=16, f=4)
    split = kshot_split(g, 2, seed=0)
    state = init_state(g, frozen, TuneConfig(n_prompt=3, seed=0), n_classes=2)
    shots = np.concatenate(split.shot_indices)
    rep = finite_diff_check(tuning_loss_fn(g, frozen, state, shots), state.tunable_params(), seed=0)
    assert rep.max_rel_error < 1e-4, [(e.name, e.max_rel_error) for e in rep.entries]


def test_tuning_gradients_shared_prompt_accumulate_across_filters():
    g, frozen = tiny_setup(n=16, f=4)
    split = kshot_split(g, 2, seed=0)
    state = init_state(g, frozen, TuneConfig(n_prompt=3, seed=0, shared_prompt=True), n_classes=2)
    assert len(state.prompts) == 1 and state.shared
    shots = np.concatenate(split.shot_indices)
    rep = finite_diff_check(tuning_loss_fn(g, frozen, state, shots), state.tunable_params(), seed=0)
    assert rep.max_rel_error < 1e-4


def test_tune_improves_and_is_deterministic():
    g, frozen = tiny_setup(n=60, f=6, hidden=8)
    split = kshot_split(g, 3, seed=1)
    cfg = TuneConfig(n_prompt=4, lr=1e-2, epochs=30, eval_every=10, seed=5)
    state_a, hist_a = tune(g, frozen, split, cfg)
    state_b, hist_b = tune(g, frozen, split, cfg)
    assert hist_a == hist_b
    assert state_bytes(state_a) == state_bytes(state_b)
    assert len(hist_a) == 30
    losses = [row[1] for row in hist_a]
    assert losses[-1] < losses[0]
    # eval cadence: F1 present exactly every 10th epoch (and the last)
    f1s = [row[2] for row in hist_a]
    assert all(np.isfinite(f1s[e]) == ((e + 1) % 10 == 0 or e == 29) for e in range(30))
    probs = predict(g, frozen, state_a)
    assert probs.shape == (60, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_tune_never_reads_test_labels():
    g, frozen = tiny_setup(n=50, f=6)
    split = kshot_split(g, 3, seed=2)
    cfg = TuneConfig(n_prompt=4, lr=1e-2, epochs=12, eval_every=4, seed=0)
    ref = tune(g, frozen, split, cfg)

    scrambled = g.labels.copy()
    scrambled[split.test_indices] = 1 - scrambled[split.test_indices]
    g2 = Graph(g.name, g.edges, g.features, labels=scrambled, n_classes=2)
    alt = tune(g2, frozen, split, cfg)

    assert state_bytes(ref[0]) == state_bytes(alt[0])
    assert [r[:2] for r in ref[1]] == [r[:2] for r in alt[1]]


def test_state_round_trip(tmp_path):
    g, frozen = tiny_setup()
    split = kshot_split(g, 2, seed=0)
    state, _ = tune(g, frozen, split, TuneConfig(n_prompt=3, epochs=5, eval_every=5, seed=0))
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = state_from_bytes(path.read_bytes())
    assert state_bytes(loaded) == state_bytes(state)
    assert state_hash(loaded) == state_hash(state)
    a = predict(g, frozen, state)
    b = predict(g, frozen, loaded)
    assert a.tobytes() == b.tobytes()


def test_prompt_parameter_count():
    g, frozen = tiny_setup(f=6, hidden=8)
    state = init_state(g, frozen, TuneConfig(n_prompt=10, seed=0), n_classes=2)
    # 3 per-filter prompts of 10 x 6, head 8 x 2 + 2
    assert sum(p.value.size for p in state.tunable_params()) == 3 * 60 + 18


def test_variant_configs_flip_only_their_own_knobs():
    pre, tune_cfg = PretrainConfig(order=3, epochs=7), TuneConfig(n_prompt=4, lr=0.1)
    configs = {v: variant_configs(v, pre, tune_cfg) for v in ABLATION_VARIANTS}
    assert configs["full"] == (pre, tune_cfg)
    assert configs["low_pass_only"] == (PretrainConfig(order=3, epochs=7, filters=((0, 3),)), tune_cfg)
    assert configs["single_prompt"] == (pre, TuneConfig(n_prompt=4, lr=0.1, shared_prompt=True))
    assert configs["no_prompt"] == (pre, TuneConfig(n_prompt=0, lr=0.1))
    assert configs["no_prompt_norm"] == (pre, TuneConfig(n_prompt=4, lr=0.1, normalize=False))
    assert set(configs) == {"full", "low_pass_only", "single_prompt", "no_prompt", "no_prompt_norm"}
    with pytest.raises(ValueError, match="variant"):
        variant_configs("extra_prompt", pre, tune_cfg)


def test_default_tau_cross_threshold():
    assert default_tau_cross(0.9) == TAU_CROSS_HOMOPHILIC
    assert default_tau_cross(0.5) == TAU_CROSS_HOMOPHILIC
    assert default_tau_cross(0.49) == TAU_CROSS_HETEROPHILIC
    assert default_tau_cross(0.0) == TAU_CROSS_HETEROPHILIC
    assert default_tau_cross(None) == TAU_CROSS_HETEROPHILIC  # undefined homophily


def test_init_state_deterministic_and_auto_tau():
    g, frozen = tiny_setup(h=0.2)  # heterophilic target
    cfg = TuneConfig(n_prompt=5, seed=7)
    s1 = init_state(g, frozen, cfg, n_classes=2)
    s2 = init_state(g, frozen, cfg, n_classes=2)
    assert state_bytes(s1) == state_bytes(s2)
    assert s1.tau_cross == TAU_CROSS_HETEROPHILIC and s1.tau_inner == cfg.tau_inner
    assert len(s1.prompts) == 3
    assert [p.name for p in s1.prompts] == [
        "prompt0.features", "prompt1.features", "prompt2.features",
    ]
    # prompt rows inherit the feature scale
    mu_o, sigma_o = feature_stats(g.features)
    rows = s1.prompts[0].value
    assert rows.shape == (5, 6)
    assert np.all(np.abs(rows - mu_o) < 8 * sigma_o + 1e-9)
    # per-filter graphs share one warm-start draw (no aliasing), equal to the
    # shared variant's single graph, so the per-filter family nests it at init
    assert np.array_equal(s1.prompts[0].value, s1.prompts[1].value)
    assert s1.prompts[0].value is not s1.prompts[1].value
    shared_cfg = TuneConfig(n_prompt=5, seed=7, shared_prompt=True)
    shared_rows = init_state(g, frozen, shared_cfg, 2).prompts[0].value
    assert np.array_equal(s1.prompts[0].value, shared_rows)


def test_variant_states_reduce_correctly():
    g, frozen = tiny_setup()
    shared = init_state(g, frozen, TuneConfig(n_prompt=4, shared_prompt=True, seed=0), 2)
    assert len(shared.prompts) == 1
    assert shared.prompts[0].name == "prompt.features"
    none = init_state(g, frozen, TuneConfig(n_prompt=0, seed=0), 2)
    assert none.shared and none.prompts[0].value.shape == (0, 6)


# ---------------------------------------------------------------------------
# the exact cross mask and the wiring-keyed operator cache
# ---------------------------------------------------------------------------


def reference_cross_mask(P, X, tau, scores=None):
    # scores passed in are ignored: the oracle forms each graph's own P @ X.T
    return sigmoid(P @ X.T) > tau


def reference_cross_edges(P, X, tau):
    """The sigmoid-everywhere build that cross_mask replaces (the oracle)."""
    if P.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    pi, xj = np.nonzero(reference_cross_mask(P, X, tau))
    return np.stack([pi, xj], axis=1).astype(np.int64)


CUT_TAUS = (0.0, 1e-12, 0.2, 0.40, 0.5, 0.55, 1 - 1e-12, 1.0)


def _cut_scores(tau):
    """Scores at logit(tau), t +- delta, and one ulp either side of each."""
    if not 0.0 < tau < 1.0:
        centres = [-np.inf, -1e300, -1.0, 0.0, 1.0, 1e300, np.inf]
    else:
        t = np.log(tau / (1.0 - tau))
        delta = 1e-6 * (1.0 + abs(t))
        centres = [t - delta, t, t + delta]
    return np.array([np.nextafter(c, d) for c in centres for d in (-np.inf, c, np.inf)])


@given(
    tau=st.sampled_from(CUT_TAUS),
    offsets=st.lists(st.floats(-1e-4, 1e-4), max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_mask_equals_sigmoid_threshold(tau, offsets, seed):
    cut = _cut_scores(tau)
    near = cut[len(cut) // 2] + np.asarray(offsets, dtype=np.float64)
    X = np.concatenate([cut, near, [np.nan]])[:, None]
    # a 1 x 1 prompt of 1.0 puts each score exactly where it was placed
    P = np.ones((1, 1))
    assert np.array_equal(cross_mask(P, X, tau), reference_cross_mask(P, X, tau))
    rng = np.random.default_rng(seed)
    P, X = rng.standard_normal((4, 16)), rng.standard_normal((64, 16))
    assert np.array_equal(cross_mask(P, X, tau), reference_cross_mask(P, X, tau))
    edges = prompt_mod._mask_edges(cross_mask(P, X, tau))
    assert np.array_equal(edges, reference_cross_edges(P, X, tau))


def test_cross_mask_takes_the_sigmoid_only_inside_the_band(monkeypatch):
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return sigmoid(x)

    monkeypatch.setattr(prompt_mod, "sigmoid", counting)
    t = np.log(0.4 / 0.6)
    X = np.array([t - 1.0, t, np.nextafter(t, np.inf), t + 1.0])[:, None]
    P = np.ones((1, 1))
    got = cross_mask(P, X, 0.4)
    assert sizes == [2]  # the two scores within delta of the cut
    assert got.tolist() == reference_cross_mask(P, X, 0.4).tolist()
    assert got[0, 3] and not got[0, 0]
    sizes.clear()
    cross_mask(P, X, 1e-12)  # too close to 0 for the margin
    assert sizes == [4]


_STACKED_SCORES_RUN = """
import json
import numpy as np
import hsgppt.prompt as prompt_mod
from hsgppt.csbm import CsbmParams, generate
from hsgppt.pretrain import PretrainedModel, freeze
from hsgppt.prompt import TuneConfig, init_state, prompted_encode
from hsgppt.spectral import FilterBank

g = generate(CsbmParams(n=1000, f=128, d_avg=20.0, h=0.2, mu=10.0, seed=0))
frozen = freeze(PretrainedModel(FilterBank.full(2), 128, 64, seed=0))
cross_mask, seen = prompt_mod.cross_mask, []

def spy(P, X, tau, scores=None):
    seen.append("own" if scores is None else scores.tobytes() == (P @ X.T).tobytes())
    return cross_mask(P, X, tau, scores)

prompt_mod.cross_mask = spy
rng = np.random.default_rng(0)
out = {}
for n_prompt in (1, 2, 10):
    for shared in (False, True):
        cfg = TuneConfig(n_prompt=n_prompt, shared_prompt=shared, seed=0)
        state = init_state(g, frozen, cfg, 2)
        for p in state.prompts:  # the per-filter graphs start equal; part them
            p.value += rng.standard_normal(p.value.shape)
        seen.clear()
        prompted_encode(g, frozen, state)
        out[f"{n_prompt} {'shared' if shared else 'per-filter'}"] = seen[:]
print(json.dumps(out))
"""


def test_stacked_cross_scores_equal_each_graphs_own_product(run_at_blas_threads):
    # a build forms [P_1; ...; P_K] @ X.T once; each graph's rows of it must
    # be its own P @ X.T byte for byte. A one-row graph forms its own
    # product, which numpy runs as a matrix-vector one.
    want = {"1 per-filter": ["own"] * 3, "1 shared": ["own"]}
    for n_prompt in (2, 10):
        want.update({f"{n_prompt} per-filter": [True] * 3, f"{n_prompt} shared": [True]})
    for threads in (1, 2):
        assert run_at_blas_threads(_STACKED_SCORES_RUN, threads) == want


_TUNE_RUN = """
import hashlib, json
from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import kshot_split
from hsgppt.pretrain import PretrainConfig, freeze, pretrain
from hsgppt.prompt import TuneConfig, predict, state_hash, tune

out = {}
# at h=0.2 every pair is wired, so the filters share one pass; at h=0.8 the
# per-filter graphs diverge, and a shared prompt makes them share it again
for h, shared in ((0.2, False), (0.8, False), (0.8, True)):
    g = generate(CsbmParams(n=1000, f=128, d_avg=20.0, h=h, mu=10.0, seed=0))
    model, _ = pretrain(g, PretrainConfig(order=2, hidden_dim=64, epochs=3, patience=3, seed=0))
    frozen = freeze(model)
    cfg = TuneConfig(n_prompt=10, epochs=30, eval_every=10, seed=0, shared_prompt=shared)
    state, hist = tune(g, frozen, kshot_split(g, 5, seed=0), cfg)
    probs = predict(g, frozen, state)
    out[f"{h} shared" if shared else h] = [
        state_hash(state),
        hashlib.sha256(probs.tobytes()).hexdigest(),
        [[epoch, loss.hex(), f1.hex()] for epoch, loss, f1 in hist],
    ]
print(json.dumps(out))
"""


def test_tune_bits_do_not_depend_on_blas_threads(run_at_blas_threads):
    # tune() and predict() are not pinned to one BLAS thread: their
    # products are shot-row or N_p-wide, or the shared pass's n x f by f x h
    # projection, and their bits hold at 1 and 2
    runs = [run_at_blas_threads(_TUNE_RUN, threads) for threads in (1, 2)]
    assert set(runs[0]) == {"0.2", "0.8", "0.8 shared"}
    assert runs[0] == runs[1]


# sha256 of state_bytes and of predict's probabilities after tune(20 epochs,
# validation every 5) on an n=1000, f=32 CSBM graph at h, from a randomly
# initialized order-2 backbone of 16 hidden units, or a one-filter low-pass
# one (g_{0,2}), whose per-filter family is a single graph that is not
# shared. Per-filter and shared prompts and the no_prompt variant at both h.
PINNED_TUNE = {
    "h0.2 per-filter": (
        "e3fe0f3861cdb268fdda94491bd745f61f9bdc749194bfd11296e2f0118ef60f",
        "e26437a4eec6deb7bb98e6d33f92d54aa482586806569f0304e29fe11a01c43d",
    ),
    "h0.2 shared": (
        "5e30244ec690faf41760fc0e0ece060ef4058710b95e9a3955af373535596d64",
        "a98845e5bc4d53b93fa1f42096f7889adecaf4e528d7493b1ce4593ac263d785",
    ),
    "h0.2 no_prompt": (
        "edece977fa8b2c4f592809e204219b4193275e213c20bbf74ad34aab5499c513",
        "4022ccc6d78823061056bf0d94eaaf8feaca629e894f44a5bca8e141c84f910f",
    ),
    "h0.2 low_pass": (
        "524fc76c71f1d1776360a1c87390611e751ba379dfb5cb2ec9f199abe0c82c97",
        "f6e274bb0f9838f6f257692a8cb8caea051c774a06279a2df235d62623e3e150",
    ),
    "h0.8 per-filter": (
        "e70811f5bbee1f027677aa46b9abcf061738f908214ec2b8310a077f2a34eb35",
        "84d7d22092708a97fedeb42a540f61638dcf8b59fe494986b1c13e615d5576fd",
    ),
    "h0.8 shared": (
        "69134859154dff5dfb8ac168ed14723729d3ada61d1ec7b3c4612d8c95f70510",
        "43fb5fae93aeefa45616c1f5a7115d62803d8a1a17ad570c65f16be5ac015f06",
    ),
    "h0.8 no_prompt": (
        "b26495fbaea80bc0f4be6c3b05ea767671c2231b24a1c382e478c14cda555447",
        "2f97d9a9d3e4b262a3246da53ab3260f295b1ed70c5f2d4b50cc9d8e2ed9fa4d",
    ),
    "h0.8 low_pass": (
        "aa861f9234024297b2b9d7413c65e7745877c10795866fba1e5068265e7127e2",
        "65077ea78e3c8c25bc3c77b890ab76c7a98841ab8c4179b02912b420c62b1a58",
    ),
}


def _pinned_tune_run(key):
    """(state hash, probabilities hash) of the PINNED_TUNE run named key."""
    h, variant = key.split()
    g = generate(CsbmParams(n=1000, f=32, d_avg=20.0, h=float(h[1:]), mu=10.0, seed=0))
    bank = FilterBank(((0, 2),)) if variant == "low_pass" else FilterBank.full(2)
    frozen = freeze(PretrainedModel(bank, g.feature_dim, 16, seed=0))
    overrides = {"shared": {"shared_prompt": True}, "no_prompt": {"n_prompt": 0}}.get(variant, {})
    cfg = TuneConfig(epochs=20, eval_every=5, seed=0, **overrides)
    state, _ = tune(g, frozen, kshot_split(g, 5, seed=0), cfg)
    probs = predict(g, frozen, state)
    assert state_bytes(state_from_bytes(state_bytes(state))) == state_bytes(state)
    return state_hash(state), hashlib.sha256(probs.tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED_TUNE))
def test_tune_on_a_csbm_graph_matches_pinned_bits(key):
    assert _pinned_tune_run(key) == PINNED_TUNE[key]


def _bench_setup(g):
    frozen = freeze(PretrainedModel(FilterBank.full(2), g.feature_dim, 64, seed=0))
    return frozen, kshot_split(g, 5, seed=0)


def _reference_operators(monkeypatch):
    """Wire by the oracle and build the full-row L' from the combined edges;
    returns the number of prompt rows of each graph the oracle wired."""
    assemble = prompt_mod.PromptedGraph.laplacian
    wired = []

    def mask_by_oracle(P, X, tau, scores=None):
        wired.append(P.shape[0])
        return reference_cross_mask(P, X, tau, scores)

    def full_rows_by_oracle(self, base, rows=None, top=1):
        return reference_laplacian(self) if rows is None else assemble(self, base, rows, top)

    monkeypatch.setattr(prompt_mod, "cross_mask", mask_by_oracle)
    monkeypatch.setattr(prompt_mod.PromptedGraph, "laplacian", full_rows_by_oracle)
    return wired


def test_tune_and_predict_match_the_reference_on_benchmark_graphs(benchmark_graph, monkeypatch):
    g = benchmark_graph
    frozen, split = _bench_setup(g)
    cfg = TuneConfig(n_prompt=10, epochs=30, eval_every=10, seed=1)
    epochs = _record_training_branches(monkeypatch)
    state, hist = tune(g, frozen, split, cfg)
    probs = predict(g, frozen, state)
    tau = state.tau_cross
    for branches in epochs:
        for br in branches:
            want = reference_cross_edges(br.prompted.prompt_features, g.features, tau)
            assert np.array_equal(br.prompted.cross_edges, want)
    assert epochs[0][0].prompted.cross_edges.size > 0

    monkeypatch.undo()
    wired = _reference_operators(monkeypatch)
    ref_state, ref_hist = tune(g, frozen, split, cfg)
    assert state_hash(state) == state_hash(ref_state)
    assert hist == ref_hist
    assert predict(g, frozen, ref_state).tobytes() == probs.tobytes()
    # the oracle wired every graph of every build: 30 training epochs, 3
    # validation passes and predict, one graph per filter
    builds = cfg.epochs + cfg.epochs // cfg.eval_every + 1
    assert wired == [cfg.n_prompt] * builds * frozen.model.bank.size


def _record_epoch_work(monkeypatch):
    """Per training epoch, the edge arrays, prompted Laplacians and filter
    passes its build made. A training build's blocks must hold only the
    rows of their balls, never all n_total rows with the others empty."""
    work = [{"edges": 0, "laplacians": 0, "filters": 0}]
    edges, bank, forward = prompt_mod._mask_edges, prompt_mod.bank_filter_apply, prompt_mod._forward
    assemble = prompt_mod.PromptedGraph.laplacian

    def counting_edges(mask):
        work[-1]["edges"] += 1
        return edges(mask)

    def counting_laplacian(self, base, rows=None, top=1):
        work[-1]["laplacians"] += 1
        out = assemble(self, base, rows, top)
        if rows is not None:
            for block in out.steps:
                # every row of L' holds its diagonal, so no row is empty
                assert block.shape[0] < self.n_total and np.diff(block.indptr).min() > 0
        return out

    def counting_bank(L, filters, x, **kwargs):
        work[-1]["filters"] += 1
        return bank(L, filters, x, **kwargs)

    def spy(g, frozen, state, branches, train):
        if train:
            work[-1]["branches"] = list(branches)
            work.append({"edges": 0, "laplacians": 0, "filters": 0})
        return forward(g, frozen, state, branches, train)

    monkeypatch.setattr(prompt_mod, "_mask_edges", counting_edges)
    monkeypatch.setattr(prompt_mod.PromptedGraph, "laplacian", counting_laplacian)
    monkeypatch.setattr(prompt_mod, "bank_filter_apply", counting_bank)
    monkeypatch.setattr(prompt_mod, "_forward", spy)
    return work


def _new_wirings(prev, cur):
    return {br.prompted.key for br in cur["branches"]} - {br.prompted.key for br in prev["branches"]}


def test_unchanged_wiring_builds_no_edges_and_runs_no_sparse_product(benchmark_graph, monkeypatch):
    g = benchmark_graph
    frozen, split = _bench_setup(g)
    work = _record_epoch_work(monkeypatch)
    # validation only after the last epoch, so every build before it trains
    tune(g, frozen, split, TuneConfig(n_prompt=10, epochs=6, eval_every=10**6, seed=1))
    epochs = work[:6]
    # the per-filter prompts start equal, so the first build wires once and
    # filters once for every filter
    assert len({br.prompted.key for br in epochs[0]["branches"]}) == 1
    assert epochs[0]["laplacians"] == 1 and epochs[0]["edges"] == 0
    assert epochs[0]["filters"] == 1
    unchanged = 0
    for prev, cur in zip(epochs, epochs[1:]):
        new = _new_wirings(prev, cur)
        # one L' per new wiring, built without an edge array; a wiring seen
        # last epoch reuses its operators
        assert cur["laplacians"] == len(new) and cur["edges"] == 0
        for br, old in zip(cur["branches"], prev["branches"]):
            if br.prompted.key == old.prompted.key:
                assert br.lap is old.lap and br.gp is old.gp and br.base is old.base
        if not new:
            unchanged += 1
            assert cur["filters"] == 0
    if edge_homophily(g) < 0.5:
        assert unchanged == 5  # every pair wired, every epoch


def test_changing_wiring_gets_fresh_operators_every_epoch(monkeypatch):
    g, frozen = tiny_setup(h=0.8)
    split = kshot_split(g, 3, seed=0)
    work = _record_epoch_work(monkeypatch)
    tau = 0.55
    tune(g, frozen, split, TuneConfig(n_prompt=4, tau_cross=tau, epochs=8, eval_every=10**6, seed=0))
    epochs = work[:8]
    changed = 0
    for prev, cur in zip(epochs, epochs[1:]):
        assert cur["laplacians"] == len(_new_wirings(prev, cur)) and cur["edges"] == 0
        for br, old in zip(cur["branches"], prev["branches"]):
            pg = br.prompted
            want = reference_cross_edges(pg.prompt_features, g.features, tau)
            assert np.array_equal(pg.cross_edges, want)
            if pg.key != old.prompted.key:
                changed += 1
                assert not np.array_equal(pg.cross_edges, old.prompted.cross_edges)
                assert br.lap is not old.lap and br.gp is not old.gp and br.base is not old.base
    assert changed > 0


def test_full_row_laplacian_equals_the_reference(benchmark_graph):
    g0, _ = tiny_setup(n=60, f=8, seed=1)
    keep = (g0.edges != 5).all(axis=1)  # node 5 left without edges
    tiny = Graph(g0.name, g0.edges[keep], g0.features, labels=g0.labels, n_classes=2)
    edgeless = Graph("edgeless", np.empty((0, 2)), g0.features)
    rng = np.random.default_rng(4)
    bench_tau = default_tau_cross(edge_homophily(benchmark_graph))
    for g, tau_cross in ((tiny, 0.5), (edgeless, 0.5), (benchmark_graph, bench_tau)):
        base = laplacian(g)
        mu_o, sigma_o = feature_stats(g.features)
        for n_p in (0, 10):  # n_p = 0 is the no_prompt ablation
            P = rng.standard_normal((n_p, g.feature_dim)) * sigma_o + mu_o
            pg = insert_prompt(g, P, 0.2, tau_cross)
            assert (pg.cross_edges.size > 0) == (n_p > 0)
            got, want = pg.laplacian(base), reference_laplacian(pg)
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def _one_filter_blocks(br, filt, x):
    """The (x, identity) column blocks of filter filt alone on br's
    operator, run on the signal [x, 0; 0, I] as the package runs a lone
    filter: one engine call, on the original nodes' rows."""
    n, w = x.shape
    n_p = br.gp.shape[1]
    signal = np.zeros((n + n_p, w + n_p))
    signal[:n, :w] = x
    signal[n:, w:] = np.eye(n_p)
    if isinstance(br.lap, RowWalk):
        (out,) = bank_filter_apply(br.lap, (filt,), signal)
    else:
        out = beta_filter_apply(br.lap, *filt, signal)[:n]
    return out[:, :w], out[:, w:]


@pytest.mark.parametrize("h, shared", [(0.2, False), (0.8, True)], ids=["wired", "shared_prompt"])
def test_filters_of_one_operator_share_a_pass_that_matches_each_filter_alone(h, shared):
    # at h=0.2 the default tau wires every pair, so the per-filter graphs of
    # the first build coincide; a shared prompt is one graph at any h
    g = generate(CsbmParams(n=1000, f=128, d_avg=20.0, h=h, mu=10.0, seed=0))
    frozen, split = _bench_setup(g)
    state = init_state(g, frozen, TuneConfig(n_prompt=10, seed=0, shared_prompt=shared), 2)
    shots = np.unique(np.concatenate(split.shot_indices))
    n, n_p = g.n_nodes, 10
    errors = []
    for rows in (None, shots):
        ops = prompt_mod._EdgeSetOperators(g, frozen.model)
        branches = ops.build(state, rows=rows)
        assert len({id(br.lap) for br in branches}) == 1
        if not shared:
            assert branches[0].prompted.mask.all()
        full = reference_laplacian(branches[0].prompted)
        at = np.arange(n) if rows is None else rows
        for k, (br, enc) in enumerate(zip(branches, frozen.model.encoders)):
            (kk, rr) = frozen.model.bank.filters[k]
            padded = np.vstack([g.features @ enc.weight.value, np.zeros((n_p, enc.weight.value.shape[1]))])
            base = beta_filter_apply(full, kk, rr, padded)[at]
            gp = beta_filter_apply(full, kk, rr, np.eye(n + n_p)[:, n:])[at]
            errors.append(np.max(np.abs(br.base - base)) / np.max(np.abs(base)))
            errors.append(np.max(np.abs(br.gp - gp)) / np.max(np.abs(gp)))
            # filter, then project: the engine's own output on [X, 0; 0, I]
            x_out, i_out = _one_filter_blocks(br, (kk, rr), g.features)
            assert np.array_equal(br.base, x_out @ enc.weight.value)
            assert np.array_equal(br.gp, i_out)
    # measured: at most 2.4e-15 of the largest entry (base; gp is exact)
    assert max(errors) < 1e-14


def test_an_operator_read_by_one_filter_keeps_its_projected_pass():
    g, frozen = tiny_setup(h=0.8)
    split = kshot_split(g, 3, seed=0)
    state = init_state(g, frozen, TuneConfig(n_prompt=4, seed=0), 2)
    rng = np.random.default_rng(3)
    for p in state.prompts:  # distinct rows per filter, so every branch differs
        p.value[...] += rng.standard_normal(p.value.shape)
    for rows in (None, np.unique(np.concatenate(split.shot_indices))):
        ops = prompt_mod._EdgeSetOperators(g, frozen.model)
        branches = ops.build(state, rows=rows)
        assert len({id(br.lap) for br in branches}) == len(branches)
        for k, (br, enc) in enumerate(zip(branches, frozen.model.encoders)):
            filt = frozen.model.bank.filters[k]
            base, gp = _one_filter_blocks(br, filt, g.features @ enc.weight.value)
            assert np.array_equal(br.base, base) and np.array_equal(br.gp, gp)


def test_a_fully_wired_build_filters_once_per_operator(monkeypatch):
    # one pass over [X, 0; 0, I] for every filter of the one operator
    g, frozen = tiny_setup()
    split = kshot_split(g, 2, seed=0)
    calls = []
    one, bank = prompt_mod.beta_filter_apply, prompt_mod.bank_filter_apply

    def counting_one(L, k, r, x):
        calls.append(1)
        return one(L, k, r, x)

    def counting_bank(L, filters, x, **kwargs):
        calls.append(len(filters))
        return bank(L, filters, x, **kwargs)

    monkeypatch.setattr(prompt_mod, "beta_filter_apply", counting_one)
    monkeypatch.setattr(prompt_mod, "bank_filter_apply", counting_bank)
    bank_size = frozen.model.bank.size
    for shared in (False, True):
        cfg = TuneConfig(n_prompt=3, tau_inner=0.0, tau_cross=0.0, shared_prompt=shared, seed=0)
        state = init_state(g, frozen, cfg, 2)
        for rows in (None, np.unique(np.concatenate(split.shot_indices))):
            calls.clear()
            ops = prompt_mod._EdgeSetOperators(g, frozen.model)
            branches = ops.build(state, rows=rows)
            assert all(br.prompted.mask.all() for br in branches)
            assert calls == [bank_size]


def test_an_operators_blocks_do_not_depend_on_earlier_builds(monkeypatch):
    # wiring A is filter 0's at init. Build 1: filter 0 reads A alone (a lone
    # pass). Build 2: filters 1 and 2 read A (a shared pass), filter 0 reads
    # another wiring. Build 3: all three read A, so filter 0 needs a shared
    # pass of its own although it holds lone blocks for A, and 1 and 2 reuse
    # theirs. Each build must get the bits a fresh cache gives it.
    g, frozen = tiny_setup(h=0.8)
    split = kshot_split(g, 3, seed=0)
    cfg = TuneConfig(n_prompt=4, seed=0)
    alike = init_state(g, frozen, cfg, 2)
    apart = init_state(g, frozen, cfg, 2)
    rng = np.random.default_rng(3)
    for p in apart.prompts[1:]:
        p.value[...] += rng.standard_normal(p.value.shape)
    pair = init_state(g, frozen, cfg, 2)
    pair.prompts[0].value[...] = apart.prompts[1].value
    passes = []
    one, bank = prompt_mod.beta_filter_apply, prompt_mod.bank_filter_apply

    def counting_one(L, k, r, x):
        passes.append(1)
        return one(L, k, r, x)

    def counting_bank(L, filters, x, **kwargs):
        passes.append(len(filters))
        return bank(L, filters, x, **kwargs)

    monkeypatch.setattr(prompt_mod, "beta_filter_apply", counting_one)
    monkeypatch.setattr(prompt_mod, "bank_filter_apply", counting_bank)
    for rows in (None, np.unique(np.concatenate(split.shot_indices))):
        ops = prompt_mod._EdgeSetOperators(g, frozen.model)
        first = ops.build(apart, rows=rows)
        assert len({br.prompted.key for br in first}) == len(first)
        # build 2 also gives filter 0 a lone pass on filter 1's wiring of build 1
        for state, readers, want_passes in ((pair, 2, [1, 2]), (alike, 3, [1])):
            passes.clear()
            later = ops.build(state, rows=rows)
            assert sorted(passes) == want_passes
            on_a = [br for br in later if br.prompted.key == first[0].prompted.key]
            assert len(on_a) == readers and all(br.lap is first[0].lap for br in on_a)
            fresh = prompt_mod._EdgeSetOperators(g, frozen.model).build(state, rows=rows)
            for got, want in zip(later, fresh):
                assert np.array_equal(got.base, want.base) and np.array_equal(got.gp, want.gp)


def test_an_operator_lives_while_the_builds_on_its_rows_read_it(monkeypatch):
    # training and validation builds of one call, with one shared prompt
    # wired as A or as B; counts the Laplacians and filter passes of each
    g, frozen = tiny_setup(h=0.8)
    split = kshot_split(g, 3, seed=0)
    rows, at = prompt_mod._loss_rows(np.concatenate(split.shot_indices))
    cfg = TuneConfig(n_prompt=4, shared_prompt=True, seed=0)
    a, b = init_state(g, frozen, cfg, 2), init_state(g, frozen, cfg, 2)
    b.prompts[0].value[...] += np.random.default_rng(3).standard_normal(b.prompts[0].value.shape)
    counts, seen = {"laplacians": 0, "passes": 0}, []
    assemble, one, bank, forward = (
        prompt_mod.PromptedGraph.laplacian, prompt_mod.beta_filter_apply,
        prompt_mod.bank_filter_apply, prompt_mod._forward,
    )

    def counting_laplacian(self, base, rows=None, top=1):
        counts["laplacians"] += 1
        return assemble(self, base, rows, top)

    def counting_one(L, k, r, x):
        counts["passes"] += 1
        return one(L, k, r, x)

    def counting_bank(L, filters, x, **kwargs):
        counts["passes"] += 1
        return bank(L, filters, x, **kwargs)

    def spy(g, frozen, state, branches, train):
        seen.append(branches)
        return forward(g, frozen, state, branches, train)

    monkeypatch.setattr(prompt_mod.PromptedGraph, "laplacian", counting_laplacian)
    monkeypatch.setattr(prompt_mod, "beta_filter_apply", counting_one)
    monkeypatch.setattr(prompt_mod, "bank_filter_apply", counting_bank)
    monkeypatch.setattr(prompt_mod, "_forward", spy)
    ops = prompt_mod._EdgeSetOperators(g, frozen.model)

    def build(state, train):
        counts.update(laplacians=0, passes=0)
        if train:
            prompt_mod._step(g, frozen, state, ops, rows, at)
        else:
            prompt_mod._full_forward(g, frozen, state, ops)
        return counts["laplacians"], counts["passes"], seen[-1][0]

    # (state, training build, Laplacians and passes it makes)
    script = [
        (a, True, 1), (a, False, 1),
        (a, True, 0),  # a validation build between leaves the training operators
        (b, False, 1), (a, False, 1),  # A -> B -> A on all rows: A is rebuilt
        (a, True, 0), (a, False, 0),
    ]
    branches = []
    for state, train, made in script:
        laplacians, passes, br = build(state, train)
        assert (laplacians, passes) == (made, made)
        branches.append(br)
    assert branches[0].prompted.key != branches[3].prompted.key
    assert branches[2].lap is branches[0].lap and branches[5].lap is branches[0].lap
    assert branches[4].lap is not branches[1].lap and branches[6].lap is branches[4].lap
    assert np.array_equal(branches[4].base, branches[1].base) and np.array_equal(branches[4].gp, branches[1].gp)
