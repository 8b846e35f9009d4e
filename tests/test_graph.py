"""Graph container, Laplacians, splits, and dataset directory round-trips."""

import json

import numpy as np
import pytest

from hsgppt.graph import (
    DatasetError,
    Graph,
    LabelRangeError,
    MalformedLineError,
    MissingFileError,
    ShapeMismatchError,
    corrupt_features,
    edge_homophily,
    kshot_split,
    laplacian,
    laplacian_from_edges,
    load_graph,
    save_graph,
    svd_reduce,
    transform_features,
    with_features,
)


def path_graph(n=4, d=3, labels=None):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    rng = np.random.default_rng(0)
    return Graph("path", edges, rng.standard_normal((n, d)), labels=labels,
                 n_classes=None if labels is None else int(max(labels)) + 1)


def test_graph_sorts_and_locks():
    edges = np.array([[1, 2], [0, 3], [0, 1]])  # canonical but unsorted
    g = Graph("g", edges, np.zeros((4, 2)))
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert not g.edges.flags.writeable
    assert not g.features.flags.writeable
    with pytest.raises(ValueError):
        g.features[0, 0] = 1.0


def test_graph_rejects_bad_edges():
    feats = np.zeros((3, 1))
    with pytest.raises(ValueError, match="out of range"):
        Graph("g", np.array([[0, 3]]), feats)
    with pytest.raises(ValueError, match="canonical"):
        Graph("g", np.array([[1, 0]]), feats)  # reversed pair
    with pytest.raises(ValueError, match="canonical"):
        Graph("g", np.array([[1, 1]]), feats)  # self-loop
    with pytest.raises(ValueError, match="duplicate"):
        Graph("g", np.array([[0, 1], [0, 1]]), feats)
    with pytest.raises(ValueError, match="finite"):
        Graph("g", np.array([[0, 1]]), np.array([[np.inf], [0.0], [0.0]]))
    with pytest.raises(ValueError, match="n_classes"):
        Graph("g", np.array([[0, 1]]), feats, labels=[0, 1, 2], n_classes=2)


def test_degrees_and_adjacency():
    g = path_graph(4)
    assert g.degrees.tolist() == [1, 2, 2, 1]
    A = g.adjacency.toarray()
    assert np.array_equal(A, A.T)
    assert A.sum() == 2 * g.n_edges


def test_laplacian_unnormalized_matches_definition():
    g = path_graph(5)
    L = laplacian(g, "unnormalized").toarray()
    D = np.diag(g.degrees)
    A = g.adjacency.toarray()
    assert np.array_equal(L, D - A)


def test_laplacian_normalized_exactly_symmetric_with_isolated_node():
    # node 3 is isolated: its row must reduce to the identity row
    edges = np.array([[0, 1], [1, 2]])
    L = laplacian_from_edges(edges, 4, "normalized").toarray()
    assert np.max(np.abs(L - L.T)) == 0.0
    assert L[3, 3] == 1.0 and np.all(L[3, :3] == 0)
    # eigenvalues of a normalized Laplacian lie in [0, 2]
    vals = np.linalg.eigvalsh(L)
    assert vals.min() > -1e-12 and vals.max() < 2 + 1e-12


def test_laplacian_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        laplacian_from_edges(np.array([[0, 1]]), 2, "rw")


def test_edge_homophily_hand_case():
    # triangle 0-1-2 with labels [0, 0, 1]: edges (0,1) same, (0,2), (1,2) differ
    g = Graph("t", np.array([[0, 1], [0, 2], [1, 2]]), np.zeros((3, 1)),
              labels=[0, 0, 1], n_classes=2)
    assert edge_homophily(g) == pytest.approx(1 / 3)


def test_edge_homophily_ignores_unlabeled_endpoints():
    g = Graph("t", np.array([[0, 1], [1, 2]]), np.zeros((3, 1)),
              labels=[0, 0, -1], n_classes=2)
    assert edge_homophily(g) == 1.0  # the (1,2) edge is excluded


def test_kshot_split_shapes_and_disjointness():
    labels = np.array([0] * 10 + [1] * 10)
    g = Graph("g", np.empty((0, 2)), np.zeros((20, 2)), labels=labels, n_classes=2)
    s = kshot_split(g, 3, seed=7)
    assert len(s.shot_indices) == 2
    assert all(len(si) == 3 for si in s.shot_indices)
    for c, si in enumerate(s.shot_indices):
        assert np.all(labels[si] == c)
    train = set(s.train_indices.tolist())
    val = set(s.val_indices.tolist())
    test = set(s.test_indices.tolist())
    assert not (train & val) and not (train & test) and not (val & test)
    assert len(train | val | test) == 20
    assert abs(len(val) - len(test)) <= 1


def test_kshot_split_deterministic_and_seed_sensitive():
    labels = np.array([0] * 10 + [1] * 10)
    g = Graph("g", np.empty((0, 2)), np.zeros((20, 2)), labels=labels, n_classes=2)
    a = kshot_split(g, 3, seed=1)
    b = kshot_split(g, 3, seed=1)
    c = kshot_split(g, 3, seed=2)
    assert np.array_equal(a.val_indices, b.val_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    assert not np.array_equal(a.val_indices, c.val_indices)


def test_kshot_split_too_few_members():
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    g = Graph("g", np.empty((0, 2)), np.zeros((8, 1)), labels=labels, n_classes=2)
    with pytest.raises(ValueError, match="class 0 has 3 labeled nodes, needs at least 4"):
        kshot_split(g, 2, seed=0)


def test_corrupt_features_is_row_permutation():
    g = path_graph(6, d=4)
    c = corrupt_features(g, seed=3)
    assert c.shape == g.features.shape
    assert not np.array_equal(c, g.features)
    assert np.allclose(np.sort(c, axis=0), np.sort(g.features, axis=0))


def test_svd_reduce_preserves_distances_at_full_rank():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    Y = svd_reduce(X, 4)
    # full-rank projection is an isometry up to the orthogonal basis change
    gx = X @ X.T
    gy = Y @ Y.T
    assert np.allclose(gx, gy, atol=1e-10)
    assert np.array_equal(svd_reduce(X, 4), Y)  # deterministic
    with pytest.raises(ValueError):
        svd_reduce(X, 5)


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    g = Graph("toy", np.array([[0, 1], [1, 2], [0, 3]]),
              rng.standard_normal((4, 3)), labels=[0, 1, -1, 1], n_classes=2)
    save_graph(g, tmp_path / "ds")
    h = load_graph(tmp_path / "ds")
    assert h.name == "toy"
    assert np.array_equal(h.edges, g.edges)
    assert np.array_equal(h.features, g.features)  # bit-exact via features.bin
    assert np.array_equal(h.labels, g.labels)
    assert h.n_classes == 2


def test_save_graph_text_matches_per_line_format(tmp_path):
    rng = np.random.default_rng(3)
    edges = np.array([[0, 1], [1, 2], [0, 3], [2, 12345]])
    feats = rng.standard_normal((12346, 2))
    labels = rng.integers(-1, 3, size=12346)
    for lab in (labels, None):
        g = Graph("toy", edges, feats, labels=lab, n_classes=3 if lab is not None else None)
        save_graph(g, tmp_path / "ds")
        # the numpy-scalar f-string loop the text format was defined by
        want_edges = "".join(f"{u}\t{v}\n" for u, v in g.edges)
        ys = g.labels if g.labels is not None else -np.ones(g.n_nodes, dtype=np.int64)
        want_labels = "".join(f"{y}\n" for y in ys)
        assert (tmp_path / "ds" / "edges.tsv").read_bytes() == want_edges.encode()
        assert (tmp_path / "ds" / "labels.tsv").read_bytes() == want_labels.encode()


def test_load_graph_errors(tmp_path):
    with pytest.raises(MissingFileError):
        load_graph(tmp_path / "nope")

    ds = tmp_path / "ds"
    ds.mkdir()
    with pytest.raises(MissingFileError):
        load_graph(ds)

    (ds / "meta.json").write_text("{not json")
    with pytest.raises(MalformedLineError, match="invalid JSON"):
        load_graph(ds)

    (ds / "meta.json").write_text(json.dumps({"n_nodes": 2, "feature_dim": 1}))
    with pytest.raises(MalformedLineError, match="missing key"):
        load_graph(ds)


def make_tsv_dataset(root, n_nodes=3, edges="0\t1\n1\t2\n", labels="0\n1\n0\n"):
    root.mkdir(exist_ok=True)
    meta = {"n_nodes": n_nodes, "feature_dim": 2, "n_classes": 2, "name": "t"}
    (root / "meta.json").write_text(json.dumps(meta))
    (root / "features.tsv").write_text("".join(f"{i}.0\t{i + 1}.0\n" for i in range(n_nodes)))
    (root / "edges.tsv").write_text(edges)
    (root / "labels.tsv").write_text(labels)
    return root


def test_load_graph_tsv_fallback_and_dedup(tmp_path):
    # duplicate edge (given both ways) and a self-loop to drop
    ds = make_tsv_dataset(tmp_path / "ds", edges="0\t1\n1\t0\n2\t2\n1\t2\n")
    g = load_graph(ds)
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.features[1].tolist() == [1.0, 2.0]


def test_load_graph_label_variants(tmp_path):
    ds = make_tsv_dataset(tmp_path / "a", labels="5\n0\n1\n")
    with pytest.raises(LabelRangeError, match="outside"):
        load_graph(ds)

    ds = make_tsv_dataset(tmp_path / "b", labels="mouse\ncat\nmouse\n")
    g = load_graph(ds)
    assert g.labels.tolist() == [1, 0, 1]  # sorted names -> dense ids

    ds = make_tsv_dataset(tmp_path / "c", labels="-1\n-1\n-1\n")
    g = load_graph(ds)
    assert g.labels is None and g.n_classes is None


def test_load_graph_shape_errors(tmp_path):
    ds = make_tsv_dataset(tmp_path / "ds")
    (ds / "features.tsv").write_text("1.0\t2.0\n")
    with pytest.raises(ShapeMismatchError):
        load_graph(ds)
    (ds / "features.tsv").write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(MalformedLineError, match="expected 2 values"):
        load_graph(ds)


def test_features_bin_header_mismatch(tmp_path):
    ds = make_tsv_dataset(tmp_path / "ds")
    bad = np.asarray([5, 2], dtype="<u8").tobytes() + np.zeros(10, dtype="<f8").tobytes()
    (ds / "features.bin").write_text("")  # ensure it exists then overwrite
    (ds / "features.bin").write_bytes(bad)
    with pytest.raises(ShapeMismatchError, match="header says 5x2"):
        load_graph(ds)


def test_dataset_error_is_catch_all_base(tmp_path):
    try:
        load_graph(tmp_path / "missing")
    except DatasetError as e:
        assert "missing" in str(e)
    else:
        raise AssertionError("expected DatasetError")


def test_transform_features():
    X = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]])
    rn = transform_features(X, "row-normalize")
    assert np.allclose(np.linalg.norm(rn[0]), 1.0)
    assert np.all(rn[1] == 0)  # zero rows stay zero
    assert transform_features(X, "binarize").tolist() == [[1, 1], [0, 0], [0, 0]]
    assert transform_features(X, "none") is X
    with pytest.raises(ValueError):
        transform_features(X, "whiten")


def test_with_features_keeps_structure():
    g = path_graph(4, labels=[0, 1, 0, 1])
    h = with_features(g, np.ones((4, 7)))
    assert h.feature_dim == 7
    assert np.array_equal(h.edges, g.edges)
    assert np.array_equal(h.labels, g.labels)
