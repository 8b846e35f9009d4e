"""Graph container, Laplacians, splits, and dataset directory round-trips."""

import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsgppt.cli import EXIT_DATA, main
from hsgppt.csbm import CsbmParams, generate
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
from hsgppt.graph import _read_edges


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


def test_graph_sort_matches_lexsort_and_finds_duplicates():
    rng = np.random.default_rng(4)
    n = 300
    pairs = rng.integers(0, n, size=(3000, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    shuffled = pairs[rng.permutation(len(pairs))]
    g = Graph("g", shuffled, np.zeros((n, 1)))
    want = shuffled[np.lexsort((shuffled[:, 1], shuffled[:, 0]))]
    assert g.edges.tobytes() == want.tobytes()
    # a duplicate far from its twin in the input is still found
    with pytest.raises(ValueError, match="duplicate"):
        Graph("g", np.concatenate([shuffled, shuffled[:1]]), np.zeros((n, 1)))


def test_laplacian_unnormalized_matches_definition():
    g = path_graph(5)
    L = laplacian(g, "unnormalized").toarray()
    A = np.zeros((5, 5))
    A[g.edges[:, 0], g.edges[:, 1]] = A[g.edges[:, 1], g.edges[:, 0]] = 1.0
    assert np.array_equal(L, np.diag([1.0, 2.0, 2.0, 2.0, 1.0]) - A)


def test_laplacian_normalized_exactly_symmetric_with_isolated_node():
    # node 3 is isolated: its row must reduce to the identity row
    edges = np.array([[0, 1], [1, 2]])
    L = laplacian_from_edges(edges, 4, "normalized").toarray()
    assert np.max(np.abs(L - L.T)) == 0.0
    assert L[3, 3] == 1.0 and np.all(L[3, :3] == 0)
    # eigenvalues of a normalized Laplacian lie in [0, 2]
    vals = np.linalg.eigvalsh(L)
    assert vals.min() > -1e-12 and vals.max() < 2 + 1e-12


def test_normalized_laplacian_is_built_once_and_locked(monkeypatch):
    import hsgppt.evaluate as evaluate
    from hsgppt.prompt import insert_prompt
    from hsgppt.spectral import CsrRows, FilterBank, bank_filter_apply, eigendecompose, row_walk

    g = generate(CsbmParams(n=60, f=4, d_avg=6.0, h=0.5, mu=4.0, seed=3))
    L = laplacian(g)
    assert laplacian(g, "normalized") is L and g.normalized_laplacian is L
    fresh = laplacian_from_edges(g.edges, g.n_nodes)
    assert (L != fresh).nnz == 0 and np.array_equal(L.data, fresh.data)
    assert not any(a.flags.writeable for a in (L.data, L.indices, L.indptr))
    with pytest.raises(ValueError, match="read-only"):
        L.data[0] = 0.0
    # every consumer runs on the locked matrix and leaves it as it was
    before = L.data.tobytes(), L.indices.tobytes(), L.indptr.tobytes()
    bank = FilterBank.full(2).filters
    rows = np.array([7, 2, 7])
    full = bank_filter_apply(L, bank, g.features)
    walk = row_walk(CsrRows(L), rows, 2, g.n_nodes)
    for got, want in zip(bank_filter_apply(walk, bank, g.features), full):
        assert np.array_equal(got, want[rows])
    assert (L[rows] != fresh[rows]).nnz == 0
    pg = insert_prompt(g, 3.0 * np.eye(4)[:2], 0.2, 0.5)
    pg.laplacian(L)
    pg.laplacian(L, rows, 2)
    eigendecompose(L)
    seen = []

    def spy(M, *args, **kwargs):
        seen.append(M.data.flags.writeable)
        return bank_filter_apply(M, *args, **kwargs)

    monkeypatch.setattr(evaluate, "bank_filter_apply", spy)
    evaluate.filter_sweep_study([0.5], [0], CsbmParams(n=60, f=4, d_avg=5.0, mu=6.0))
    assert seen == [False]
    assert (L.data.tobytes(), L.indices.tobytes(), L.indptr.tobytes()) == before


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
    train = set(np.concatenate(s.shot_indices).tolist())
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
    # a fresh array: writable, and no memory shared with the locked features
    assert not np.shares_memory(c, g.features) and c.flags.writeable
    perm = np.random.default_rng(3).permutation(g.n_nodes)
    assert np.array_equal(c, g.features[perm])


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
    n = 12346
    # ids of every width from 1 to 5 digits at both ends of an edge, and no edges
    widths = np.array([[0, 1], [1, 2], [0, 3], [2, 12345], [9, 10], [10, 99], [99, 100],
                       [100, 999], [999, 1000], [1000, 9999], [9999, 10000], [12344, 12345]])
    feats = rng.standard_normal((n, 2))
    mixed = rng.integers(-1, 3, size=n)
    for edges in (widths, np.empty((0, 2), dtype=np.int64)):
        for lab in (mixed, -np.ones(n, dtype=np.int64), None):
            g = Graph("toy", edges, feats, labels=lab, n_classes=3 if lab is not None else None)
            save_graph(g, tmp_path / "ds")
            # the numpy-scalar f-string loop the text format was defined by,
            # and the one %-format over Python ints that wrote it until now
            want_edges = "".join(f"{u}\t{v}\n" for u, v in g.edges)
            assert want_edges == ("%d\t%d\n" * g.n_edges) % tuple(g.edges.ravel().tolist())
            ys = g.labels if g.labels is not None else -np.ones(g.n_nodes, dtype=np.int64)
            want_labels = "".join(f"{y}\n" for y in ys)
            assert (tmp_path / "ds" / "edges.tsv").read_bytes() == want_edges.encode()
            assert (tmp_path / "ds" / "labels.tsv").read_bytes() == want_labels.encode()
            # a shape header, then the features as the astype copy wrote them
            want_bin = np.asarray(feats.shape, dtype="<u8").tobytes() + feats.astype("<f8").tobytes()
            assert (tmp_path / "ds" / "features.bin").read_bytes() == want_bin


def test_load_graph_canonical_edges_match_reference_reduction(tmp_path):
    # reversed pairs, duplicates in both orientations and self-loops
    n = 40
    rng = np.random.default_rng(8)
    raw = rng.integers(0, n, size=(3000, 2))
    ds = tmp_path / "ds"
    save_graph(Graph("e", np.empty((0, 2), dtype=np.int64), rng.standard_normal((n, 2))), ds)
    (ds / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in raw.tolist()))
    # the reduction _read_edges used before: min and max over each row
    kept = raw[raw[:, 0] != raw[:, 1]]
    canon = np.stack([kept.min(axis=1), kept.max(axis=1)], axis=1)
    _, first = np.unique(canon[:, 0] * n + canon[:, 1], return_index=True)
    want = canon[np.sort(first)]
    assert _read_edges(ds / "edges.tsv", n).tobytes() == want.tobytes()
    g = load_graph(ds)
    order = np.lexsort((want[:, 1], want[:, 0]))
    assert g.edges.tobytes() == want[order].tobytes()


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


FEATURES_BIN_HEADER = np.asarray([3, 2], dtype="<u8").tobytes()  # make_tsv_dataset's shape


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


def test_features_bin_ragged_payload_is_a_data_error(tmp_path, capsys):
    ds = make_tsv_dataset(tmp_path / "ds")
    payload = np.zeros(6, dtype="<f8").tobytes() + b"\0" * 3
    (ds / "features.bin").write_bytes(FEATURES_BIN_HEADER + payload)
    with pytest.raises(ShapeMismatchError, match="found 51 bytes") as info:
        load_graph(ds)
    assert info.value.path == ds / "features.bin"
    assert main(["analyze", "--data", str(ds), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


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


def test_load_graph_reports_bad_edge_lines(tmp_path):
    cases = [
        ("0\t1\n\n1\t2\t0\n", 3, "expected 'u<TAB>v', found 3 tokens"),
        ("0\t1\n2\n", 2, "found 1 tokens"),
        ("0\t1\n1\t2.0\n", 2, "non-integer node index"),
        ("1_0\t1\n", 1, "out of range"),  # int() reads 10
        ("0\t1\r\n1\t3\r\n", 2, r"node index out of range \[0, 3\)"),
        ("-1\t2\n", 1, "out of range"),
    ]
    for i, (edges, line, message) in enumerate(cases):
        ds = make_tsv_dataset(tmp_path / f"ds{i}", edges=edges)
        with pytest.raises(MalformedLineError, match=message) as info:
            load_graph(ds)
        assert info.value.path == ds / "edges.tsv"
        assert info.value.line == line


def test_non_ascii_lookalike_is_not_read_as_an_index(tmp_path):
    # numpy 2.4's loadtxt reads U+01FE as the integer 462; int() rejects it
    ds = make_tsv_dataset(tmp_path / "ds", n_nodes=500, edges="0\t1\n\u01fe\t1\n",
                          labels="0\n1\n" * 250)
    with pytest.raises(MalformedLineError, match="non-integer node index") as info:
        load_graph(ds)
    assert info.value.line == 2


def test_non_finite_tsv_feature_names_features_tsv(tmp_path):
    ds = make_tsv_dataset(tmp_path / "ds")
    (ds / "features.tsv").write_text("0.0\t1.0\nnan\t2.0\n2.0\t3.0\n")
    with pytest.raises(MalformedLineError, match="non-finite") as info:
        load_graph(ds)
    assert info.value.path == ds / "features.tsv"


BAD_BYTE = b"\xff"  # never valid UTF-8


def _set_meta(ds, **changes):
    meta = json.loads((ds / "meta.json").read_text())
    meta.update(changes)
    (ds / "meta.json").write_text(json.dumps(meta))


def _append_bad_byte(name, line):
    def damage(ds):
        text = (ds / name).read_bytes().splitlines(keepends=True)
        text[line - 1] = text[line - 1][:1] + BAD_BYTE + text[line - 1][1:]
        (ds / name).write_bytes(b"".join(text))

    return damage


@pytest.mark.parametrize(
    "damage, error, name, line, message",
    [
        (lambda ds: (ds / "meta.json").write_bytes(BAD_BYTE + b"{}"), MalformedLineError,
         "meta.json", 1, "not UTF-8"),
        (_append_bad_byte("features.tsv", 2), MalformedLineError, "features.tsv", 2, "not UTF-8"),
        (_append_bad_byte("labels.tsv", 3), MalformedLineError, "labels.tsv", 3, "not UTF-8"),
        (_append_bad_byte("edges.tsv", 2), MalformedLineError, "edges.tsv", 2, "not UTF-8"),
        (lambda ds: _set_meta(ds, n_nodes="abc"), MalformedLineError, "meta.json", None,
         "n_nodes must be an integer"),
        (lambda ds: _set_meta(ds, feature_dim=[3]), MalformedLineError, "meta.json", None,
         "feature_dim must be an integer"),
        (lambda ds: _set_meta(ds, n_nodes=3.5), MalformedLineError, "meta.json", None,
         "n_nodes must be an integer"),
        (lambda ds: _set_meta(ds, n_classes=True), MalformedLineError, "meta.json", None,
         "n_classes must be an integer"),
        (lambda ds: _set_meta(ds, n_classes=-2), MalformedLineError, "meta.json", None,
         "n_classes must be >= 0"),
        (lambda ds: (ds / "meta.json").write_text("[1, 2]"), MalformedLineError, "meta.json",
         None, "JSON object"),
        (lambda ds: _set_meta(ds, n_nodes=10**15), ShapeMismatchError, "features.tsv", None,
         "expected 1000000000000000 feature rows, found 3"),
        (lambda ds: (ds / "labels.tsv").write_text("0\n99999999999999999999\n1\n"),
         LabelRangeError, "labels.tsv", 2, "outside"),
    ],
    ids=["meta-utf8", "features-utf8", "labels-utf8", "edges-utf8", "n-nodes-text",
         "feature-dim-list", "n-nodes-float", "n-classes-bool", "n-classes-negative", "meta-list",
         "n-nodes-huge", "label-past-int64"],
)
def test_malformed_dataset_text_is_a_typed_data_error(tmp_path, capsys, damage, error, name, line,
                                                      message):
    ds = make_tsv_dataset(tmp_path / "ds")
    damage(ds)
    with pytest.raises(error, match=message) as info:
        load_graph(ds)
    assert info.value.path == ds / name
    assert info.value.line == line
    # the CLI reports it as a data error, exit 2
    assert main(["analyze", "--data", str(ds), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


@given(name=st.sampled_from(["labels.tsv", "features.tsv", "features.bin"]),
       content=st.one_of(st.binary(max_size=64),
                         st.binary(max_size=64).map(lambda b: FEATURES_BIN_HEADER + b),
                         st.text(st.sampled_from("0123456789-.e \t\n\r\xffab\u0967"),
                                 max_size=40).map(lambda t: t.encode("utf-8", "surrogateescape"))))
def test_arbitrary_bytes_in_a_text_file_load_or_raise_dataset_error(name, content):
    with tempfile.TemporaryDirectory() as tmp:
        ds = make_tsv_dataset(Path(tmp) / "ds")
        (ds / name).write_bytes(content)
        try:
            g = load_graph(ds)
        except DatasetError:
            return
        assert g.n_nodes == 3 and g.features.shape == (3, 2)


def test_generated_graph_round_trips(tmp_path):
    g = generate(CsbmParams(n=400, f=8, d_avg=10.0, h=0.3, mu=5.0, seed=2))
    save_graph(g, tmp_path / "ds")
    h = load_graph(tmp_path / "ds")
    assert h.name == g.name and h.n_classes == g.n_classes
    assert h.edges.tobytes() == g.edges.tobytes()
    assert h.features.tobytes() == g.features.tobytes()
    assert h.labels.tobytes() == g.labels.tobytes()


def read_edges_per_line(path, n):
    """Reference edge reader: the per-line loop the edges.tsv format was defined by.

    Returns (edges, self-loops dropped).
    """
    us, vs = [], []
    dropped = 0
    with path.open() as fh:
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedLineError(
                    f"expected 'u<TAB>v', found {len(parts)} tokens", path=path, line=i + 1
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLineError("non-integer node index", path=path, line=i + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedLineError(
                    f"node index out of range [0, {n})", path=path, line=i + 1
                )
            if u == v:
                dropped += 1
                continue
            if u > v:
                u, v = v, u
            us.append(u)
            vs.append(v)
    if not us:
        return np.empty((0, 2), dtype=np.int64), dropped
    edges = np.stack([np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1)
    keys = edges[:, 0] * n + edges[:, 1]
    _, first = np.unique(keys, return_index=True)
    return edges[np.sort(first)], dropped


N_NODES = 6
INDICES = st.integers(0, N_NODES - 1).map(str)
# tokens where int() and np.loadtxt may disagree sit beside plain indices
TOKENS = st.one_of(
    INDICES,
    st.sampled_from(
        ["6", "-1", "+1", "-0", "007", "1_0", "\u0967", "1.0", "1e0", "0x1", "x", "#",
         "99999999999999999999", "9223372036854775807"]
    ),
)
GAPS = st.sampled_from(["\t", " ", "\t ", "\x0c", "\x0b", "\x1c", "\x1f", "\xa0", "\u2028"])
ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
BLANK = st.sampled_from(["", " ", "\t", "\x0c", "\x1c", " \x0b "])


@st.composite
def edge_lines(draw):
    kind = draw(st.sampled_from(["pair", "pair", "pair", "pair", "blank", "tokens"]))
    if kind == "blank":
        return draw(BLANK) + draw(ENDS)
    count = 2 if kind == "pair" else draw(st.integers(1, 3))
    # half the pair lines are plain, so whole files often parse in one call
    pick = TOKENS if kind == "tokens" or draw(st.booleans()) else INDICES
    tokens = draw(st.lists(pick, min_size=count, max_size=count))
    gaps = [draw(GAPS) for _ in range(count - 1)]
    body = "".join(t + g for t, g in zip(tokens, gaps + [""]))
    return draw(st.sampled_from(["", " "])) + body + draw(st.sampled_from(["", "\t"])) + draw(ENDS)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _outcome(read, path):
    """(edges, self-loops dropped) or (exception class, line, message)."""
    records = _Records()
    logger = logging.getLogger("hsgppt.graph")
    logger.addHandler(records)
    try:
        result = read(path)
    except MalformedLineError as e:
        return type(e), e.line, str(e)
    finally:
        logger.removeHandler(records)
    if isinstance(result, tuple):
        return result[0].tolist(), result[1]
    dropped = sum(r.args[1] for r in records.records if "self-loop" in r.msg)
    return result.tolist(), dropped


@given(lines=st.lists(edge_lines(), max_size=12), strip_last_end=st.booleans())
def test_read_edges_matches_per_line_reference(lines, strip_last_end):
    text = "".join(lines)
    if strip_last_end:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda p: _read_edges(p, N_NODES), path)
        want = _outcome(lambda p: read_edges_per_line(p, N_NODES), path)
    assert got == want


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n \n\t\n",
        "0\t1\n1\t0\n2\t2\n1\t2\n0\t1\n3\t3\n",
        "0\t1\r\n\r\n5 4\r2\x0c3\n",
        "+1\t2\n1_0\t2\n",
        "\u0967\t2\n",
        "1.0\t2\n",
        "0\t1\t2\n",
        "0\t6\n",
    ],
)
def test_read_edges_named_cases_match_per_line_reference(tmp_path, text):
    path = tmp_path / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda p: _read_edges(p, N_NODES), path)
    assert got == _outcome(lambda p: read_edges_per_line(p, N_NODES), path)
