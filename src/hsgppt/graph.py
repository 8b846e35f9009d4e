"""Undirected graph container, dataset directory I/O, and split utilities.

Graphs are immutable after construction: edge arrays and feature matrices are
locked (numpy writeable flag cleared) so downstream stages cannot mutate a
shared instance in place. The normalized Laplacian is built once per graph,
on first use, and locked the same way.
"""

from __future__ import annotations

import io
import json
import logging
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

LaplacianKind = str  # "normalized" | "unnormalized"


class DatasetError(Exception):
    """Base class for dataset directory format violations."""

    def __init__(self, message, path=None, line=None):
        loc = str(path) if path is not None else "<memory>"
        if line is not None:
            loc = f"{loc}:{line}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


class MissingFileError(DatasetError):
    pass


class MalformedLineError(DatasetError):
    pass


class ShapeMismatchError(DatasetError):
    pass


class LabelRangeError(DatasetError):
    pass


def _locked(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _locked_csr(m):
    for a in (m.data, m.indices, m.indptr):
        a.setflags(write=False)
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional node labels.

    edges holds each undirected edge exactly once as (u, v) with u < v,
    sorted lexicographically. labels uses -1 for unlabeled nodes; None means
    the dataset carries no labels at all. Labels given without n_classes
    record one more than the largest label as it.
    """

    name: str
    edges: np.ndarray  # (m, 2) int64, canonical u < v
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None  # (n,) int64, -1 = unlabeled
    n_classes: int | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        n = feats.shape[0]
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be canonical (u < v, no self-loops)")
            # v < n, so key order is the (u, v) lexicographic order
            keys = edges[:, 0] * n + edges[:, 1]
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            if np.any(sorted_keys[1:] == sorted_keys[:-1]):
                raise ValueError("duplicate edges")
            edges = edges[order]
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError("labels length must match node count")
            if labels.min(initial=0) < -1:
                raise ValueError("labels must be >= -1")
            if self.n_classes is None:
                object.__setattr__(self, "n_classes", int(labels.max(initial=-1)) + 1)
            elif labels.max(initial=-1) >= self.n_classes:
                raise ValueError("label id exceeds n_classes")
        object.__setattr__(self, "features", _locked(feats))
        object.__setattr__(self, "edges", _locked(edges))
        object.__setattr__(self, "labels", _locked(labels) if labels is not None else None)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @cached_property
    def normalized_laplacian(self) -> sp.csr_matrix:
        """I - D^{-1/2} A D^{-1/2}, built on first use and kept; its arrays
        are locked like the graph's own."""
        return _locked_csr(laplacian_from_edges(self.edges, self.n_nodes))

    @cached_property
    def unnormalized_laplacian(self) -> sp.csr_matrix:
        """D - A, built on first use, kept and locked likewise."""
        return _locked_csr(laplacian_from_edges(self.edges, self.n_nodes, "unnormalized"))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DatasetSplit:
    """K-shot evaluation split.

    shot_indices[c] lists exactly K training nodes of class c. The remaining
    labeled nodes are divided between val and test (sizes differ by at most
    one). All three index sets are pairwise disjoint.
    """

    shot_indices: tuple
    val_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


def normalized_laplacian_entries(deg, rows, cols) -> np.ndarray:
    """Entries (rows, cols) of I - D^{-1/2} A D^{-1/2} for node degrees deg.

    D^{-1/2} = 0 on isolated nodes, -(d_i^{-1/2} d_j^{-1/2}) off the
    diagonal and 1 on it. Every normalized Laplacian is valued by this rule,
    so both endpoints of an edge hold the same bits.
    """
    dinv = np.zeros(deg.shape, dtype=np.float64)
    np.divide(1.0, np.sqrt(deg), out=dinv, where=deg > 0)
    data = dinv.take(rows)
    data *= dinv.take(cols)
    np.negative(data, out=data)
    data[rows == cols] = 1.0
    return data


def laplacian_from_edges(edges, n, kind="normalized") -> sp.csr_matrix:
    """Laplacian of the undirected graph given by a canonical edge array.

    normalized: I - D^{-1/2} A D^{-1/2} (normalized_laplacian_entries; an
    isolated node's row is the identity row). unnormalized: D - A.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    diag_idx = np.arange(n, dtype=np.int64)
    rows = np.concatenate([u, v, diag_idx])
    cols = np.concatenate([v, u, diag_idx])
    if kind == "normalized":
        data = normalized_laplacian_entries(deg, rows, cols)
    elif kind == "unnormalized":
        data = np.concatenate([-np.ones(2 * u.size), deg.astype(np.float64)])
    else:
        raise ValueError(f"unknown laplacian kind: {kind!r}")
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def laplacian(g: Graph, kind: LaplacianKind = "normalized") -> sp.csr_matrix:
    """The graph's Laplacian of either kind, g's read-only cached copy."""
    if kind == "normalized":
        return g.normalized_laplacian
    if kind == "unnormalized":
        return g.unnormalized_laplacian
    raise ValueError(f"unknown laplacian kind: {kind!r}")


def edge_homophily(g: Graph) -> float | None:
    """Fraction of edges whose endpoints share a label.

    Computed over edges with both endpoints labeled; on a fully labeled graph
    this is exactly (# same-label edges) / |E|. None where no edge has both
    endpoints labeled (no labels, or no edges): there it is undefined.
    """
    if g.labels is None:
        return None
    lu = g.labels[g.edges[:, 0]]
    lv = g.labels[g.edges[:, 1]]
    both = (lu >= 0) & (lv >= 0)
    if not np.any(both):
        return None
    return float(np.mean(lu[both] == lv[both]))


def kshot_split(g: Graph, k: int, seed: int) -> DatasetSplit:
    """Sample K labeled nodes per class; split the rest 50/50 into val/test."""
    if g.labels is None:
        raise ValueError("labels absent")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    shots = []
    taken = np.zeros(g.n_nodes, dtype=bool)
    for c in range(g.n_classes):
        members = np.flatnonzero(g.labels == c)
        if members.size < k + 2:
            raise ValueError(
                f"class {c} has {members.size} labeled nodes, needs at least {k + 2}"
            )
        pick = rng.choice(members, size=k, replace=False)
        pick = np.sort(pick)
        shots.append(pick)
        taken[pick] = True
    rest = np.flatnonzero((g.labels >= 0) & ~taken)
    perm = rng.permutation(rest)
    half = perm.size // 2
    val = np.sort(perm[:half])
    test = np.sort(perm[half:])
    return DatasetSplit(
        shot_indices=tuple(shots), val_indices=val, test_indices=test, seed=seed
    )


def corrupt_features(g: Graph, seed: int) -> np.ndarray:
    """Row-permuted copy of the feature matrix (uniform permutation)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n_nodes)
    return g.features[perm]


def svd_reduce(features: np.ndarray, dim: int) -> np.ndarray:
    """Project features onto their top `dim` right singular vectors.

    Singular-vector signs are fixed so the largest-magnitude entry of each
    vector is positive, making the projection deterministic.
    """
    X = np.asarray(features, dtype=np.float64)
    if dim < 1 or dim > min(X.shape):
        raise ValueError(f"dim {dim} outside [1, min{X.shape}]")
    _, _, vt = np.linalg.svd(X, full_matrices=False)
    v = vt.T[:, :dim].copy()
    for j in range(dim):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return X @ v


# ---------------------------------------------------------------------------
# dataset directory format
# ---------------------------------------------------------------------------

_META = "meta.json"
_EDGES = "edges.tsv"
_FEATURES_BIN = "features.bin"
_FEATURES_TSV = "features.tsv"
_LABELS = "labels.tsv"


def _require(path: Path):
    if not path.is_file():
        raise MissingFileError("file not found", path=path)
    return path


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8; a byte that is not UTF-8 is a malformed line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        before = io.StringIO(raw[: e.start].decode("utf-8"), newline=None).read()
        raise MalformedLineError("not UTF-8 text", path=path, line=before.count("\n") + 1)


def _lines(path: Path):
    """The file's lines as text mode reads them (universal newlines)."""
    return io.StringIO(_read_text(path), newline=None)


def _read_features_bin(path: Path, n: int, d: int) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 16:
        raise ShapeMismatchError("truncated header", path=path)
    counts = np.frombuffer(raw[:16], dtype="<u8")
    fn, fd = int(counts[0]), int(counts[1])
    if fn != n or fd != d:
        raise ShapeMismatchError(
            f"header says {fn}x{fd}, meta.json says {n}x{d}", path=path
        )
    payload = len(raw) - 16
    if payload != 8 * n * d:
        raise ShapeMismatchError(
            f"expected {n * d} float64 values ({8 * n * d} bytes), found {payload} bytes",
            path=path,
        )
    return np.frombuffer(raw[16:], dtype="<f8").reshape(n, d).astype(np.float64)


def _read_features_tsv(path: Path, n: int, d: int) -> np.ndarray:
    rows = []  # sized by the file, so a huge n_nodes or feature_dim allocates nothing
    for i, line in enumerate(_lines(path)):
        parts = line.split()
        if i >= n:
            raise ShapeMismatchError(f"more than {n} feature rows", path=path, line=i + 1)
        if len(parts) != d:
            raise MalformedLineError(
                f"expected {d} values, found {len(parts)}", path=path, line=i + 1
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise MalformedLineError("non-numeric feature value", path=path, line=i + 1)
    if len(rows) != n:
        raise ShapeMismatchError(f"expected {n} feature rows, found {len(rows)}", path=path)
    return np.array(rows, dtype=np.float64).reshape(n, d)


def _read_edges(path: Path, n: int):
    """Canonical (u < v) edges in order of first occurrence, self-loops dropped.

    A well-formed ASCII file is parsed by one np.loadtxt call. Anything else
    (a token loadtxt rejects, a row without two columns, an index out of
    range, or non-ASCII text, which numpy 2.4's loadtxt can misread as a
    different integer or crash on) goes to the per-line reader, which names
    the first bad line. loadtxt is handed the path, which it reads in chunks
    as ASCII text with universal newlines; a text buffer it would read line
    by line, at about twice the cost.
    """
    try:
        with warnings.catch_warnings():
            # a blank file warns "input contained no data" and parses to
            # shape (0, 1), which the per-line reader then handles
            warnings.simplefilter("ignore", UserWarning)
            # a UnicodeDecodeError is a ValueError
            raw = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None, encoding="ascii")
    except (ValueError, OverflowError):
        return _read_edges_by_line(path, n)
    if raw.shape[1] != 2 or raw.min() < 0 or raw.max() >= n:
        return _read_edges_by_line(path, n)
    loop = raw[:, 0] == raw[:, 1]
    _warn_self_loops(path, int(np.count_nonzero(loop)))
    raw = raw[~loop]
    u, v = raw[:, 0], raw[:, 1]
    edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    return _first_occurrences(edges, n)


def _read_edges_by_line(path: Path, n: int):
    us, vs = [], []
    dropped = 0
    with _lines(path) as fh:
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
    _warn_self_loops(path, dropped)
    edges = np.stack([np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1)
    return _first_occurrences(edges, n)


def _warn_self_loops(path: Path, dropped: int):
    if dropped:
        log.warning("%s: dropped %d self-loop(s)", path, dropped)


def _first_occurrences(edges, n):
    """The first occurrence of each distinct edge, in input order."""
    keys = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return edges[np.sort(order[first])]


def _read_labels(path: Path, n: int, n_classes: int):
    with _lines(path) as fh:
        tokens = [(i + 1, tok) for i, line in enumerate(fh) if (tok := line.strip())]
    if len(tokens) != n:
        raise ShapeMismatchError(
            f"expected {n} label lines, found {len(tokens)}", path=path
        )
    try:
        ints = [int(tok) for _, tok in tokens]
    except ValueError:
        ints = None
    if ints is not None:
        # checked as Python ints: a label past int64 is out of range, not an overflow
        bad = next((i for i, y in enumerate(ints) if not -1 <= y < n_classes), None)
        if bad is not None:
            lineno, tok = tokens[bad]
            raise LabelRangeError(
                f"label {tok} outside [0, {n_classes})", path=path, line=lineno
            )
        return np.asarray(ints, dtype=np.int64)
    # string class names: remap sorted distinct names to dense ids
    names = sorted({tok for _, tok in tokens if tok != "-1"})
    if len(names) > n_classes:
        raise LabelRangeError(
            f"{len(names)} distinct labels exceed n_classes={n_classes}", path=path
        )
    lut = {name: i for i, name in enumerate(names)}
    return np.asarray(
        [-1 if tok == "-1" else lut[tok] for _, tok in tokens], dtype=np.int64
    )


def _meta_count(meta: dict, key: str, path: Path) -> int:
    value = meta[key]
    # bool is an int subclass; a float or a numeric string is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedLineError(f"{key} must be an integer, found {value!r}", path=path)
    if value < 0:
        raise MalformedLineError(f"{key} must be >= 0, found {value}", path=path)
    return value


def load_graph(path) -> Graph:
    """Load a dataset directory (meta.json, edges.tsv, features, labels.tsv).

    Features come from features.bin (two little-endian uint64 counts, then
    row-major little-endian float64) or, as a fallback, features.tsv. Edges
    are deduplicated and symmetrized; self-loops are dropped with a warning.
    """
    root = Path(path)
    if not root.is_dir():
        raise MissingFileError("dataset directory not found", path=root)
    meta_path = _require(root / _META)
    try:
        meta = json.loads(_read_text(meta_path))
    except json.JSONDecodeError as e:
        raise MalformedLineError(f"invalid JSON: {e}", path=meta_path)
    if not isinstance(meta, dict):
        raise MalformedLineError("meta.json must hold a JSON object", path=meta_path)
    for key in ("n_nodes", "feature_dim", "n_classes", "name"):
        if key not in meta:
            raise MalformedLineError(f"meta.json missing key {key!r}", path=meta_path)
    n, d, n_classes = (
        _meta_count(meta, key, meta_path) for key in ("n_nodes", "feature_dim", "n_classes")
    )

    features_path = root / _FEATURES_BIN
    if features_path.is_file():
        features = _read_features_bin(features_path, n, d)
    else:
        features_path = _require(root / _FEATURES_TSV)
        features = _read_features_tsv(features_path, n, d)
    if not np.all(np.isfinite(features)):
        raise MalformedLineError("non-finite feature value", path=features_path)

    edges = _read_edges(_require(root / _EDGES), n)
    labels = _read_labels(_require(root / _LABELS), n, n_classes)
    if np.all(labels < 0):
        labels = None
    return Graph(
        name=str(meta["name"]),
        edges=edges,
        features=features,
        labels=labels,
        n_classes=n_classes if labels is not None else None,
    )


def save_graph(g: Graph, path) -> list[str]:
    """Write a graph as a dataset directory (features stored as features.bin);
    returns the names of the files written."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "feature_dim": g.feature_dim,
        "n_classes": g.n_classes if g.n_classes is not None else 0,
        "n_nodes": g.n_nodes,
        "name": g.name,
    }
    (root / _META).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    # the per-line f"{u}\t{v}\n" text, joined from each node's "u\t" and "v\n"
    # strings, formed once per node and gathered per edge
    ends = np.empty((2, g.n_nodes), dtype=object)
    ends[:] = [[f"{i}{end}" for i in range(g.n_nodes)] for end in "\t\n"]
    (root / _EDGES).write_text("".join(ends[[0, 1], g.edges].ravel().tolist()))
    with (root / _FEATURES_BIN).open("wb") as fh:
        fh.write(np.asarray(g.features.shape, dtype="<u8").tobytes())
        fh.write(memoryview(np.ascontiguousarray(g.features, dtype="<f8")))
    labels = g.labels if g.labels is not None else -np.ones(g.n_nodes, dtype=np.int64)
    (root / _LABELS).write_text(("%d\n" * g.n_nodes) % tuple(labels.tolist()))
    return [_META, _EDGES, _FEATURES_BIN, _LABELS]


# feature transforms applied by CLI flag, never by the loader
def transform_features(features: np.ndarray, mode: str) -> np.ndarray:
    if mode == "none":
        return features
    if mode == "row-normalize":
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return features / norms
    if mode == "binarize":
        return (features > 0).astype(np.float64)
    raise ValueError(f"unknown feature transform: {mode!r}")


def with_features(g: Graph, features: np.ndarray) -> Graph:
    """Copy of g with a replaced feature matrix (same name, structure and labels)."""
    return Graph(
        name=g.name,
        edges=g.edges,
        features=features,
        labels=g.labels,
        n_classes=g.n_classes,
    )
