"""Beta-shaped spectral filter bank and frequency diagnostics.

The bank of order C holds the C+1 kernels

    g_{k,r}(lambda) = (lambda/2)^k (1 - lambda/2)^r / (2 B(k+1, r+1)),
    k + r = C,

over the normalized-Laplacian spectrum [0, 2]. g_{0,C} is the low-pass end,
g_{C,0} the high-pass end, interior members are band-pass. A bank is
applied by walking the (I - L/2)^j ladder once and branching off each kernel
where its r steps end, which takes C(C+1)/2 sparse matrix products for a full
bank of order C (each kernel on its own would take k+r, C(C+1) in all); the
Laplacian is never densified. Given `rows`, the same walk computes only the
rows of the outputs asked for: each step runs on the ball of rows that the
steps after it read (see bank_filter_apply).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, edge_homophily, laplacian

DENSE_EIGEN_LIMIT = 5000

TRIPLE_FILTERS = ("low", "mid", "high")


def beta_constant(k: int, r: int) -> float:
    """1 / (2 B(k+1, r+1)) = (k+r+1) C(k+r, k) / 2.

    Integer arithmetic keeps small orders exact; the log-space form is the
    fallback once the value leaves float range, so large k+r cannot overflow
    intermediate factorials.
    """
    if k < 0 or r < 0:
        raise ValueError("filter indices must be non-negative")
    try:
        return (k + r + 1) * math.comb(k + r, k) / 2
    except OverflowError:
        log_beta = math.lgamma(k + 1) + math.lgamma(r + 1) - math.lgamma(k + r + 2)
        return math.exp(-math.log(2.0) - log_beta)


def filter_response(filt, lam):
    """Scalar response of a bank entry (k, r) or a reference filter name.

    Reference filters: low = 1 - lambda/2, mid = 1 - (lambda-1)^2,
    high = lambda/2. lambda must lie in [0, 2].
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0) or np.any(lam > 2):
        raise ValueError("lambda outside [0, 2]")
    if isinstance(filt, str):
        if filt == "low":
            out = 1.0 - lam / 2.0
        elif filt == "mid":
            out = 1.0 - (lam - 1.0) ** 2
        elif filt == "high":
            out = lam / 2.0
        else:
            raise ValueError(f"unknown reference filter: {filt!r}")
    else:
        k, r = filt
        out = beta_constant(k, r) * (lam / 2.0) ** k * (1.0 - lam / 2.0) ** r
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FilterBank:
    """Ordered collection of (k, r) kernel exponents with k + r = order."""

    filters: tuple

    def __post_init__(self):
        if not self.filters:
            raise ValueError("bank must hold at least one filter")
        order = sum(self.filters[0])
        for k, r in self.filters:
            if k < 0 or r < 0 or k + r != order:
                raise ValueError("all filters must satisfy k + r = order, k, r >= 0")

    @classmethod
    def full(cls, order: int) -> "FilterBank":
        """All C+1 kernels of the given order, low-pass first."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls(tuple((k, order - k) for k in range(order + 1)))

    @classmethod
    def low_pass(cls, order: int) -> "FilterBank":
        """Single-kernel bank holding only the low-pass member g_{0,C}."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls(((0, order),))

    @property
    def order(self) -> int:
        return sum(self.filters[0])

    @property
    def size(self) -> int:
        return len(self.filters)

    def constants(self):
        return [beta_constant(k, r) for k, r in self.filters]


def bank_filter_apply(L: sp.spmatrix, filters, x: np.ndarray, rows=None) -> list:
    """[g_{k,r}(L) x for (k, r) in filters], sharing the ladder prefixes.

    Rung j of the ladder is (I - L/2)^j x, shared by every kernel with
    r >= j. The one step (L/2) rung_j feeds both rung j+1 and the first L/2
    step of each kernel with r = j, so a full bank of order C takes
    C(C+1)/2 sparse matmuls. Each output is the same operations in the same
    order as running its kernel alone, so it is equal bit for bit. x may be
    a vector or a matrix; filters may be in any order.

    rows (node indices, any order, repeats allowed) asks for those rows of
    every output only: out[i] equals the full output's [rows], bit for bit.
    A step that d more products turn into an output is needed only on the
    ball N^d[rows] of L's sparsity pattern, so each product runs with
    L[N^d[rows]]. L must then be a scipy sparse matrix, and only its rows in
    N^{C-1}[rows] are read (C the largest k+r), so a caller may pass a matrix
    that holds just those rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if L.shape[1] != x.shape[0]:
        raise ValueError(f"L is {L.shape}, signal has {x.shape[0]} rows")
    filters = list(filters)
    consts = [beta_constant(k, r) for k, r in filters]  # validates k, r >= 0
    if rows is not None:
        return _bank_rows(L.tocsr(), filters, consts, x, rows)
    out = [None] * len(filters)
    top = max((r for _, r in filters), default=-1)
    rung = x
    for j in range(top + 1):
        here = [i for i, (_, r) in enumerate(filters) if r == j]
        half = None
        if j < top or any(filters[i][0] for i in here):
            half = L @ rung
            half *= 0.5
        for i in here:
            y = half if filters[i][0] else rung
            for _ in range(filters[i][0] - 1):
                y = L @ y
                y *= 0.5
            out[i] = consts[i] * y
        if j < top:
            if j == 0:
                rung = rung - half  # rung 0 is the caller's x
            else:
                rung -= half
    return out


def _bank_rows(L: sp.csr_matrix, filters, consts, x: np.ndarray, rows) -> list:
    """bank_filter_apply's walk, each step on the rows its consumers read.

    A backward pass tags every rung and chain step with its depth d, the
    number of products between it and an output; a value of depth d is
    formed on the ball B_d = N^d[rows] (B_0 = the sorted rows, B_{d+1} the
    columns of L[B_d]), which holds every row a product at depth d-1 reads.
    The forward pass is the full walk's, with each product taken as
    L[B_d] @ y and each elementwise step on the rows of its own ball.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= L.shape[0]):
        raise ValueError(f"rows must lie in [0, {L.shape[0]})")
    top = max((r for _, r in filters), default=-1)
    # depth of rung j and of half_j = (L/2) rung_j; -1 where nothing reads it
    d_rung = [-1] * (top + 2)
    d_half = [-1] * (top + 1)
    for j in range(top, -1, -1):
        ks = [k for k, r in filters if r == j]
        d_half[j] = max([k - 1 for k in ks if k] + [d_rung[j + 1]])
        d_rung[j] = max([0 for k in ks if not k] + [d_rung[j + 1]])
        if d_half[j] >= 0:
            d_rung[j] = max(d_rung[j], d_half[j] + 1)

    walk = _RowBalls(L, rows)
    out = [None] * len(filters)
    rung = (x, None)
    for j in range(top + 1):
        here = [i for i, (_, r) in enumerate(filters) if r == j]
        half = walk.half_step(rung, d_half[j]) if d_half[j] >= 0 else None
        for i in here:
            k = filters[i][0]
            y = half if k else rung
            for t in range(k - 1):
                y = walk.half_step(y, k - 2 - t)
            out[i] = consts[i] * walk.take(y, 0)
        if j < top:
            d = d_rung[j + 1]
            rung = (walk.take(rung, d) - walk.take(half, d), d)
    if not np.array_equal(rows, walk.ball(0)):
        at = np.searchsorted(walk.ball(0), rows)
        out = [y[at] for y in out]
    return out


class _RowBalls:
    """The balls B_d = N^d[rows] of L's sparsity pattern, L's rows on them,
    and the two steps of the walk on values kept on a ball.

    A value is (array, depth): its rows are B_depth, or every row of the
    signal for depth None.
    """

    def __init__(self, L: sp.csr_matrix, rows):
        self.L = L
        self.balls = [np.unique(rows)]
        self.blocks = []  # L[B_d]
        self.renumbered = {}  # (d, e) -> L[B_d], columns numbered within B_e

    def ball(self, d):
        while len(self.balls) <= d:
            self.balls.append(np.union1d(self.balls[-1], self.block(len(self.balls) - 1).indices))
        return self.balls[d]

    def block(self, d):
        while len(self.blocks) <= d:
            self.blocks.append(self.L[self.ball(len(self.blocks))])
        return self.blocks[d]

    def take(self, v, d):
        """v on the rows of B_d."""
        a, e = v
        if e == d:
            return a
        if e is None:
            return a[self.ball(d)]
        return a[np.searchsorted(self.ball(e), self.ball(d))]

    def half_step(self, v, d):
        """(L/2) v on the rows of B_d; v must be known on B_{d+1}."""
        a, e = v
        m = self.block(d)
        if e is not None:
            if (d, e) not in self.renumbered:
                place = np.full(self.L.shape[1], -1, dtype=np.int64)
                place[self.ball(e)] = np.arange(self.ball(e).size)
                self.renumbered[d, e] = sp.csr_matrix(
                    (m.data, place[m.indices], m.indptr), shape=(m.shape[0], self.ball(e).size)
                )
            m = self.renumbered[d, e]
        y = m @ a
        y *= 0.5
        return y, d


def beta_filter_apply(L: sp.spmatrix, k: int, r: int, x: np.ndarray) -> np.ndarray:
    """g_{k,r}(L) x via k+r sparse matvecs. x may be a vector or a matrix."""
    return bank_filter_apply(L, ((k, r),), x)[0]


def triple_filter_apply(L: sp.spmatrix, which: str, x: np.ndarray) -> np.ndarray:
    """Apply a reference filter (low/mid/high) as a polynomial in L."""
    x = np.asarray(x, dtype=np.float64)
    if L.shape[1] != x.shape[0]:
        raise ValueError(f"L is {L.shape}, signal has {x.shape[0]} rows")
    if which == "low":
        return x - 0.5 * (L @ x)
    if which == "mid":
        t = L @ x
        return 2.0 * t - L @ t
    if which == "high":
        return 0.5 * (L @ x)
    raise ValueError(f"unknown reference filter: {which!r}")


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns


def eigendecompose(L, limit: int = DENSE_EIGEN_LIMIT) -> SpectralDecomposition:
    """Dense symmetric eigendecomposition, refused above the size limit."""
    if sp.issparse(L):
        dense = L.toarray()
    else:
        dense = np.asarray(L, dtype=np.float64)
    n = dense.shape[0]
    if dense.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > limit:
        raise ValueError(f"matrix size {n} exceeds dense eigensolver limit {limit}")
    asym = np.max(np.abs(dense - dense.T)) if n else 0.0
    if asym > 1e-10:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-10")
    vals, vecs = np.linalg.eigh(dense)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def to_spectral(decomp: SpectralDecomposition, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform U^T x (norm-preserving)."""
    return decomp.eigenvectors.T @ np.asarray(x, dtype=np.float64)


def spectral_energy(decomp: SpectralDecomposition, x: np.ndarray) -> np.ndarray:
    """Distribution x_hat_i^2 / sum_j x_hat_j^2 over the eigenbasis."""
    xhat = to_spectral(decomp, x)
    total = float(xhat @ xhat)
    if total == 0.0:
        raise ValueError("zero signal has no spectral energy distribution")
    return xhat * xhat / total


def high_freq_area(L: sp.spmatrix, x: np.ndarray) -> float:
    """Rayleigh quotient x^T L x / x^T x (one sparse matvec)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("zero signal")
    return float(x @ (L @ x)) / denom


def high_freq_profile(g: Graph, kind: str = "normalized") -> np.ndarray:
    """Per-feature-column Rayleigh quotient; NaN marks zero-norm columns."""
    L = laplacian(g, kind)
    X = g.features
    num = np.einsum("ij,ij->j", X, L @ X)
    den = np.einsum("ij,ij->j", X, X)
    out = np.full(X.shape[1], np.nan)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def class_distance_expectations(g: Graph, x: np.ndarray):
    """Normalized expected squared edge differences, split by edge type.

    intra  = sum over same-label edges of (x_u - x_v)^2 / (h |E| x^T x)
    inter  = sum over cross-label edges of (x_u - x_v)^2 / ((1-h) |E| x^T x)

    Either value is None when its edge category is empty.
    """
    if g.labels is None:
        raise ValueError("labels absent")
    x = np.asarray(x, dtype=np.float64).ravel()
    sq = float(x @ x)
    if sq == 0.0:
        raise ValueError("zero signal")
    u, v = g.edges[:, 0], g.edges[:, 1]
    same = g.labels[u] == g.labels[v]
    m = g.n_edges
    diffs = (x[u] - x[v]) ** 2
    n_same = int(same.sum())
    n_diff = m - n_same
    # h |E| = n_same and (1 - h) |E| = n_diff, so the normalizers are counts
    intra = float(diffs[same].sum()) / (n_same * sq) if n_same else None
    inter = float(diffs[~same].sum()) / (n_diff * sq) if n_diff else None
    return intra, inter


@dataclass(frozen=True)
class EnergyIdentityReport:
    s_high: float  # x^T (D - A) x / x^T x
    mixture_rhs: float  # |E| (h intra + (1-h) inter)
    mixture_rhs_halved: float  # |E|/2 variant, reported for comparison
    abs_error: float
    homophily: float
    e_intra: float
    e_inter: float


def energy_identity_check(g: Graph, x: np.ndarray) -> EnergyIdentityReport:
    """Exact identity tying the unnormalized Rayleigh quotient to homophily.

    With single-counted undirected edges, x^T (D - A) x equals the sum of
    squared edge differences, hence

        S_high = |E| * (h * E_intra + (1 - h) * E_inter)

    which must hold to machine precision. The |E|/2 variant is reported as
    well but is not an identity.
    """
    if g.labels is None:
        raise ValueError("labels absent")
    intra, inter = class_distance_expectations(g, x)
    if intra is None or inter is None:
        raise ValueError("both intra- and inter-class edges are required")
    h = edge_homophily(g)
    lhs = high_freq_area(laplacian(g, "unnormalized"), x)
    rhs = g.n_edges * (h * intra + (1.0 - h) * inter)
    return EnergyIdentityReport(
        s_high=lhs,
        mixture_rhs=rhs,
        mixture_rhs_halved=rhs / 2.0,
        abs_error=abs(lhs - rhs),
        homophily=h,
        e_intra=intra,
        e_inter=inter,
    )


def response_grid(filters, n_points: int = 201):
    """(lambda grid, response per filter) rows for plotting/TSV export."""
    lam = np.linspace(0.0, 2.0, n_points)
    return lam, {str(f): np.asarray(filter_response(f, lam)) for f in filters}
