"""Beta-shaped spectral filter bank and frequency diagnostics.

The bank of order C holds the C+1 kernels

    g_{k,r}(lambda) = (lambda/2)^k (1 - lambda/2)^r / (2 B(k+1, r+1)),
    k + r = C,

over the normalized-Laplacian spectrum [0, 2]. g_{0,C} is the low-pass end,
g_{C,0} the high-pass end, interior members are band-pass. Every kernel is a
combination of the powers T_j = (L/2)^j x, so a bank is applied as one power
series: C sparse matrix products form T_1..T_C, and a forward-difference
table, D_{k,0} = T_k and D_{k,r} = D_{k,r-1} - D_{k+1,r-1}, gives each
output as c_{k,r} D_{k,r} with no binomial coefficients. The Laplacian is
never densified. Given `rows`, the same walk computes only the rows of the
outputs asked for: T_j is formed on the ball N^{C-j}[rows] that the products
after it read, and the table on the rows themselves. The table subtracts
nearly equal terms, so its error grows with the order (see
bank_filter_apply).
"""

from __future__ import annotations

import math
from collections import Counter
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

    @property
    def order(self) -> int:
        return sum(self.filters[0])

    @property
    def size(self) -> int:
        return len(self.filters)

    def constants(self):
        return [beta_constant(k, r) for k, r in self.filters]


def bank_filter_apply(L: sp.spmatrix, filters, x: np.ndarray, rows=None) -> list:
    """[g_{k,r}(L) x for (k, r) in filters], from one power series.

    With T_j = (L/2)^j x and D_{k,r} = (L/2)^k (I - L/2)^r x, the table
    D_{k,0} = T_k, D_{k,r} = D_{k,r-1} - D_{k+1,r-1} gives every kernel as
    g_{k,r}(L) x = c_{k,r} D_{k,r}. The walk forms T_1..T_C, C the largest
    k+r, with one sparse product each, so a full bank of order C takes C
    products and one kernel alone takes its k+r. After each T_j it forms the
    table entries of degree j that some output reads, and drops each T_j
    and entry once nothing reads it. An output is the same operations on the
    same values whichever other kernels are asked for, so it equals its
    kernel run alone bit for bit. x may be a vector or a matrix; filters may
    be in any order, and the input is never written to.

    The table subtracts nearly equal terms, so accuracy falls with the
    order. Against an eigenbasis oracle (n=400), the error relative to the
    outputs' scale is ~2e-15 at order 2, ~1e-14 at order 6 and ~5e-13 at
    order 10 (a per-kernel (I - L/2)^j ladder, kept in the tests as an
    oracle, stays near 5e-15 but takes C(C+1)/2 products for a full bank).

    rows (node indices, any order, repeats allowed) asks for those rows of
    every output only: out[i] equals the full output's [rows], bit for bit.
    With B_d = N^d[rows] the balls of L's sparsity pattern, T_j is needed
    only on B_{C-j}, so each product runs with L[B_{C-j}], its columns
    renumbered into B_{C-j+1}, and the table is formed on B_0. L must then
    be a scipy sparse matrix, and only its rows in N^{C-1}[rows] are read, so
    a caller may pass a matrix that holds just those rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if L.shape[1] != x.shape[0]:
        raise ValueError(f"L is {L.shape}, signal has {x.shape[0]} rows")
    filters = [(k, r) for k, r in filters]
    consts = [beta_constant(k, r) for k, r in filters]  # validates k, r >= 0
    top = max((k + r for k, r in filters), default=-1)
    if rows is None:
        steps, picks, order = [L] * top, [None] * (top + 1), None
    else:
        steps, picks, order = _row_steps(L.tocsr(), rows, top)

    # needed: the table entries with r >= 1 that some output is formed from;
    # reads[e]: how many outputs and needed entries still read entry e
    reads = Counter(filters)
    needed = {(a, b) for k, r in filters for b in range(1, r + 1) for a in range(k, k + r - b + 1)}
    for a, b in needed:
        reads[a, b - 1] += 1
        reads[a + 1, b - 1] += 1
    table = {}

    def take(e):
        """Entry e, and whether this read may overwrite it (the last one, not x)."""
        reads[e] -= 1
        if reads[e]:
            return table[e], False
        y = table.pop(e)
        return y, y is not x

    t = x
    for j in range(top + 1):
        if j:
            t = steps[j - 1] @ t
            t *= 0.5
        if (j, 0) in reads:
            table[j, 0] = t if picks[j] is None else t[picks[j]]
        for b in range(1, j + 1):
            if (j - b, b) in reads:
                y, own = take((j - b, b - 1))
                z, _ = take((j - b + 1, b - 1))
                table[j - b, b] = np.subtract(y, z, out=y if own else None)
    out = []
    for c, key in zip(consts, filters):
        y, own = take(key)
        out.append(np.multiply(y, c, out=y if own else None))
    if order is not None:
        out = [y[order] for y in out]
    return out


def _row_steps(L: sp.csr_matrix, rows, top: int):
    """The row path's products, the rows of B_0 within each T_j, and the
    gather from B_0 to the requested rows (None when they are B_0).

    B_0 is the sorted distinct rows and B_{d+1} adds the columns of L[B_d].
    The product that forms T_j is L[B_{top-j}], its columns renumbered into
    B_{top-j+1}; T_1 reads x on every row, so its block keeps L's columns.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= L.shape[0]):
        raise ValueError(f"rows must lie in [0, {L.shape[0]})")
    balls = [np.unique(rows)]
    steps = []
    for d in range(top):
        m = L[balls[d]]
        if d + 1 < top:
            balls.append(np.union1d(balls[d], m.indices))
            cols = np.searchsorted(balls[d + 1], m.indices)
            m = sp.csr_matrix((m.data, cols, m.indptr), shape=(m.shape[0], balls[d + 1].size))
        steps.append(m)
    steps.reverse()
    picks = [balls[0]] + [np.searchsorted(balls[top - j], balls[0]) for j in range(1, top)]
    if top > 0:
        picks.append(None)
    order = None if np.array_equal(rows, balls[0]) else np.searchsorted(balls[0], rows)
    return steps, picks, order


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
