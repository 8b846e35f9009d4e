"""Filter bank closed forms, polynomial-vs-eigenbasis oracle, diagnostics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from hsgppt.csbm import CsbmParams, generate
from hsgppt.evaluate import filter_sweep_study
from hsgppt.graph import Graph, laplacian, laplacian_from_edges
from hsgppt.spectral import (
    REFERENCE_FILTERS,
    CsrRows,
    FilterBank,
    bank_filter_apply,
    beta_constant,
    beta_filter_apply,
    class_distance_expectations,
    eigendecompose,
    energy_identity_check,
    filter_response,
    high_freq_area,
    high_freq_profile,
    response_grid,
    row_walk,
    spectral_energy,
    to_spectral,
)


def beta_constant_oracle(k, r):
    # 1 / (2 B(k+1, r+1)) with B as exact factorial ratios
    b = Fraction(math.factorial(k) * math.factorial(r), math.factorial(k + r + 1))
    return Fraction(1, 2) / b


def random_graph(rng, n):
    full = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    m = rng.integers(1, full.shape[0] + 1)
    pick = rng.choice(full.shape[0], size=m, replace=False)
    return Graph(f"rand{n}", full[pick], rng.standard_normal((n, 3)))


def test_beta_constants_closed_forms():
    assert beta_constant(0, 2) == 1.5
    assert beta_constant(1, 1) == 3.0
    assert beta_constant(2, 0) == 1.5


def test_beta_constants_match_exact_fraction_oracle():
    for k in range(6):
        for r in range(6):
            want = float(beta_constant_oracle(k, r))
            assert beta_constant(k, r) == pytest.approx(want, rel=1e-13)


def test_beta_constant_large_order_stays_finite():
    # integer arithmetic does not overflow where float factorials would
    v = beta_constant(120, 80)
    assert np.isfinite(v) and v > 0


def test_beta_constant_beyond_float_range_is_rejected():
    # (k+r+1) C(k+r, k) / 2 first leaves float64 at order 1021, in the
    # middle of its bank
    assert np.isfinite(beta_constant(510, 510)) and np.isfinite(beta_constant(495, 526))
    with pytest.raises(ValueError, match="k=510, r=511"):
        beta_constant(510, 511)
    assert FilterBank.full(1020).size == 1021
    with pytest.raises(ValueError, match="k=496, r=525"):
        FilterBank.full(1021)


def test_filter_responses_at_reference_points():
    assert filter_response((0, 2), 0.0) == pytest.approx(1.5, abs=1e-12)
    assert filter_response((1, 1), 1.0) == pytest.approx(0.75, abs=1e-12)
    assert filter_response((2, 0), 2.0) == pytest.approx(1.5, abs=1e-12)
    # band edges vanish where (lambda/2)^k (1-lambda/2)^r does
    assert filter_response((1, 1), 0.0) == 0.0
    assert filter_response((1, 1), 2.0) == 0.0
    with pytest.raises(ValueError):
        filter_response((0, 1), 2.5)


def test_reference_filter_responses():
    lam = np.array([0.0, 1.0, 2.0])
    assert np.allclose(filter_response("low", lam), [1.0, 0.5, 0.0])
    assert np.allclose(filter_response("mid", lam), [0.0, 1.0, 0.0])
    assert np.allclose(filter_response("high", lam), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        filter_response("band", 1.0)


def test_filter_bank_construction():
    bank = FilterBank.full(2)
    assert bank.filters == ((0, 2), (1, 1), (2, 0))
    assert bank.order == 2 and bank.size == 3
    with pytest.raises(ValueError, match="k \\+ r"):
        FilterBank(((0, 2), (1, 2)))
    with pytest.raises(ValueError):
        FilterBank(())


def test_polynomial_apply_matches_eigenbasis_oracle():
    # the power-series engine loses digits as the order grows; measured worst
    # gaps over these trials: 5e-15 at order 2, 5e-14 at 6, 3.7e-13 at 8
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(4, 101))
        g = random_graph(rng, n)
        L = laplacian(g, "normalized")
        decomp = eigendecompose(L)
        U, lam = decomp.eigenvectors, np.clip(decomp.eigenvalues, 0.0, 2.0)
        X = rng.standard_normal((n, 2))
        for order in range(9):
            tol = 1e-13 if order <= 6 else 1e-12
            filters = FilterBank.full(order).filters
            for (k, r), got in zip(filters, bank_filter_apply(L, filters, X)):
                want = U @ (np.asarray(filter_response((k, r), lam))[:, None] * (U.T @ X))
                assert np.max(np.abs(got - want)) < tol, (trial, k, r)


def per_kernel_ladder(L, k, r, x):
    # each kernel on its own: r steps of (I - L/2), then k steps of L/2
    y = np.asarray(x, dtype=np.float64)
    for _ in range(r):
        y = y - 0.5 * (L @ y)
    for _ in range(k):
        y = 0.5 * (L @ y)
    return beta_constant(k, r) * y


def assert_near_ladder(L, k, r, x, y):
    # measured worst gap, relative to the output's scale: 1.4e-14 at order 6
    want = per_kernel_ladder(L, k, r, x)
    assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want)), (k, r)


class CountingOperator:
    """Counts the sparse products CSR matrices take while a test runs: L's
    own on the full path, those of the blocks cut from L on the row path."""

    def __init__(self, monkeypatch):
        self.matmuls = 0
        product = sp.csr_matrix.__matmul__

        def counted(m, y):
            self.matmuls += 1
            return product(m, y)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)

    def run(self, *args, **kwargs):
        """bank_filter_apply(*args, **kwargs) and the products it took."""
        self.matmuls = 0
        out = bank_filter_apply(*args, **kwargs)
        return out, self.matmuls


def walk(L, rows, filters):
    """The RowWalk of rows on the plain CSR L for the filters' degree."""
    return row_walk(CsrRows(L), rows, max(k + r for k, r in filters), L.shape[1])


def test_bank_engine_matches_per_kernel_ladder(monkeypatch):
    rng = np.random.default_rng(3)
    g = generate(CsbmParams(n=60, f=5, d_avg=6.0, h=0.4, mu=4.0, seed=1))
    L = laplacian(g, "normalized")
    products = CountingOperator(monkeypatch)
    banks = [FilterBank.full(c).filters for c in range(7)]
    banks += [((0, 3),), ((2, 1), (0, 3)), ((0, 4), (0, 4), (3, 1))]
    for filters in banks:
        for x in (rng.standard_normal(60), rng.standard_normal((60, 4))):
            keep = x.copy()
            got, matmuls = products.run(L, filters, x)
            assert np.array_equal(x, keep)  # the input is never overwritten
            assert len(got) == len(filters)
            # one power series: as many products as the largest k + r
            assert matmuls == max(k + r for k, r in filters), filters
            for (k, r), y in zip(filters, got):
                assert_near_ladder(L, k, r, x, y)
                assert np.array_equal(beta_filter_apply(L, k, r, x), y)
            # an input the caller gives up may hold an output: same bits
            owned = x.copy()
            got_owned = bank_filter_apply(L, filters, owned, overwrite_x=True)
            assert all(np.array_equal(a, b) for a, b in zip(got_owned, got))


def test_bank_engine_single_kernels_and_guards(monkeypatch):
    L = laplacian(generate(CsbmParams(n=30, f=3, d_avg=4.0, h=0.5, mu=4.0, seed=2)), "normalized")
    x = np.random.default_rng(4).standard_normal((30, 2))
    products = CountingOperator(monkeypatch)
    # one kernel costs its own k + r products, on both paths
    for k, r in ((0, 0), (0, 3), (3, 0), (2, 2)):
        (y,), matmuls = products.run(L, ((k, r),), x)
        assert matmuls == k + r
        assert_near_ladder(L, k, r, x, y)
        (y_rows,), matmuls = products.run(walk(L, np.array([0, 3]), ((k, r),)), ((k, r),), x)
        assert matmuls == k + r
        assert np.array_equal(y_rows, y[[0, 3]])
    assert bank_filter_apply(L, (), x) == []
    with pytest.raises(ValueError, match="non-negative"):
        bank_filter_apply(L, ((1, -1),), x)
    with pytest.raises(ValueError, match="rows"):
        bank_filter_apply(L, ((0, 1),), x[:-1])


def test_bank_engine_holds_no_more_than_its_outputs():
    # each T_j and table entry is dropped once nothing reads it, so a full
    # bank of order C never holds more than its C + 1 outputs' worth; with
    # overwrite_x one of them lives in the input's buffer
    g = generate(CsbmParams(n=2000, f=3, d_avg=10.0, h=0.4, mu=4.0, seed=3))
    L = laplacian(g, "normalized")
    x = np.random.default_rng(5).standard_normal((2000, 32))
    for order in range(1, 6):
        for overwrite_x in (False, True):
            owned = x.copy()
            tracemalloc.start()
            try:
                out = bank_filter_apply(L, FilterBank.full(order).filters, owned, overwrite_x=overwrite_x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == order + 1
            arrays = order if overwrite_x else order + 1
            assert peak <= arrays * x.nbytes + 2**16, (order, overwrite_x, peak)


def prompted_like_laplacian(rng, n=80, n_p=4):
    # a CSBM graph plus hub rows wired to many nodes, and an isolated node
    g = generate(CsbmParams(n=n, f=3, d_avg=5.0, h=0.4, mu=4.0, seed=5))
    edges = g.edges[(g.edges[:, 0] != 7) & (g.edges[:, 1] != 7)]  # node 7 isolated
    hubs = [(int(v), n + p) for p in range(n_p) for v in rng.choice(n, 25, replace=False) if v != 7]
    hubs += [(n, n + 1), (n + 1, n + 3)]
    return laplacian_from_edges(np.concatenate([edges, np.array(hubs)]), n + n_p), n


def test_bank_engine_rows_equal_full_rows_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    products = CountingOperator(monkeypatch)
    L, n = prompted_like_laplacian(rng)
    n_total = L.shape[0]
    banks = [FilterBank.full(c).filters for c in range(6)]
    banks += [((k, r),) for k, r in ((0, 0), (0, 3), (3, 0), (2, 2), (1, 4))]
    banks += [((0, 3),), ((2, 1), (0, 3))]
    row_sets = [
        np.array([3]),
        np.array([7]),  # isolated: its ball is itself
        np.array([2, n, n + 3]),  # prompt rows
        np.sort(rng.choice(n_total, 12, replace=False)),
        np.arange(n_total),
        np.array([], dtype=np.int64),
    ]
    for filters in banks:
        for x in (rng.standard_normal(n_total), rng.standard_normal((n_total, 3))):
            keep = x.copy()
            full = bank_filter_apply(L, filters, x)
            for rows in row_sets:
                got, matmuls = products.run(walk(L, rows, filters), filters, x)
                assert matmuls == max(k + r for k, r in filters)
                assert np.array_equal(x, keep)
                assert len(got) == len(filters)
                for y, want in zip(got, full):
                    assert np.array_equal(y, want[rows]), (filters, rows)


def test_bank_engine_rows_read_only_the_ball_they_need():
    rng = np.random.default_rng(12)
    L, n = prompted_like_laplacian(rng)
    x = rng.standard_normal((L.shape[0], 2))
    rows = np.array([4, n + 1])
    for order in range(5):
        filters = FilterBank.full(order).filters
        ball = np.unique(rows)
        for _ in range(order - 1):
            ball = np.unique(L[ball].indices)
        # empty every row of L outside N^{order-1}[rows]: the outputs must not move
        kept = np.isin(np.arange(L.shape[0]), ball)
        lens = np.diff(L.indptr) * kept
        entries = np.repeat(kept, np.diff(L.indptr))
        indptr = np.concatenate([[0], np.cumsum(lens)])
        trimmed = sp.csr_matrix((L.data[entries], L.indices[entries], indptr), shape=L.shape)
        want = [y[rows] for y in bank_filter_apply(L, filters, x)]
        got = bank_filter_apply(walk(trimmed, rows, filters), filters, x)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), order


def test_bank_engine_rows_guards():
    L = laplacian(generate(CsbmParams(n=20, f=3, d_avg=4.0, h=0.5, mu=4.0, seed=2)), "normalized")
    x = np.ones((20, 2))
    for bad in (np.array([20]), np.array([-1])):
        with pytest.raises(ValueError, match="rows must lie"):
            walk(L, bad, ((1, 1),))
    # rows come in ascending order, each once: unsorted or repeated rows are refused
    for bad in (np.array([4, 1]), np.array([1, 4, 4]), np.array([4, 1, 4]), np.array([5, 5, 1])):
        for filters in (((0, 0),), ((1, 1),)):
            with pytest.raises(ValueError, match="strictly increasing"):
                walk(L, bad, filters)
    # a RowWalk fixes its rows and its degree
    rows = np.array([1, 4])
    bank = FilterBank.full(2).filters
    two = walk(L, rows, bank)
    for a, b in zip(bank_filter_apply(two, bank, x), bank_filter_apply(L, bank, x)):
        assert np.array_equal(a, b[rows])
    assert bank_filter_apply(two, (), x) == []
    for filters in (((0, 1),), FilterBank.full(3).filters):
        with pytest.raises(ValueError, match="RowWalk"):
            bank_filter_apply(two, filters, x)


def test_bank_engine_meets_the_bipartite_mirror_at_benchmark_scale():
    # on a bipartite graph with side signs S, S L S = 2I - L, and the beta
    # constant is symmetric in k and r, so g_{k,r}(L) S x = S g_{r,k}(L) x:
    # an oracle with no eigensolver, on the full path and on the row path.
    # Measured errors, relative to the bank's largest output, on both paths:
    # 1.3e-15 at order 2, 2.2e-15 at 3, 1.5e-14 at 6
    g = generate(CsbmParams(n=5000, f=3, d_avg=40.0, h=0.0, mu=10.0, seed=0))
    assert (g.labels[g.edges[:, 0]] != g.labels[g.edges[:, 1]]).all()
    L = laplacian(g, "normalized")
    S = np.where(g.labels == 0, 1.0, -1.0)[:, None]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5000, 8))
    rows = np.sort(rng.choice(5000, 40, replace=False))
    for order, tol in ((2, 1e-14), (3, 1e-14), (6, 1e-13)):
        bank = FilterBank.full(order).filters
        mirror = [(r, k) for k, r in bank]
        for op, signs in ((L, S), (walk(L, rows, bank), S[rows])):
            got = bank_filter_apply(op, bank, S * x)
            want = [signs * y for y in bank_filter_apply(op, mirror, x)]
            scale = max(np.max(np.abs(y)) for y in got)
            err = max(np.max(np.abs(a - b)) for a, b in zip(got, want))
            assert err <= tol * scale, (order, err / scale)


def test_triple_filters_match_eigenbasis_oracle():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 30)
    L = laplacian(g, "normalized")
    decomp = eigendecompose(L)
    U, lam = decomp.eigenvectors, np.clip(decomp.eigenvalues, 0.0, 2.0)
    x = rng.standard_normal(30)
    # closed forms, independent of the table
    responses = {"low": 1 - lam / 2, "mid": 1 - (lam - 1) ** 2, "high": lam / 2}
    assert list(REFERENCE_FILTERS) == list(responses)
    for which, (kernel, scale) in REFERENCE_FILTERS.items():
        got = scale * bank_filter_apply(L, (kernel,), x)[0]
        want = U @ (responses[which] * (U.T @ x))
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.allclose(filter_response(which, lam), responses[which], rtol=0, atol=1e-15)


def test_filter_sweep_takes_two_products_per_graph(monkeypatch):
    # the three reference filters share one order-2 power series
    products = CountingOperator(monkeypatch)
    params = CsbmParams(n=60, f=4, d_avg=5.0, h=0.5, mu=6.0, seed=0)
    cells = filter_sweep_study([0.2, 0.8], seeds=[0, 1], params=params)
    assert len(cells) == 2 * 2 * 3
    assert products.matmuls == 2 * 2 * 2


def test_filter_apply_never_densifies_shape_contract():
    L = laplacian_from_edges(np.array([[0, 1]]), 3, "normalized")
    with pytest.raises(ValueError, match="rows"):
        beta_filter_apply(L, 0, 1, np.zeros(4))


def test_eigendecompose_guards():
    with pytest.raises(ValueError, match="limit"):
        eigendecompose(np.eye(3), limit=2)
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="asymmetry"):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_spectral_energy_sums_to_one():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12)
    decomp = eigendecompose(laplacian(g))
    x = rng.standard_normal(12)
    e = spectral_energy(decomp, x)
    assert e.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(e >= 0)
    with pytest.raises(ValueError, match="zero signal"):
        spectral_energy(decomp, np.zeros(12))


def test_high_freq_area_via_energy_decomposition():
    # S_high equals the energy-weighted mean eigenvalue
    rng = np.random.default_rng(4)
    g = random_graph(rng, 15)
    L = laplacian(g)
    decomp = eigendecompose(L)
    x = rng.standard_normal(15)
    s = high_freq_area(L, x)
    want = float(spectral_energy(decomp, x) @ decomp.eigenvalues)
    assert s == pytest.approx(want, abs=1e-10)


def test_high_freq_area_constant_signal_on_regular_graph_is_zero():
    # constant vector is the zero-frequency eigenvector when degrees are equal
    ring = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    L = laplacian_from_edges(ring, 4, "normalized")
    assert high_freq_area(L, np.ones(4)) == pytest.approx(0.0, abs=1e-12)


def test_high_freq_profile_zero_column_is_nan():
    g = Graph("g", np.array([[0, 1]]), np.array([[1.0, 0.0], [2.0, 0.0]]))
    prof = high_freq_profile(g)
    assert np.isfinite(prof[0])
    assert np.isnan(prof[1])


def test_class_distance_expectations_hand_case():
    # path 0-1-2, labels [0,0,1], x = [0,1,3]
    # intra edge (0,1): diff^2 = 1; inter edge (1,2): diff^2 = 4; x^T x = 10
    g = Graph("p", np.array([[0, 1], [1, 2]]), np.zeros((3, 1)),
              labels=[0, 0, 1], n_classes=2)
    x = np.array([0.0, 1.0, 3.0])
    intra, inter = class_distance_expectations(g, x)
    assert intra == pytest.approx(1 / 10)
    assert inter == pytest.approx(4 / 10)


def test_class_distance_expectations_empty_category():
    g = Graph("p", np.array([[0, 1]]), np.zeros((2, 1)), labels=[0, 0], n_classes=1)
    intra, inter = class_distance_expectations(g, np.array([1.0, 2.0]))
    assert intra is not None and inter is None


def test_energy_identity_exact_on_hand_case():
    g = Graph("p", np.array([[0, 1], [1, 2]]), np.zeros((3, 1)),
              labels=[0, 0, 1], n_classes=2)
    x = np.array([0.0, 1.0, 3.0])
    rep = energy_identity_check(g, x)
    # S_high = (1 + 4) / 10; h = 1/2; rhs = 2 (0.5/10 + 0.5*4/10)
    assert rep.s_high == pytest.approx(0.5)
    assert rep.mixture_rhs == pytest.approx(0.5)
    assert rep.abs_error < 1e-15
    assert rep.mixture_rhs_halved == pytest.approx(0.25)


def test_energy_identity_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        g = Graph(g.name, g.edges, g.features, labels=labels, n_classes=2)
        u, v = g.edges[:, 0], g.edges[:, 1]
        same = labels[u] == labels[v]
        if not (same.any() and (~same).any()):
            continue
        rep = energy_identity_check(g, g.features[:, 0])
        assert rep.abs_error < 1e-9


def test_response_grid_shape():
    lam, curves = response_grid([(0, 2), "low"], n_points=11)
    assert lam.shape == (11,)
    assert set(curves) == {"(0, 2)", "low"}
    assert curves["low"][0] == 1.0


def test_filtered_parseval_identity():
    # U^T is orthonormal: filtering then transforming == pointwise scaling
    rng = np.random.default_rng(6)
    g = random_graph(rng, 20)
    L = laplacian(g)
    decomp = eigendecompose(L)
    x = rng.standard_normal(20)
    xf = beta_filter_apply(L, 1, 1, x)
    lhs = to_spectral(decomp, xf)
    lam = np.clip(decomp.eigenvalues, 0.0, 2.0)
    rhs = np.asarray(filter_response((1, 1), lam)) * to_spectral(decomp, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_csbm_profile_matches_identity_report():
    g = generate(CsbmParams(n=200, f=8, d_avg=10, h=0.3, mu=5.0, seed=0))
    prof = high_freq_profile(g, "unnormalized")
    rep = energy_identity_check(g, g.features[:, 0])
    assert prof[0] == pytest.approx(rep.s_high, rel=1e-12)
