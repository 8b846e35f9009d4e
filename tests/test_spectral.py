"""Filter bank closed forms, polynomial-vs-eigenbasis oracle, diagnostics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import Graph, laplacian, laplacian_from_edges
from hsgppt.spectral import (
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
    spectral_energy,
    spectral_regression_loss,
    to_spectral,
    triple_filter_apply,
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
    # the log-space route must not overflow where factorials would
    v = beta_constant(120, 80)
    assert np.isfinite(v) and v > 0


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
    assert FilterBank.low_pass(3).filters == ((0, 3),)
    with pytest.raises(ValueError, match="k \\+ r"):
        FilterBank(((0, 2), (1, 2)))
    with pytest.raises(ValueError):
        FilterBank(())


def test_polynomial_apply_matches_eigenbasis_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(4, 101))
        g = random_graph(rng, n)
        L = laplacian(g, "normalized")
        decomp = eigendecompose(L)
        U, lam = decomp.eigenvectors, np.clip(decomp.eigenvalues, 0.0, 2.0)
        X = rng.standard_normal((n, 2))
        for order in range(4):
            for k in range(order + 1):
                r = order - k
                got = beta_filter_apply(L, k, r, X)
                want = U @ (np.asarray(filter_response((k, r), lam))[:, None] * (U.T @ X))
                assert np.max(np.abs(got - want)) < 1e-8, (trial, k, r)


def per_kernel_ladder(L, k, r, x):
    # each kernel on its own: r steps of (I - L/2), then k steps of L/2
    y = np.asarray(x, dtype=np.float64)
    for _ in range(r):
        y = y - 0.5 * (L @ y)
    for _ in range(k):
        y = 0.5 * (L @ y)
    return beta_constant(k, r) * y


class CountingOperator:
    """Wraps L and counts the products taken with it."""

    def __init__(self, L):
        self.L = L
        self.shape = L.shape
        self.matmuls = 0

    def __matmul__(self, y):
        self.matmuls += 1
        return self.L @ y


def test_bank_engine_equals_per_kernel_ladder_bit_for_bit():
    rng = np.random.default_rng(3)
    g = generate(CsbmParams(n=60, f=5, d_avg=6.0, h=0.4, mu=4.0, seed=1))
    L = laplacian(g, "normalized")
    banks = [FilterBank.full(c).filters for c in range(6)]
    banks += [FilterBank.low_pass(3).filters, ((2, 1), (0, 3))]
    for filters in banks:
        for x in (rng.standard_normal(60), rng.standard_normal((60, 4))):
            op = CountingOperator(L)
            keep = x.copy()
            got = bank_filter_apply(op, filters, x)
            assert np.array_equal(x, keep)  # the input is never overwritten
            assert len(got) == len(filters)
            for (k, r), y in zip(filters, got):
                assert np.array_equal(y, per_kernel_ladder(L, k, r, x)), (filters, k, r)
                assert np.array_equal(beta_filter_apply(L, k, r, x), y)
            order = sum(filters[0])
            if filters == FilterBank.full(order).filters:
                assert op.matmuls == order * (order + 1) // 2, filters


def test_bank_engine_single_kernels_and_guards():
    L = laplacian(generate(CsbmParams(n=30, f=3, d_avg=4.0, h=0.5, mu=4.0, seed=2)), "normalized")
    x = np.random.default_rng(4).standard_normal((30, 2))
    # one kernel costs its own k + r products, as before
    for k, r in ((0, 0), (0, 3), (3, 0), (2, 2)):
        op = CountingOperator(L)
        (y,) = bank_filter_apply(op, ((k, r),), x)
        assert op.matmuls == k + r
        assert np.array_equal(y, per_kernel_ladder(L, k, r, x))
    assert bank_filter_apply(L, (), x) == []
    with pytest.raises(ValueError, match="non-negative"):
        bank_filter_apply(L, ((1, -1),), x)
    with pytest.raises(ValueError, match="rows"):
        bank_filter_apply(L, ((0, 1),), x[:-1])


def test_triple_filters_match_eigenbasis_oracle():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 30)
    L = laplacian(g, "normalized")
    decomp = eigendecompose(L)
    U, lam = decomp.eigenvectors, np.clip(decomp.eigenvalues, 0.0, 2.0)
    x = rng.standard_normal(30)
    for which in ("low", "mid", "high"):
        got = triple_filter_apply(L, which, x)
        want = U @ (np.asarray(filter_response(which, lam)) * (U.T @ x))
        assert np.max(np.abs(got - want)) < 1e-10


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


def test_spectral_regression_loss_scale_invariance_and_zero():
    rng = np.random.default_rng(5)
    gvals = rng.random(6) + 0.1
    xh = rng.standard_normal(6)
    yh = rng.standard_normal(6)
    a = spectral_regression_loss(gvals, xh, yh)
    b = spectral_regression_loss(3.7 * gvals, xh, yh)
    assert a == pytest.approx(b, rel=1e-12)
    # perfectly aligned filtered signal drives the loss to zero
    fx = gvals * xh
    y_aligned = fx / np.linalg.norm(fx) * math.sqrt(6)
    assert spectral_regression_loss(gvals, xh, y_aligned) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="zero"):
        spectral_regression_loss(np.zeros(6), xh, yh)


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
