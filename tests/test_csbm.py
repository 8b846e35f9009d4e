"""Synthetic two-block graph generator: calibration, determinism, signal."""

import hashlib

import numpy as np
import pytest

from hsgppt import csbm
from hsgppt.csbm import CsbmParams, edge_probabilities, generate, generate_with_signal
from hsgppt.graph import edge_homophily


def test_edge_probabilities_exact_algebra():
    p = CsbmParams(n=3000, f=128, d_avg=50.0, h=0.3, mu=10.0, seed=0)
    p_in, p_out = edge_probabilities(p)
    assert p_in == 2.0 * 0.3 * 50.0 / 3000.0
    assert p_out == 2.0 * 0.7 * 50.0 / 3000.0
    # endpoints are exact, no roundoff from a sqrt(d) detour
    lo, hi = edge_probabilities(CsbmParams(n=100, f=4, d_avg=50.0, h=0.0, mu=1.0, seed=0))
    assert lo == 0.0 and hi == 1.0
    lo, hi = edge_probabilities(CsbmParams(n=100, f=4, d_avg=50.0, h=1.0, mu=1.0, seed=0))
    assert lo == 1.0 and hi == 0.0


def test_params_validation():
    with pytest.raises(ValueError, match="even"):
        CsbmParams(n=7, f=4, d_avg=2.0, h=0.5, mu=1.0, seed=0)
    with pytest.raises(ValueError):
        CsbmParams(n=100, f=4, d_avg=2.0, h=1.5, mu=1.0, seed=0)
    with pytest.raises(ValueError):
        CsbmParams(n=100, f=0, d_avg=2.0, h=0.5, mu=1.0, seed=0)
    with pytest.raises(ValueError):
        CsbmParams(n=100, f=4, d_avg=200.0, h=1.0, mu=1.0, seed=0)  # p_in > 1
    for d_avg, h, mu in ((float("nan"), 0.5, 1.0), (2.0, float("nan"), 1.0), (2.0, 0.5, float("nan"))):
        with pytest.raises(ValueError):
            CsbmParams(n=100, f=4, d_avg=d_avg, h=h, mu=mu, seed=0)


def test_generated_graph_shape_and_balance():
    g = generate(CsbmParams(n=400, f=16, d_avg=8.0, h=0.4, mu=3.0, seed=1))
    assert g.n_nodes == 400
    assert g.features.shape == (400, 16)
    assert g.n_classes == 2
    counts = np.bincount(g.labels, minlength=2)
    assert counts[0] == counts[1] == 200
    # canonical edge invariants come from the Graph constructor
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert g.name == "csbm_n400_h0.4_seed1"


def test_homophily_calibration_and_mean_degree():
    # acceptance-style bound at reduced size, multiple h levels
    for h in (0.1, 0.3, 0.5, 0.7, 0.9):
        vals, degs = [], []
        for seed in range(3):
            g = generate(CsbmParams(n=3000, f=8, d_avg=50.0, h=h, mu=2.0, seed=seed))
            vals.append(edge_homophily(g))
            degs.append(2.0 * g.n_edges / g.n_nodes)
        assert abs(np.mean(vals) - h) < 0.02, h
        assert abs(np.mean(degs) - 50.0) < 2.0, h


def test_determinism_bit_exact():
    p = CsbmParams(n=300, f=8, d_avg=6.0, h=0.25, mu=4.0, seed=9)
    a, b = generate(p), generate(p)
    assert np.array_equal(a.edges, b.edges)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = generate(CsbmParams(n=300, f=8, d_avg=6.0, h=0.25, mu=4.0, seed=10))
    assert not np.array_equal(a.edges, c.edges) or a.features.tobytes() != c.features.tobytes()


def test_signal_direction_recoverable():
    g, u = generate_with_signal(CsbmParams(n=2000, f=32, d_avg=10.0, h=0.5, mu=40.0, seed=3))
    assert u.shape == (32,)
    y = np.where(g.labels == 1, 1.0, -1.0)
    # class-signed feature mean realigns with the planted direction
    est = (y[:, None] * g.features).mean(axis=0)
    cos = est @ u / (np.linalg.norm(est) * np.linalg.norm(u))
    assert cos > 0.9


def test_feature_moments():
    # rows are sqrt(mu/n) y u + w/sqrt(f): per-entry variance ~ |u|^2 mu/n/f...
    # dominated by the w term 1/f at small mu; check overall scale
    p = CsbmParams(n=4000, f=64, d_avg=5.0, h=0.5, mu=0.0, seed=2)
    g = generate(p)
    v = g.features.var()
    assert abs(v - 1.0 / 64.0) < 0.002


def test_generate_matches_generate_with_signal():
    p = CsbmParams(n=200, f=8, d_avg=6.0, h=0.6, mu=5.0, seed=4)
    g1 = generate(p)
    g2, _ = generate_with_signal(p)
    assert np.array_equal(g1.edges, g2.edges)
    assert g1.features.tobytes() == g2.features.tobytes()


def test_extreme_homophily_levels_are_pure():
    g0 = generate(CsbmParams(n=100, f=4, d_avg=4.0, h=0.0, mu=2.0, seed=7))
    g1 = generate(CsbmParams(n=100, f=4, d_avg=4.0, h=1.0, mu=2.0, seed=9))
    assert (g0.name, g1.name) == ("csbm_n100_h0_seed7", "csbm_n100_h1_seed9")
    assert edge_homophily(g0) == 0.0
    assert edge_homophily(g1) == 1.0


def test_graph_without_edges():
    # one node per class and no inter-class edges at h=1: every block is empty
    g = generate(CsbmParams(n=2, f=3, d_avg=1.0, h=1.0, mu=1.0, seed=0))
    assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64


def test_no_self_loops_or_duplicates_at_high_density():
    g = generate(CsbmParams(n=60, f=4, d_avg=30.0, h=0.5, mu=1.0, seed=5))
    pairs = {(int(u), int(v)) for u, v in g.edges}
    assert len(pairs) == g.n_edges
    assert all(u < v for u, v in pairs)


def triu_mask_block_edges(rng, p, rows, cols, row_offset, col_offset, triangular):
    """Reference sampler: one uniform per pair of the whole block at once."""
    if triangular:
        iu, ju = np.triu_indices(rows, k=1)
        keep = rng.random(iu.size) < p
        return np.stack([iu[keep] + row_offset, ju[keep] + col_offset], axis=1)
    mask = rng.random((rows, cols)) < p
    iu, ju = np.nonzero(mask)
    return np.stack([iu + row_offset, ju + col_offset], axis=1)


def test_split_uniform_draws_continue_one_stream():
    # the chunked sampler rests on this: draws of a, then b values (into a
    # buffer or not) are the a + b values of one draw
    whole = np.random.default_rng(3).random(1000)
    rng = np.random.default_rng(3)
    head = rng.random(7)
    buf = np.empty(400)
    rng.random(out=buf)
    tail = rng.random(593)
    assert np.array_equal(np.concatenate([head, buf, tail]), whole)


@pytest.mark.parametrize("chunk", [1, 5, 7, 64, 4099])
def test_chunked_sampler_matches_whole_block_reference(monkeypatch, chunk):
    # the two halves of every block, m = 0 and m = 1 included, against one
    # serial draw: m = 21, 15 and 8383 are odd, 2000 is below half a 4099
    # chunk and 8383 spans more than two
    monkeypatch.setattr(csbm, "_CHUNK", chunk)
    shapes = ((1, 1), (2, 2), (2, 3), (3, 5), (7, 7), (17, 17), (40, 23), (1, 2000), (101, 83))
    for rows, cols in shapes:
        for p in (0.0, 0.3, 1.0):
            for triangular in (True, False):
                if triangular and rows != cols:
                    continue
                args = (p, rows, cols, 4, 9, triangular)
                ours, ref = np.random.default_rng(11), np.random.default_rng(11)
                # a 32-bit draw leaves half a word buffered, which uniform
                # draws never touch: the block must leave it in place
                assert ours.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)
                got = csbm._sample_block_edges(ours, *args)
                want = triu_mask_block_edges(ref, *args)
                assert got.dtype == np.int64 and got.shape[1] == 2
                assert np.array_equal(got, want), (chunk, rows, cols, p, triangular)
                # the stream stands where one serial draw leaves it
                assert ours.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)
                assert ours.random() == ref.random()


# sha256 over the edges, features and labels bytes of each benchmark graph
# (n=5000, d=40, f=128, mu=10, seed 0), as the serial one-draw-per-pair
# sampler gave them
PINNED_GRAPHS = {
    "csbm_n5000_h0.2_seed0": "b78405a1a730264e7f0eacad16644d209ed9ae7aad18e6606024fc09e7397795",
    "csbm_n5000_h0.8_seed0": "f2d53daa3941a1d1e5ec62d302dc082f00e4187d62a8fbe66e7dffbf9b032dad",
}


def test_benchmark_graphs_match_pinned_bytes(benchmark_graph):
    g = benchmark_graph
    digest = hashlib.sha256()
    for a in (g.edges, g.features, g.labels):
        digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_GRAPHS[g.name], (
        f"{g.name} is not the pinned graph: generate's draws changed, in the "
        "sampler or in numpy's PCG64 / Generator streams, and every pinned "
        "checkpoint and benchmark figure built on this graph moves with it"
    )


@pytest.mark.parametrize(
    "n, f, d_avg, h, seed",
    [
        (5000, 128, 40.0, 0.2, 0),  # the two benchmark graphs
        (5000, 128, 40.0, 0.8, 0),
        (600, 8, 12.0, 0.0, 1),
        (600, 8, 12.0, 1.0, 2),
        (600, 8, 12.0, 0.5, 3),
        (2, 3, 1.0, 0.0, 4),
        (4, 3, 2.0, 0.5, 5),
    ],
)
def test_generate_matches_whole_block_reference(monkeypatch, n, f, d_avg, h, seed):
    p = CsbmParams(n=n, f=f, d_avg=d_avg, h=h, mu=10.0, seed=seed)
    monkeypatch.setattr(csbm, "_CHUNK", 4099)  # blocks span several chunks
    g = generate(p)
    monkeypatch.setattr(csbm, "_sample_block_edges", triu_mask_block_edges)
    want = generate(p)
    assert g.edges.tobytes() == want.edges.tobytes()
    assert g.features.tobytes() == want.features.tobytes()
    assert g.labels.tobytes() == want.labels.tobytes()
