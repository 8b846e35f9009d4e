"""Contextual stochastic block model with a tunable homophily level.

Two balanced classes y in {-1, +1}. Features are a rank-one class signal
plus isotropic noise:

    x_i = sqrt(mu / n) * y_i * u + w_i / sqrt(f),   u ~ N(0, I/f),  w_i ~ N(0, I)

Edges are sampled independently with intra-class probability (d + s sqrt(d))/n
and inter-class probability (d - s sqrt(d))/n where s = sqrt(d) (2h - 1), so
the expected edge homophily is exactly h and the expected degree is d.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class CsbmParams:
    n: int = 3000
    f: int = 128
    d_avg: float = 50.0
    h: float = 0.5
    mu: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be even and >= 2")
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.d_avg <= 0:
            raise ValueError("d_avg must be positive")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must lie in [0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        p_in, p_out = edge_probabilities(self)
        for name, p in (("intra", p_in), ("inter", p_out)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"{name}-class edge probability {p:.4f} outside [0, 1]; "
                    "reduce d_avg or move h toward 0.5"
                )


def edge_probabilities(params: CsbmParams):
    """(intra, inter) pair probabilities.

    The separation parameter s = sqrt(d) (2h - 1) gives p_in = (d + s
    sqrt(d))/n, which simplifies to 2hd/n; the simplified form is used so the
    endpoints h = 0 and h = 1 are exact (the s route leaves roundoff there).
    """
    p_in = 2.0 * params.h * params.d_avg / params.n
    p_out = 2.0 * (1.0 - params.h) * params.d_avg / params.n
    return float(p_in), float(p_out)


# Uniforms drawn per step, shared by a block's two halves: 32 MiB of doubles
# at most, whatever the block size. Smaller chunks draw faster (n=50k: 6.9 s
# at 2^16 against 9.1 s), but a freed mmapped block of at most 32 MiB
# (glibc's DEFAULT_MMAP_THRESHOLD_MAX) raises glibc's mmap threshold to its
# size. At n=5000 the 25 MB buffers of the two triangular blocks do so, and
# the full 2^22 buffer, which maps a little more than 32 MiB, does not. The
# raised threshold keeps later n x f temporaries on the heap; at 2^16,
# pre-training run after generate in the same process took ~2.5x the page
# faults and ~8% longer.
_CHUNK = 1 << 22


def _kept_pairs(rng, p, buf, below, start, stop):
    """Indices in [start, stop) whose uniform, drawn from rng in chunks of
    len(buf), falls below p; `below` holds each chunk's comparison."""
    kept = []
    for lo in range(start, stop, max(len(buf), 1)):
        u = buf[: min(len(buf), stop - lo)]
        rng.random(out=u)
        k = np.flatnonzero(np.less(u, p, out=below[: len(u)]))
        k += lo
        kept.append(k)
    return kept


def _sample_block_edges(rng, p, rows, cols, row_offset, col_offset, triangular):
    """Bernoulli edges of one class block, returned as canonical pairs.

    One uniform is drawn per pair, in row-major order over the block (the
    strict upper triangle when `triangular`). The m draws are split into two
    contiguous halves, drawn at once on the calling thread and one helper
    thread (Generator.random releases the GIL): the second half reads a copy
    of rng's bit generator advanced past the first, and rng is left where the
    second half ends. Both halves draw in chunks into their own part of one
    buffer of min(m, _CHUNK) doubles, which yields the stream and the final
    state of one draw of the whole block, and only the indices of kept pairs
    are mapped back to (i, j), so memory is one buffer plus the kept edges.
    """
    m = rows * (rows - 1) // 2 if triangular else rows * cols
    buf = np.empty(min(m, max(_CHUNK, 2)))  # a one-double _CHUNK still splits
    # allocated here, so the helper thread's own heap holds only kept indices
    below = np.empty(len(buf), dtype=bool)
    head, split = m - m // 2, len(buf) - len(buf) // 2
    state = rng.bit_generator.state
    tail_bits = type(rng.bit_generator)()
    tail_bits.state = state
    tail_bits.advance(head)
    with ThreadPoolExecutor(max_workers=1) as helper:
        tail = helper.submit(
            _kept_pairs, np.random.Generator(tail_bits), p, buf[split:], below[split:], head, m
        )
        kept = _kept_pairs(rng, p, buf[:split], below[:split], 0, head)
        kept += tail.result()
    # freed before the index mapping, so its arrays reuse these pages instead
    # of landing above them (set-up's peak RSS at n=5000 then stays put)
    del buf, below
    # advance() clears the buffered 32-bit half-word, which random() never touches
    rng.bit_generator.state = {
        **tail_bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]
    }
    k = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    if triangular:
        # row i holds pairs (i, i+1..rows-1) and starts at i(2 rows - i - 1)/2
        i = np.arange(rows, dtype=np.int64)
        row_start = i * (2 * rows - i - 1) // 2
        iu = np.searchsorted(row_start, k, side="right") - 1
        ju = iu + 1 + (k - row_start[iu])
    else:
        iu, ju = np.divmod(k, cols)
    return np.stack([iu + row_offset, ju + col_offset], axis=1)


def generate(params: CsbmParams) -> Graph:
    g, _ = generate_with_signal(params)
    return g


def generate_with_signal(params: CsbmParams):
    """Sample a graph and also return the hidden class direction u.

    Draw order is fixed (u, noise, block-0 edges, block-1 edges, cross
    edges) so a given seed always yields byte-identical output.
    """
    rng = np.random.default_rng(params.seed)
    n, f = params.n, params.f
    half = n // 2
    y = np.concatenate([-np.ones(half), np.ones(half)])
    u = rng.normal(0.0, 1.0 / np.sqrt(f), size=f)
    noise = rng.standard_normal((n, f)) / np.sqrt(f)
    X = np.sqrt(params.mu / n) * y[:, None] * u[None, :] + noise

    p_in, p_out = edge_probabilities(params)
    parts = [
        _sample_block_edges(rng, p_in, half, half, 0, 0, triangular=True),
        _sample_block_edges(rng, p_in, half, half, half, half, triangular=True),
        _sample_block_edges(rng, p_out, half, half, 0, half, triangular=False),
    ]
    edges = np.concatenate(parts, axis=0)
    labels = (y > 0).astype(np.int64)
    g = Graph(
        name=f"csbm_n{n}_h{params.h:g}_seed{params.seed}",
        edges=edges,
        features=X,
        labels=labels,
        n_classes=2,
    )
    return g, u
