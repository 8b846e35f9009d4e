"""Prompt graphs grafted onto a frozen backbone for few-shot tuning.

Each filter view receives a small trainable prompt graph: N_p feature rows
that are (by default) re-standardized per column to the original graph's
feature statistics, wired to each other and to original nodes by sigmoid
dot-product thresholds, and inserted before filtering. Only prompt features
and a linear task head train; gradients reach the prompts through the
filtered features and the normalization, never through the binary edge
indicators (piecewise constant by construction). Edge sets are rebuilt from
the current prompts at the start of every epoch and held fixed within it.

Each frozen encoder runs project -> filter -> bias and activation. The filter
g(L') acts on rows and W on columns, so g(L')([X; P] W) = (g(L')[X; P]) W, and
by linearity the original nodes' rows split into a base term g(L')[X W; 0]
and G_p P W, with G_p = g(L')[:n, n:] the filter on the N_p prompt columns.
Neither piece depends on the prompt values, and g(L') is symmetric, so the
prompt gradient is G_p^T ds W^T.

A training epoch's loss reads only the K-shot rows, so training forms both
pieces, the mixed embeddings and the logits on those rows alone. The filter
engine runs each step on the ball of rows that later steps read
(bank_filter_apply with rows). Validation, predict() and prompted_encode()
read every row and take the full path (beta_filter_apply). L' is built one
way for both, PromptedGraph.laplacian: the rows a filter reads are assembled
from the base graph's Laplacian and the prompt wiring (_PromptedRows), so the
whole prompted Laplacian is never built for training. The tests keep the
build from the combined edge list (laplacian_from_edges) as the oracle.

Within one tune(), predict() or gradient check closure, operators are cached
by wiring and row set: the wiring is the boolean mask of wired cross pairs
plus the inner edges, and a branch whose wiring equals that of a branch
already built on the same rows reuses its Laplacian (rows), G_p and base
term, so a training epoch whose wiring is unchanged builds no edge array and
runs no sparse product at all.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graph import DatasetError, DatasetSplit, Graph, edge_homophily, laplacian
# laplacian_from_edges stays bound here for callers that wrap it through this
# module (bench/tracing.py does); nothing here calls it
from .graph import laplacian_from_edges  # noqa: F401
from .nn import (
    Adam,
    LinearLayer,
    NumericError,
    Param,
    pack_arrays,
    sigmoid,
    softmax_cross_entropy,
    softmax_over_filters,
    unpack_arrays,
)
from .pretrain import FrozenModel, PretrainConfig, derive_seed
from .spectral import bank_filter_apply, beta_filter_apply

STATE_MAGIC = b"HSGPPRM1"

SIGMA_FLOOR = 1e-8

TAU_CROSS_HOMOPHILIC = 0.55
TAU_CROSS_HETEROPHILIC = 0.40


def default_tau_cross(homophily: float) -> float:
    return TAU_CROSS_HOMOPHILIC if homophily >= 0.5 else TAU_CROSS_HETEROPHILIC


@dataclass(frozen=True)
class TuneConfig:
    n_prompt: int = 10
    tau_inner: float = 0.2
    tau_cross: float | None = None  # None: pick by the graph's edge homophily
    lr: float = 5e-3
    epochs: int = 2000
    eval_every: int = 10
    seed: int = 0
    shared_prompt: bool = False
    normalize: bool = True


# ablation variant -> (pre-trains on the low-pass kernel g_{0,C} alone,
# TuneConfig overrides); low_pass_only acts at pre-training, the rest at tuning
ABLATION_VARIANTS = {
    "full": (False, {}),
    "low_pass_only": (True, {}),
    "single_prompt": (False, {"shared_prompt": True}),
    "no_prompt": (False, {"n_prompt": 0}),
    "no_prompt_norm": (False, {"normalize": False}),
}


def variant_configs(
    variant: str, pre: PretrainConfig, tune_cfg: TuneConfig
) -> tuple[PretrainConfig, TuneConfig]:
    """The (pre-training, tuning) configs of one ablation variant.

    The full model's configs are the base; a variant flips only its own
    knobs (ABLATION_VARIANTS).
    """
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant: {variant!r}")
    low_pass_bank, overrides = ABLATION_VARIANTS[variant]
    if low_pass_bank:
        pre = replace(pre, filters=((0, pre.order),))
    return pre, replace(tune_cfg, **overrides)


@dataclass
class PromptGraph:
    features: Param  # (n_prompt, feature_dim)
    tau_inner: float
    tau_cross: float

    @property
    def n_prompt(self) -> int:
        return self.features.value.shape[0]


@dataclass
class PromptState:
    prompts: tuple  # one PromptGraph per filter, or a single shared one
    head: LinearLayer
    shared: bool
    normalize: bool

    def tunable_params(self):
        out = [p.features for p in self.prompts]
        out.extend(self.head.params())
        return out

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self.tunable_params())


def feature_stats(X: np.ndarray):
    """Per-column mean and population standard deviation."""
    return X.mean(axis=0), X.std(axis=0)


def normalize_prompt(P: np.ndarray, mu_o: np.ndarray, sigma_o: np.ndarray):
    """Re-standardize prompt columns to the original feature statistics.

    out = (P - mean(P)) / max(std(P), 1e-8) * sigma_o + mu_o, column-wise.
    Returns (out, vjp); the vjp differentiates through the prompt's own mean
    and std (the floor branch contributes zero gradient through std).
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    m = P.mean(axis=0)
    s = P.std(axis=0)
    s_t = np.maximum(s, SIGMA_FLOOR)
    a = sigma_o / s_t
    centered = P - m
    out = a * centered + mu_o

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        core = a * (g - g.mean(axis=0))
        active = s > SIGMA_FLOOR
        coef = np.zeros_like(s)
        t = np.einsum("ij,ij->j", g, centered)
        coef[active] = sigma_o[active] / s_t[active] ** 2 * t[active] / (n * s[active])
        return core - coef * centered

    return out, vjp


def build_inner_edges(P: np.ndarray, tau: float) -> np.ndarray:
    """Prompt-local pairs (i, j), i < j, with sigmoid(p_i . p_j) > tau."""
    n = P.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    iu, ju = np.triu_indices(n, k=1)
    keep = sigmoid(np.einsum("ij,ij->i", P[iu], P[ju])) > tau
    return np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)


def cross_mask(P: np.ndarray, X: np.ndarray, tau: float) -> np.ndarray:
    """sigmoid(P @ X.T) > tau bit for bit, taking the sigmoid only near the cut.

    With t = logit(tau) and delta = 1e-6 (1 + |t|), the exact sigmoid of a
    score above t + delta lies at least ~tau (1 - tau) delta above tau, and
    that of a score at or below t - delta as far below it. The computed
    sigmoid is within a few ulp of 1 of the exact one, orders of magnitude
    closer, so it falls on the same side as the raw comparison and only
    scores in (t - delta, t + delta] need it. Where tau (1 - tau) delta is
    below 1e-13 (tau <= 0, tau >= 1, or tau within ~5e-9 of either) every
    score takes the sigmoid.
    """
    if P.shape[0] == 0:
        return np.zeros((0, X.shape[0]), dtype=bool)
    scores = P @ X.T
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        return sigmoid(scores) > tau
    t = math.log(tau / (1.0 - tau))
    delta = 1e-6 * (1.0 + abs(t))
    if tau * (1.0 - tau) * delta < 1e-13:
        return sigmoid(scores) > tau
    mask = scores > t + delta
    band = (scores > t - delta) ^ mask  # (t - delta, t + delta]; mask is inside
    if band.any():
        mask[band] = sigmoid(scores[band]) > tau
    return mask


def _mask_edges(mask: np.ndarray) -> np.ndarray:
    """(row, column) pairs of a boolean mask's true entries, row-major."""
    return np.stack(np.nonzero(mask), axis=1).astype(np.int64, copy=False)


@dataclass
class PromptedGraph:
    """A base graph with prompt nodes appended at indices N .. N+N_p-1.

    Its features are [base.features; prompt_features] and its edges are the
    base edges, the inner edges and the mask's cross pairs; neither is
    formed here. L' is built one way, by laplacian(), which assembles rows;
    the tests build it from the combined edge list as its oracle.
    """

    base: Graph
    prompt_features: np.ndarray  # values actually inserted (post-normalization)
    inner_edges: np.ndarray  # prompt-local (i, j), i < j
    mask: np.ndarray  # (N_p, N) bool: prompt i wired to original node j
    key: tuple  # (n_total, packed mask, inner edge bytes) of the wiring

    @cached_property
    def cross_edges(self) -> np.ndarray:
        """(prompt index, original node index) pairs of the mask, row-major.

        Built on first use, so a wiring whose operators are already cached
        never builds them.
        """
        return _mask_edges(self.mask)

    @property
    def n_total(self) -> int:
        return self.base.n_nodes + self.prompt_features.shape[0]

    def laplacian(self, base_csr, rows=None, radius: int = 0) -> sp.csr_matrix:
        """The normalized L' (n_total x n_total CSR) on the rows within radius
        hops of rows, or on every row when rows is None; other rows are empty.

        base_csr is the base graph's normalized Laplacian; the rows are
        assembled from it and the wiring (_PromptedRows).
        """
        assembled = _PromptedRows(base_csr, self)
        q = np.arange(self.n_total) if rows is None else assembled.ball(rows, radius)
        return assembled.laplacian(q)


def insert_prompt(
    g: Graph, prompt_features: np.ndarray, tau_inner: float, tau_cross: float
) -> PromptedGraph:
    """Wire already-prepared prompt rows into the graph by both thresholds."""
    P = np.asarray(prompt_features, dtype=np.float64)
    if P.ndim != 2 or (P.size and P.shape[1] != g.feature_dim):
        raise ValueError("prompt features must be (n_prompt, feature_dim)")
    inner = build_inner_edges(P, tau_inner)
    mask = cross_mask(P, g.features, tau_cross)
    key = (g.n_nodes + P.shape[0], np.packbits(mask).tobytes(), inner.tobytes())
    return PromptedGraph(g, P, inner, mask, key)


class _Branch:
    """One filter's prompted operator plus the pieces backward needs.

    base = (g(L') [X W; 0])[rows] and gp = g(L')[rows, n:], so the original
    nodes' filtered pre-activations are base + gp (P_in W), P_in being
    prompted.prompt_features. rows are all original nodes, or the sorted
    shot rows in training; lap holds (at least) the rows of L' the filter
    read.
    """

    __slots__ = ("prompted", "lap", "base", "gp", "norm_vjp", "param")

    def __init__(self, prompted, lap, base, gp, norm_vjp, param):
        self.prompted = prompted
        self.lap = lap
        self.base = base
        self.gp = gp
        self.norm_vjp = norm_vjp
        self.param = param


def _ranges(starts, lens):
    """Concatenated aranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


def _two_segment_rows(ptr_a, a, ptr_b, b, q):
    """(lengths, columns) of rows q, each its a-segment then its b-segment."""
    la = ptr_a[q + 1] - ptr_a[q]
    lb = ptr_b[q + 1] - ptr_b[q]
    lens = la + lb
    start = np.cumsum(lens) - lens
    cols = np.empty(int(lens.sum()), dtype=np.int64)
    cols[_ranges(start, la)] = a[_ranges(ptr_a[q], la)]
    cols[_ranges(start + la, lb)] = b[_ranges(ptr_b[q], lb)]
    return lens, cols


def _pointers(counts):
    return np.concatenate([[0], np.cumsum(counts)])


class _PromptedRows:
    """Rows of a prompted graph's normalized Laplacian, built from pieces.

    The pieces are the base Laplacian's CSR structure (one per graph), the
    cross pairs sorted by (node, prompt) and by (prompt, node), and the
    prompt block with its diagonal. A base row is its base columns then its
    prompts (all >= n); a prompt row is its nodes then its prompt block
    columns. Both come out in ascending order, as in the CSR that
    laplacian_from_edges sorts, and each value is the product it forms:
    -(d_i^-1/2 d_j^-1/2) off the diagonal, 1 on it, with the prompted
    degrees (base degrees plus a bincount of the cross endpoints). Every
    base row holds its diagonal and one entry per neighbour, so its length
    less one is the base degree. The rows equal those of the Laplacian that
    laplacian_from_edges builds from the combined edge list bit for bit (the
    tests' oracle). The edge arrays must be canonical (no repeated pair).
    """

    def __init__(self, base_csr, pg: PromptedGraph):
        n = pg.base.n_nodes
        n_p = pg.n_total - n
        p, v = pg.cross_edges[:, 0], pg.cross_edges[:, 1]
        iu, ju = pg.inner_edges[:, 0], pg.inner_edges[:, 1]
        self.n = n
        self.n_total = pg.n_total
        self.base_ptr, self.base_cols = base_csr.indptr, base_csr.indices
        self.node_ptr = _pointers(np.bincount(v, minlength=n))
        self.node_prompts = n + p[np.lexsort((p, v))]
        prompt_deg = np.bincount(p, minlength=n_p)
        self.prompt_ptr = _pointers(prompt_deg)
        self.prompt_nodes = v[np.lexsort((v, p))]
        block = np.eye(n_p, dtype=bool)
        block[iu, ju] = block[ju, iu] = True
        bi, bj = np.nonzero(block)
        self.block_ptr = _pointers(np.bincount(bi, minlength=n_p))
        self.block_cols = n + bj
        deg = np.concatenate(
            [
                np.diff(self.base_ptr) - 1 + np.bincount(v, minlength=n),
                prompt_deg + np.bincount(iu, minlength=n_p) + np.bincount(ju, minlength=n_p),
            ]
        ).astype(np.float64)
        self.dinv = np.zeros(pg.n_total)
        nz = deg > 0
        self.dinv[nz] = 1.0 / np.sqrt(deg[nz])

    def structure(self, q):
        """(lengths, columns) of the sorted rows q of the prompted graph."""
        split = np.searchsorted(q, self.n)
        lb, cb = _two_segment_rows(
            self.base_ptr, self.base_cols, self.node_ptr, self.node_prompts, q[:split]
        )
        lp, cp = _two_segment_rows(
            self.prompt_ptr, self.prompt_nodes, self.block_ptr, self.block_cols, q[split:] - self.n
        )
        return np.concatenate([lb, lp]), np.concatenate([cb, cp])

    def ball(self, rows, radius):
        """N^radius[rows], sorted (every row lists its own diagonal)."""
        q = np.unique(rows)
        for _ in range(radius):
            q = np.unique(self.structure(q)[1])
        return q

    def laplacian(self, q) -> sp.csr_matrix:
        """(n_total x n_total) CSR holding rows q (sorted) of L'; other rows empty."""
        lens, cols = self.structure(q)
        at = np.repeat(q, lens)
        data = -(self.dinv[at] * self.dinv[cols])
        data[cols == at] = 1.0
        counts = np.zeros(self.n_total, dtype=np.int64)
        counts[q] = lens
        return sp.csr_matrix((data, cols, _pointers(counts)), shape=(self.n_total, self.n_total))


class _EdgeSetOperators:
    """Prompted operators keyed by wiring and row set, for one call.

    An entry holds the prompted Laplacian (or, for a row set, the rows of it
    the filter reads) and, per filter, the base term and G_p of _Branch on
    those rows; none depends on the prompt values. Both paths build it by
    PromptedGraph.laplacian from the base graph's Laplacian, built once per
    call. X and the frozen W_k never change within a call, so the filter
    input [X W_k, 0; 0, I] is formed once per filter. Per row set, entries
    used by the previous or the current build survive and older ones are
    dropped, so a wiring that changes every epoch holds two builds' worth and
    a validation build never evicts the training entries.
    """

    def __init__(self, g: Graph, model):
        self.g = g
        self.model = model
        self.stats = feature_stats(g.features)
        self._signals = {}
        self._base_csr = None
        self._gens = {}  # row set -> (previous build's entries, current build's)

    def next_build(self, rows):
        key = None if rows is None else rows.tobytes()
        self._gens[key] = (self._gens.get(key, (None, {}))[1], {})

    def get(self, pg: PromptedGraph, k: int, rows):
        """(Laplacian, base, gp) of filter k on pg's edge set, on rows (None: all)."""
        prev, cur = self._gens[None if rows is None else rows.tobytes()]
        entry = cur.get(pg.key)
        if entry is None:
            entry = prev.get(pg.key)
            if entry is None:
                entry = (self._laplacian(pg, rows), {})
            cur[pg.key] = entry
        lap, blocks = entry
        if k not in blocks:
            blocks[k] = self._filter_blocks(lap, k, rows)
        return (lap, *blocks[k])

    def _laplacian(self, pg: PromptedGraph, rows):
        if self._base_csr is None:
            self._base_csr = laplacian(self.g)
        # a degree-C filter reads L' on the rows within C - 1 hops of rows
        return pg.laplacian(self._base_csr, rows, max(self.model.bank.order - 1, 0))

    def _filter_blocks(self, lap, k: int, rows):
        n = self.g.n_nodes
        n_p = lap.shape[0] - n
        h = self.model.hidden_dim
        if (k, n_p) not in self._signals:
            # one filter pass over [X W, 0; 0, I] gives the base term and G_p
            m = np.zeros((n + n_p, h + n_p))
            m[:n, :h] = self.g.features @ self.model.encoders[k].weight.value
            m[n:, h:] = np.eye(n_p)
            self._signals[k, n_p] = m
        m = self._signals[k, n_p]
        kk, rr = self.model.bank.filters[k]
        if rows is None:
            out = beta_filter_apply(lap, kk, rr, m)[:n]
        else:
            (out,) = bank_filter_apply(lap, ((kk, rr),), m, rows=rows)
        return np.ascontiguousarray(out[:, :h]), np.ascontiguousarray(out[:, h:])


def _wire(g: Graph, prompt: PromptGraph, normalize: bool, stats, held=None):
    """(PromptedGraph, normalization vjp or None) for the current prompt rows."""
    P = prompt.features.value
    norm_vjp = None
    if P.shape[0] and normalize:
        P_in, norm_vjp = normalize_prompt(P, *stats)
    else:
        P_in = P
    if held is not None:
        # edge structure held constant (gradient checking): only features move
        return replace(held, prompt_features=P_in), norm_vjp
    return insert_prompt(g, P_in, prompt.tau_inner, prompt.tau_cross), norm_vjp


def _build_branches(g: Graph, state: PromptState, ops: _EdgeSetOperators, held=None, rows=None):
    """One branch per filter on rows (None: every original node), wired from
    the current prompts or, given the branches of an earlier build as `held`,
    on their edge sets."""
    ops.next_build(rows)
    wired = {}
    branches = []
    for k in range(ops.model.bank.size):
        i = 0 if state.shared else k
        prompt = state.prompts[i]
        if i not in wired:
            wired[i] = _wire(
                g, prompt, state.normalize, ops.stats, None if held is None else held[k].prompted
            )
        pg, norm_vjp = wired[i]
        lap, base, gp = ops.get(pg, k, rows)
        branches.append(_Branch(pg, lap, base, gp, norm_vjp, prompt.features))
    return branches


def _loss_rows(shots):
    """(sorted distinct shot rows, each shot's position among them)."""
    shots = np.asarray(shots, dtype=np.int64).reshape(-1)
    rows = np.unique(shots)
    return rows, np.searchsorted(rows, shots)


def tuning_loss_fn(g: Graph, frozen: FrozenModel, state: PromptState, shots):
    """Closure for gradient checking: edge sets frozen at the current prompts.

    The returned callable zeroes grads, reruns normalization and the forward
    pass on the captured edge sets (and their filtered blocks) on the shot
    rows, as a training epoch does, backpropagates, and returns the loss.
    """
    ops = _EdgeSetOperators(g, frozen.model)
    rows, at = _loss_rows(shots)
    held = _build_branches(g, state, ops, rows=rows)
    params = state.tunable_params()

    def loss_fn():
        for p in params:
            p.zero_grad()
        branches = _build_branches(g, state, ops, held=held, rows=rows)
        _, logits, backward = _forward(g, frozen, state, branches, train=True)
        loss, dlogits = softmax_cross_entropy(logits, g.labels[rows], at)
        backward(dlogits)
        return loss

    return loss_fn


def _forward(g: Graph, frozen: FrozenModel, state: PromptState, branches, train: bool):
    """Integrated embeddings and logits on the branches' rows.

    Each encoder runs project -> filter -> bias and activation, which equals
    filter -> encoder because g(L') acts on rows and W on columns. The
    branch carries the filtered blocks on its rows, built once per edge set
    (see _EdgeSetOperators), so the pre-activations cost one N_p-wide
    product: base + gp (P_in W) + b. The prompt rows' outputs are never read
    and never formed.

    Returns (integrated, logits, backward) where backward(dlogits) sends
    gradients into the prompt features and the head.
    """
    model = frozen.model
    weights = softmax_over_filters(model.mix.value)
    integrated = np.zeros((branches[0].base.shape[0], model.hidden_dim))
    tapes = []
    for k, enc in enumerate(model.encoders):
        br = branches[k]
        s = br.gp @ (br.prompted.prompt_features @ enc.weight.value)
        s += br.base
        s += enc.bias.value
        z, _ = enc.activate(s)
        integrated += weights[k][None, :] * z
        tapes.append((br, enc, s))
    logits, head_vjp = state.head.apply(integrated, accumulate=train)

    def backward(dlogits):
        dintegrated = head_vjp(dlogits)
        # rows with a zero logit gradient (all but the loss mask) add nothing
        rows = np.flatnonzero(dlogits.any(axis=1))
        for k, (br, enc, s) in enumerate(tapes):
            if br.gp.shape[1] == 0:
                continue  # no prompt rows, nothing tunable in this branch
            _, act_vjp = enc.activate(s[rows])
            ds = act_vjp(weights[k][None, :] * dintegrated[rows])
            # g(L') is symmetric, so the prompt rows receive G_p^T ds W^T
            dprompt = (br.gp[rows].T @ ds) @ enc.weight.value.T
            br.param.grad += br.norm_vjp(dprompt) if br.norm_vjp is not None else dprompt

    return integrated, logits, backward


def prompted_encode(g: Graph, frozen: FrozenModel, state: PromptState) -> np.ndarray:
    """Frozen-backbone embeddings of the original nodes under the prompts."""
    branches = _build_branches(g, state, _EdgeSetOperators(g, frozen.model))
    integrated, _, _ = _forward(g, frozen, state, branches, train=False)
    return integrated


def _prompt_name(i: int, n_graphs: int) -> str:
    return "prompt.features" if n_graphs == 1 else f"prompt{i}.features"


def init_state(g: Graph, frozen: FrozenModel, cfg: TuneConfig, n_classes: int) -> PromptState:
    """Fresh prompts (rows drawn from the feature column statistics) + head."""
    rng = np.random.default_rng(derive_seed(cfg.seed, 2))
    mu_o, sigma_o = feature_stats(g.features)
    tau_cross = cfg.tau_cross
    if tau_cross is None:
        tau_cross = default_tau_cross(edge_homophily(g)) if g.labels is not None else TAU_CROSS_HETEROPHILIC
    n_graphs = 1 if (cfg.shared_prompt or cfg.n_prompt == 0) else frozen.model.bank.size
    # one draw replicated across per-filter graphs: at init the per-filter
    # family coincides with the shared configuration (same rows, same inserted
    # edges, identical rng state left for the head), and the branches then
    # specialise only through branch-specific gradients
    rows0 = rng.standard_normal((cfg.n_prompt, g.feature_dim)) * sigma_o + mu_o
    prompts = []
    for i in range(n_graphs):
        name = _prompt_name(i, n_graphs)
        prompts.append(
            PromptGraph(
                features=Param(rows0.copy(), name), tau_inner=cfg.tau_inner, tau_cross=tau_cross
            )
        )
    head = LinearLayer(
        frozen.model.hidden_dim, n_classes, rng, activation="identity", prefix="head"
    )
    shared = cfg.shared_prompt or cfg.n_prompt == 0
    return PromptState(prompts=tuple(prompts), head=head, shared=shared, normalize=cfg.normalize)


def tune(g: Graph, frozen: FrozenModel, split: DatasetSplit, cfg: TuneConfig):
    """Fit prompts and head on the K-shot set; select by validation F1.

    Training epochs filter, mix and score the shot rows only; validation
    runs the full path on every row. The backbone hash is verified before
    and after: any drift is a hard failure. Only shot and validation labels
    are ever read. Returns
    (best state, history rows (epoch, train loss, val F1 or nan)).
    """
    from .evaluate import macro_f1  # deferred: evaluate imports this module

    frozen.verify()
    if g.labels is None:
        raise ValueError("labels absent")
    n_classes = g.n_classes if g.n_classes is not None else int(g.labels.max()) + 1
    state = init_state(g, frozen, cfg, n_classes)
    params = state.tunable_params()
    opt = Adam(params, lr=cfg.lr)
    rows, at = _loss_rows(np.concatenate(split.shot_indices))
    labels = g.labels[rows]
    ops = _EdgeSetOperators(g, frozen.model)
    history = []
    best_f1 = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        branches = _build_branches(g, state, ops, rows=rows)
        for p in params:
            p.zero_grad()
        _, logits, backward = _forward(g, frozen, state, branches, train=True)
        loss, dlogits = softmax_cross_entropy(logits, labels, at)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite tuning loss at epoch {epoch}")
        backward(dlogits)
        opt.step()
        val_f1 = np.nan
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            fresh = _build_branches(g, state, ops)
            _, val_logits, _ = _forward(g, frozen, state, fresh, train=False)
            pred = np.argmax(val_logits, axis=1)
            val_f1 = macro_f1(pred, g.labels, n_classes, split.val_indices)
            if val_f1 > best_f1:
                best_f1 = val_f1
                best_values = [p.value.copy() for p in params]
        history.append((epoch, float(loss), float(val_f1)))
    frozen.verify()
    if best_values is not None:
        for p, v in zip(params, best_values):
            p.value[...] = v
    return state, history


def predict(g: Graph, frozen: FrozenModel, state: PromptState) -> np.ndarray:
    """Class probabilities (rows sum to one) for every node."""
    branches = _build_branches(g, state, _EdgeSetOperators(g, frozen.model))
    _, logits, _ = _forward(g, frozen, state, branches, train=False)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def state_bytes(state: PromptState) -> bytes:
    p0 = state.prompts[0]
    meta = [
        len(state.prompts),
        1 if state.shared else 0,
        1 if state.normalize else 0,
        state.head.weight.value.shape[0],
        state.head.weight.value.shape[1],
    ]
    floats = [p0.tau_inner, p0.tau_cross]
    arrays = [(p.features.name, p.features.value) for p in state.prompts]
    arrays.append((state.head.weight.name, state.head.weight.value))
    arrays.append((state.head.bias.name, state.head.bias.value))
    return pack_arrays(STATE_MAGIC, meta, arrays, floats)


def state_hash(state: PromptState) -> str:
    return hashlib.sha256(state_bytes(state)).hexdigest()


def save_state(state: PromptState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(state_bytes(state))


def state_from_bytes(blob: bytes) -> PromptState:
    """Decode a prompt state; anything malformed raises ValueError.

    The metadata is checked against the stored arrays before anything is
    built, so what it allocates is bounded by the blob.
    """
    meta, floats, arrays = unpack_arrays(blob, STATE_MAGIC)
    if len(meta) != 5 or len(floats) != 2:
        raise ValueError(f"state header holds {len(meta)} integers and {len(floats)} floats")
    n_graphs, shared, normalize, hidden, n_classes = meta
    if shared not in (0, 1) or normalize not in (0, 1) or (shared and n_graphs != 1):
        raise ValueError(f"bad state header {meta}")
    if n_graphs < 1 or n_graphs + 2 != len(arrays):
        raise ValueError(f"{len(arrays)} stored arrays for {n_graphs} prompt graphs and a head")
    by_name = dict(arrays)
    names = [_prompt_name(i, n_graphs) for i in range(n_graphs)]
    if len(by_name) != len(arrays) or set(by_name) != {*names, "head.weight", "head.bias"}:
        raise ValueError(
            f"stored arrays {sorted(by_name)} do not match {n_graphs} prompt graphs and a head"
        )
    prompt_shape = by_name[names[0]].shape
    if len(prompt_shape) != 2 or any(by_name[name].shape != prompt_shape for name in names):
        raise ValueError("prompt feature arrays must share one 2-D shape")
    head_shapes = by_name["head.weight"].shape, by_name["head.bias"].shape
    if head_shapes != ((hidden, n_classes), (n_classes,)):
        raise ValueError(f"head arrays do not match hidden {hidden}, n_classes {n_classes}")
    tau_inner, tau_cross = floats
    prompts = tuple(
        PromptGraph(features=Param(by_name[name], name), tau_inner=tau_inner, tau_cross=tau_cross)
        for name in names
    )
    rng = np.random.default_rng(0)
    head = LinearLayer(hidden, n_classes, rng, activation="identity", prefix="head")
    head.weight.value[...] = by_name["head.weight"]
    head.bias.value[...] = by_name["head.bias"]
    return PromptState(prompts=prompts, head=head, shared=bool(shared), normalize=bool(normalize))


def load_state(path) -> PromptState:
    """Read a saved prompt state; one that cannot be decoded raises DatasetError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return state_from_bytes(blob)
    except ValueError as e:
        raise DatasetError(f"unreadable prompt state: {e}", path=path) from e
