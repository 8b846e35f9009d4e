"""Prompt graphs grafted onto a frozen backbone for few-shot tuning.

Each filter view receives a small trainable prompt graph: N_p feature rows
that are (by default) re-standardized per column to the original graph's
feature statistics, wired to each other and to original nodes by sigmoid
dot-product thresholds, and inserted before filtering. Only prompt features
and a linear task head train; gradients reach the prompts through the
filtered features and the normalization, never through the binary edge
indicators (piecewise constant by construction). Edge sets are rebuilt from
the current prompts at the start of every epoch and held fixed within it.
A build (a training step, a validation pass, predict()) forms the cross
scores of all its prompt graphs in one product [P_1; ...; P_K] @ X.T of the
normalized rows, and each graph's insert_prompt thresholds its own rows of
it, which are bit-equal to its own P @ X.T. A one-row graph forms its own
product (_cross_scores says why).

Each frozen encoder's pre-activation is g(L')([X; P] W) plus the bias. The
filter g(L') acts on rows and W on columns, so g(L')([X; P] W) =
(g(L')[X; P]) W, and by linearity the original nodes' rows split into a base
term g(L')[X W; 0] and G_p P W, with G_p = g(L')[:n, n:] the filter on the
N_p prompt columns. Neither piece depends on the prompt values, and g(L') is
symmetric, so the prompt gradient is G_p^T ds W^T. Both pieces come from one
filter pass per prompted operator and build: a filter that reads an
operator alone projects first and filters [X W, 0; 0, I]; the filters that
read one operator together (a shared prompt, or per-filter graphs wired
alike) filter [X, 0; 0, I] in one power series and project after it,
(g(L') X) W.

A training epoch's loss reads only the K-shot rows, so training forms both
pieces, the mixed embeddings and the logits on those rows alone. The filter
engine runs each step on the ball of rows that later steps read: it takes
the shot rows' RowWalk, the blocks L'[B_1] (global columns) and L'[B_0]
(columns renumbered into B_1) at the default order 2. Validation, predict()
and prompted_encode() read every row and take the full path on L' itself.
PromptedGraph.laplacian builds both with spectral.row_walk, the one builder
of every RowWalk, from PromptedGraph._rows: each row a filter reads is its
base Laplacian row followed by its wiring row, read off the mask and the
prompt block, and valued by the normalization rule that
laplacian_from_edges also uses, so training never forms a structure with a
row per node. The base rows of a row set are gathered once per build and
shared by its prompt graphs (spectral.CsrRows). The tests keep L' built
from the combined edge list as the oracle, and walk it with the same
row_walk over its CsrRows.

One _EdgeSetOperators owns every build of a tune(), predict() or gradient
check closure, and its caches end with the call. Its build() wires the
prompt graphs and groups the filters by wiring, the boolean mask of wired
cross pairs plus the inner edges. Per row set it keeps what the last build
on those rows used: each wiring's Laplacian (rows) and, once a filter has
run on it in a kind of pass (lone or shared), that filter's G_p and base
term. So a training epoch whose wiring is unchanged builds no Laplacian and
runs no sparse product at all, and a validation build leaves the training
operators in place.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .graph import (
    DatasetSplit,
    Graph,
    edge_homophily,
    laplacian,
    normalized_laplacian_entries,
)
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
from .spectral import CsrRows, RowWalk, bank_filter_apply, beta_filter_apply, row_walk

STATE_MAGIC = b"HSGPPRM1"

SIGMA_FLOOR = 1e-8

TAU_CROSS_HOMOPHILIC = 0.55
TAU_CROSS_HETEROPHILIC = 0.40


def default_tau_cross(homophily: float | None) -> float:
    """tau_cross for a graph of this edge homophily; None (undefined) counts
    as heterophilic."""
    if homophily is not None and homophily >= 0.5:
        return TAU_CROSS_HOMOPHILIC
    return TAU_CROSS_HETEROPHILIC


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

    def __post_init__(self):
        # n_prompt 0 is the no_prompt ablation
        for name, least in (("epochs", 1), ("eval_every", 1), ("n_prompt", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"tuning takes {name} >= {least}, not {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"tuning takes a positive finite lr, not {self.lr}")
        for name in ("tau_inner", "tau_cross"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"tuning takes a finite {name}, not {value}")


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
class PromptState:
    """The tunable prompts and head, and the thresholds that wire every
    prompt graph."""

    prompts: tuple  # one (n_prompt, feature_dim) Param per filter, or a single shared one
    head: LinearLayer
    shared: bool
    normalize: bool
    tau_inner: float
    tau_cross: float

    def tunable_params(self):
        return [*self.prompts, *self.head.params()]


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


@lru_cache(maxsize=16)
def _upper_pairs(n: int):
    """np.triu_indices(n, k=1), formed once per size and read-only."""
    pairs = np.triu_indices(n, k=1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def build_inner_edges(P: np.ndarray, tau: float) -> np.ndarray:
    """Prompt-local pairs (i, j), i < j, with sigmoid(p_i . p_j) > tau."""
    n = P.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    iu, ju = _upper_pairs(n)
    keep = sigmoid(np.einsum("ij,ij->i", P[iu], P[ju])) > tau
    return np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)


def cross_mask(P: np.ndarray, X: np.ndarray, tau: float, scores=None) -> np.ndarray:
    """sigmoid(P @ X.T) > tau bit for bit, taking the sigmoid only near the cut.

    scores, when given, must be P @ X.T bit for bit; a build passes each
    prompt graph its rows of one stacked product (_cross_scores). None forms
    the product here. The scores are read, never kept.

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
    if scores is None:
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
    formed here. L' is built one way, by laplacian(), which assembles the
    rows a filter reads; the tests build it from the combined edge list as
    its oracle.
    """

    base: Graph
    prompt_features: np.ndarray  # values actually inserted (post-normalization)
    inner_edges: np.ndarray  # prompt-local (i, j), i < j
    mask: np.ndarray  # (N_p, N) bool: prompt i wired to original node j
    key: tuple  # (n_total, packed mask, inner edge bytes) of the wiring

    @cached_property
    def cross_edges(self) -> np.ndarray:
        """(prompt index, original node index) pairs of the mask, row-major.

        Read by the benchmark's tracer (bench/tracing.py) and the tests;
        nothing in the package reads them.
        """
        return _mask_edges(self.mask)

    @property
    def n_total(self) -> int:
        return self.base.n_nodes + self.prompt_features.shape[0]

    @cached_property
    def _block(self) -> np.ndarray:
        """The prompt rows' prompt columns: inner edges and the diagonal."""
        block = np.eye(self.prompt_features.shape[0], dtype=bool)
        iu, ju = self.inner_edges.T
        block[iu, ju] = block[ju, iu] = True
        return block

    def laplacian(self, base, rows=None, top: int = 1):
        """The normalized L' as the filter engine multiplies by it: an
        n_total x n_total CSR when rows is None, else the RowWalk of rows for
        a degree-top filter, whose blocks hold only the rows it reads.

        base is the base graph's normalized Laplacian, a CSR or its CsrRows.
        Both are built by row_walk from _rows, on every row with top 1 for
        the CSR. The edge arrays must be canonical (no repeated pair).
        """
        rows_of = partial(self._rows, base if isinstance(base, CsrRows) else CsrRows(base))
        if rows is None:
            return row_walk(rows_of, np.arange(self.n_total), 1, self.n_total).steps[0]
        return row_walk(rows_of, rows, top, self.n_total)

    def _rows(self, base, q, values=False):
        """(lengths, columns) of the rows q (sorted, distinct) of L', and with
        values their entries.

        Each row is its base row (none for a prompt) followed by its wiring
        row: a base node's prompts, or a prompt's nodes and then its
        prompt-block row, diagonal included. Both segments are ascending, as
        in the CSR that laplacian_from_edges sorts, and every row holds its
        diagonal, so a node's degree is its row length less one. The entries
        are valued by the rule laplacian_from_edges uses.
        """
        n = base.n
        cut = np.searchsorted(q, n)
        qb, qp = q[:cut], q[cut:] - n
        lens, cols = base(qb)
        wired = self.mask.T if cut == n else self.mask.T[qb]  # a row per node
        if wired.any():
            node, prompt = np.nonzero(wired)  # by node, then prompt
            # each node's prompts go after its base row, in order
            cols = np.insert(cols, np.cumsum(lens)[node], n + prompt)
            lens = lens + np.bincount(node, minlength=qb.size)
        if qp.size:
            wiring = np.concatenate([self.mask[qp], self._block[qp]], axis=1)
            lens = np.concatenate([lens, wiring.sum(axis=1)])
            cols = np.concatenate([cols, np.nonzero(wiring)[1]])
        if not values:
            return lens, cols
        # a node's degree adds its prompts; a prompt's counts its nodes and its
        # prompt-block row less the diagonal
        prompts = self.mask.sum(axis=1) + self._block.sum(axis=1) - 1
        deg = np.concatenate([base.lens - 1 + self.mask.sum(axis=0, dtype=np.int32), prompts])
        return lens, cols, normalized_laplacian_entries(deg, np.repeat(q, lens), cols)


def insert_prompt(
    g: Graph, prompt_features: np.ndarray, tau_inner: float, tau_cross: float, scores=None
) -> PromptedGraph:
    """Wire already-prepared prompt rows into the graph by both thresholds.

    One call wires one prompt graph. scores, when given, are the rows' cross
    scores P @ g.features.T, formed by the caller (see cross_mask).
    """
    P = np.asarray(prompt_features, dtype=np.float64)
    if P.ndim != 2 or (P.size and P.shape[1] != g.feature_dim):
        raise ValueError("prompt features must be (n_prompt, feature_dim)")
    inner = build_inner_edges(P, tau_inner)
    mask = cross_mask(P, g.features, tau_cross, scores)
    key = (g.n_nodes + P.shape[0], np.packbits(mask).tobytes(), inner.tobytes())
    return PromptedGraph(g, P, inner, mask, key)


class _Branch:
    """One filter's prompted operator plus the pieces backward needs.

    base = (g(L') [X W; 0])[rows] and gp = g(L')[rows, n:], so the original
    nodes' filtered pre-activations are base + gp (P_in W), P_in being
    prompted.prompt_features. rows are all original nodes, or in training
    the shot rows in ascending order (_loss_rows), every one a loss row; lap
    is what the filter ran on, L' itself or, in training, the RowWalk of the
    shot rows (PromptedGraph.laplacian).
    """

    __slots__ = ("prompted", "lap", "base", "gp", "norm_vjp", "param")

    def __init__(self, prompted, lap, base, gp, norm_vjp, param):
        self.prompted = prompted
        self.lap = lap
        self.base = base
        self.gp = gp
        self.norm_vjp = norm_vjp
        self.param = param


def _with_identity(x: np.ndarray, n_p: int) -> np.ndarray:
    """[x, 0; 0, I]: the filter input whose outputs give a base term and G_p."""
    n, w = x.shape
    m = np.zeros((n + n_p, w + n_p))
    m[:n, :w] = x
    m[n:, w:] = np.eye(n_p)
    return m


class _EdgeSetOperators:
    """The owner of every prompt build of one call (a tune(), predict() or
    gradient check closure), and of the operators its builds make.

    build() wires the prompt graphs, groups the filters by wiring and gives
    each wiring an entry: the prompted Laplacian (or, for a row set, its
    RowWalk) and, per filter and kind of pass, the base term and G_p of
    _Branch on those rows; none depends on the prompt values. Per row set it
    keeps one dict, the entries the last build on those rows used, so a
    training build whose wiring is unchanged builds no Laplacian and runs no
    filter pass, a validation build never drops the training entries, and a
    wiring the last build on its rows did not use is built anew. The filters
    a build reads off one entry and has no blocks of that kind for yet get
    them from one filter pass (_filter_blocks): a lone pass when one filter
    reads the entry, a shared pass when more do. A filter's output of a
    shared pass does not depend on which other filters join it
    (bank_filter_apply), so the blocks are a function of the build alone: a
    build gets the bits a fresh cache would give it, and predict() agrees
    with tune's validation on one state. Every Laplacian is built by
    PromptedGraph.laplacian from the graph's cached Laplacian, whose rows one
    CsrRows per build gathers: at order 3 and above a walk reaches rows
    through the prompts, so its row sets change with the wiring, and a
    cache kept for the call would keep one more for every new wiring. X and
    the frozen W_k never change within a call, so each input
    [X W_k, 0; 0, I] is formed once per call.
    """

    def __init__(self, g: Graph, model):
        self.g = g
        self.model = model
        self.stats = feature_stats(g.features)
        self._signals = {}
        self._last = {}  # row set -> {wiring key: entry} of the last build on it

    def build(self, state: PromptState, held=None, rows=None) -> list:
        """One _Branch per filter on rows (None: every original node), wired
        from the current prompts by the state's thresholds or, given the
        branches of an earlier build as held, on their edge sets."""
        g, size = self.g, self.model.bank.size
        prompts = state.prompts[: 1 if state.shared else size]
        inserted = [
            normalize_prompt(p.value, *self.stats) if p.value.shape[0] and state.normalize else (p.value, None)
            for p in prompts
        ]
        if held is None:
            # the stacked scores die with the comprehension, before any
            # operator is built
            wired = [
                insert_prompt(g, P_in, state.tau_inner, state.tau_cross, scores=s)
                for (P_in, _), s in zip(inserted, _cross_scores([P for P, _ in inserted], g.features))
            ]
        else:
            # edge structure held constant (gradient checking): only features
            # move; prompt graph i first serves branch i, so held[i] carries
            # its edge sets
            wired = [replace(held[i].prompted, prompt_features=P_in) for i, (P_in, _) in enumerate(inserted)]
        pick = [0 if state.shared else k for k in range(size)]  # filter k reads graph pick[k]
        # the filters that read one wiring share its operator and its filter pass
        readers = {}
        for k, i in enumerate(pick):
            readers.setdefault(wired[i].key, []).append(k)
        rows_key = None if rows is None else rows.tobytes()
        last, used = self._last.get(rows_key, {}), {}
        base = CsrRows(laplacian(g))  # gathers each base row set once per build
        branches = [None] * size
        for key, ks in readers.items():
            pg = wired[pick[ks[0]]]
            entry = last.get(key) or (pg.laplacian(base, rows, self.model.bank.order), {})
            lap, blocks = used[key] = entry
            shared = len(ks) > 1
            missing = [k for k in ks if (k, shared) not in blocks]
            if missing:
                outs = self._filter_blocks(lap, missing, shared, pg.n_total - g.n_nodes)
                blocks.update(((k, shared), out) for k, out in zip(missing, outs))
            for k in ks:
                i = pick[k]
                branches[k] = _Branch(wired[i], lap, *blocks[k, shared], inserted[i][1], prompts[i])
        self._last[rows_key] = used
        return branches

    def _signal(self, k, n_p: int):
        """[X W_k, 0; 0, I], formed once per call."""
        if (k, n_p) not in self._signals:
            self._signals[k, n_p] = _with_identity(self.g.features @ self.model.encoders[k].weight.value, n_p)
        return self._signals[k, n_p]

    def _filter_blocks(self, lap, ks, shared: bool, n_p: int):
        """[(base, gp)] of the filters ks on lap, from one pass.

        A lone pass (one filter k) filters [X W_k, 0; 0, I] (project ->
        filter). A shared pass runs one power series over [X, 0; 0, I] for
        all of ks, and each filter projects its output after it:
        (g(L')X) W_k = g(L')(X W_k). G_p reads the identity columns either
        way.
        """
        n, f, h = self.g.n_nodes, self.g.feature_dim, self.model.hidden_dim
        filters = [self.model.bank.filters[k] for k in ks]
        if shared:
            # a shared pass runs once per new wiring, so its wider input is
            # formed for it alone and the engine may write into it; a call
            # whose wirings part never holds it beside the W_k inputs. [:n]
            # drops the prompt rows of a full pass (a RowWalk has none)
            outs = bank_filter_apply(lap, filters, _with_identity(self.g.features, n_p), overwrite_x=True)
            weights = [self.model.encoders[k].weight.value for k in ks]
            return [(out[:n, :f] @ W, np.ascontiguousarray(out[:n, f:])) for out, W in zip(outs, weights)]
        m = self._signal(ks[0], n_p)
        if isinstance(lap, RowWalk):
            (out,) = bank_filter_apply(lap, filters, m)
        else:
            # a lone filter's full-row pass goes through the one-kernel call,
            # which the benchmark's tracer counts (bench/tracing.py)
            out = beta_filter_apply(lap, *filters[0], m)[:n]
        return [(np.ascontiguousarray(out[:, :h]), np.ascontiguousarray(out[:, h:]))]


def _cross_scores(blocks, X):
    """P @ X.T for each prompt block, read off one stacked product.

    The blocks of two or more rows are stacked, [P_1; ...; P_K] @ X.T is
    formed once, and each block gets its own rows of it, a view; those rows
    are bit-equal to the block's own P @ X.T. A one-row block gets None, so
    cross_mask forms its own product: numpy runs a single row as a
    matrix-vector product, whose bits may differ from the stacked rows.
    """
    out = [None] * len(blocks)
    multi = [i for i, P in enumerate(blocks) if P.shape[0] >= 2]
    if multi:
        stacked = np.concatenate([blocks[i] for i in multi]) @ X.T
        cuts = np.cumsum([blocks[i].shape[0] for i in multi])[:-1]
        for i, rows in zip(multi, np.split(stacked, cuts)):
            out[i] = rows
    return out


def _loss_rows(shots):
    """(ascending distinct shot rows, each shot's position among them).

    The one place the training rows' order is set: the row walk, the
    branches' blocks and the logits all come in this order."""
    shots = np.asarray(shots, dtype=np.int64).reshape(-1)
    rows = np.unique(shots)
    return rows, np.searchsorted(rows, shots)


def _step(g: Graph, frozen: FrozenModel, state: PromptState, ops, rows, at, held=None):
    """One training step on the shot rows; returns the loss.

    Zeroes the grads, wires the branches on rows from the current prompts
    (or on held's edge sets), runs the forward pass and backpropagates the
    cross-entropy of the shots at positions `at` among rows.
    """
    for p in state.tunable_params():
        p.zero_grad()
    branches = ops.build(state, held=held, rows=rows)
    _, logits, backward = _forward(g, frozen, state, branches, True)
    loss, dlogits = softmax_cross_entropy(logits, g.labels[rows], at)
    backward(dlogits)
    return loss


def tuning_loss_fn(g: Graph, frozen: FrozenModel, state: PromptState, shots):
    """Closure for gradient checking: a training step (_step) on the edge
    sets (and their filtered blocks) wired from the current prompts."""
    ops = _EdgeSetOperators(g, frozen.model)
    rows, at = _loss_rows(shots)
    held = ops.build(state, rows=rows)
    return lambda: _step(g, frozen, state, ops, rows, at, held)


# nothing in the package reads train: bench/tracing.py wraps _forward, passes
# it positionally and reads it to tell training steps from full-row passes
def _forward(g: Graph, frozen: FrozenModel, state: PromptState, branches, train: bool):
    """Integrated embeddings and logits on the branches' rows.

    Each encoder's pre-activation is g(L')([X; P] W) + b, which equals
    filter -> encoder because g(L') acts on rows and W on columns. The
    branch carries the filtered blocks on its rows, built once per edge set
    (see _EdgeSetOperators), so the pre-activations cost one N_p-wide
    product: base + gp (P_in W) + b. The prompt rows' outputs are never read
    and never formed.

    Returns (integrated, logits, backward) where backward(dlogits) sends
    gradients into the prompt features and the head. Training passes only
    the loss rows, so backward runs on every row it is given.
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
        z, act_vjp = enc.activate(s)
        integrated += weights[k][None, :] * z
        tapes.append((br, enc, act_vjp))
    logits, head_vjp = state.head.apply(integrated)

    def backward(dlogits):
        dintegrated = head_vjp(dlogits)
        for k, (br, enc, act_vjp) in enumerate(tapes):
            if br.gp.shape[1] == 0:
                continue  # no prompt rows, nothing tunable in this branch
            ds = act_vjp(weights[k][None, :] * dintegrated)
            # g(L') is symmetric, so the prompt rows receive G_p^T ds W^T
            dprompt = (br.gp.T @ ds) @ enc.weight.value.T
            br.param.grad += br.norm_vjp(dprompt) if br.norm_vjp is not None else dprompt

    return integrated, logits, backward


def _full_forward(g: Graph, frozen: FrozenModel, state: PromptState, ops=None):
    """(integrated, logits) on every original node, wired from the current
    prompts; ops defaults to a fresh operator cache."""
    if ops is None:
        ops = _EdgeSetOperators(g, frozen.model)
    integrated, logits, _ = _forward(g, frozen, state, ops.build(state), False)
    return integrated, logits


def prompted_encode(g: Graph, frozen: FrozenModel, state: PromptState) -> np.ndarray:
    """Frozen-backbone embeddings of the original nodes under the prompts."""
    return _full_forward(g, frozen, state)[0]


def _prompt_name(i: int, n_graphs: int) -> str:
    return "prompt.features" if n_graphs == 1 else f"prompt{i}.features"


def init_state(
    g: Graph, frozen: FrozenModel, cfg: TuneConfig, n_classes: int, stats=None
) -> PromptState:
    """Fresh prompts (rows drawn from the feature column statistics) + head.

    stats, when given, must be feature_stats(g.features)."""
    rng = np.random.default_rng(derive_seed(cfg.seed, 2))
    mu_o, sigma_o = feature_stats(g.features) if stats is None else stats
    tau_cross = cfg.tau_cross
    if tau_cross is None:
        tau_cross = default_tau_cross(edge_homophily(g))
    shared = cfg.shared_prompt or cfg.n_prompt == 0
    n_graphs = 1 if shared else frozen.model.bank.size
    # one draw replicated across per-filter graphs: at init the per-filter
    # family coincides with the shared configuration (same rows, same inserted
    # edges, identical rng state left for the head), and the branches then
    # specialise only through branch-specific gradients
    rows0 = rng.standard_normal((cfg.n_prompt, g.feature_dim)) * sigma_o + mu_o
    prompts = tuple(Param(rows0.copy(), _prompt_name(i, n_graphs)) for i in range(n_graphs))
    head = LinearLayer(
        frozen.model.hidden_dim, n_classes, rng, activation="identity", prefix="head"
    )
    return PromptState(prompts, head, shared, cfg.normalize, cfg.tau_inner, tau_cross)


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
    ops = _EdgeSetOperators(g, frozen.model)
    state = init_state(g, frozen, cfg, g.n_classes, ops.stats)
    params = state.tunable_params()
    opt = Adam(params, lr=cfg.lr)
    rows, at = _loss_rows(np.concatenate(split.shot_indices))
    history = []
    # below any F1, so the first validation sets best_values (the last epoch
    # always validates)
    best_f1 = -1.0
    for epoch in range(cfg.epochs):
        loss = _step(g, frozen, state, ops, rows, at)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite tuning loss at epoch {epoch}")
        opt.step()
        val_f1 = np.nan
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            pred = np.argmax(_full_forward(g, frozen, state, ops)[1], axis=1)
            val_f1 = macro_f1(pred, g.labels, g.n_classes, split.val_indices)
            if val_f1 > best_f1:
                best_f1 = val_f1
                best_values = [p.value.copy() for p in params]
        history.append((epoch, float(loss), float(val_f1)))
    frozen.verify()
    for p, v in zip(params, best_values):
        p.value[...] = v
    return state, history


def predict(g: Graph, frozen: FrozenModel, state: PromptState) -> np.ndarray:
    """Class probabilities (rows sum to one) for every node."""
    _, logits = _full_forward(g, frozen, state)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def state_bytes(state: PromptState) -> bytes:
    meta = [
        len(state.prompts),
        1 if state.shared else 0,
        1 if state.normalize else 0,
        state.head.weight.value.shape[0],
        state.head.weight.value.shape[1],
    ]
    floats = [state.tau_inner, state.tau_cross]
    arrays = [(p.name, p.value) for p in state.prompts]
    arrays.append((state.head.weight.name, state.head.weight.value))
    arrays.append((state.head.bias.name, state.head.bias.value))
    return pack_arrays(STATE_MAGIC, meta, arrays, floats)


def state_hash(state: PromptState) -> str:
    return hashlib.sha256(state_bytes(state)).hexdigest()


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
    prompts = tuple(Param(by_name[name], name) for name in names)
    rng = np.random.default_rng(0)
    head = LinearLayer(hidden, n_classes, rng, activation="identity", prefix="head")
    head.weight.value[...] = by_name["head.weight"]
    head.bias.value[...] = by_name["head.bias"]
    return PromptState(prompts, head, bool(shared), bool(normalize), *floats)
