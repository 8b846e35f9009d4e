"""Contrastive pre-training of one encoder per spectral filter.

Each filter view g_k(L) X is passed through its own linear+PReLU encoder.
The per-filter embeddings are integrated with a column-wise softmax over
learnable mixing weights, mean-pooled into a graph summary, and a bilinear
discriminator is trained to tell true node embeddings from embeddings of
row-permuted features. Loss is the mean binary cross-entropy over all
(filter, node) pairs.

`pretrain` runs on two threads. The negatives do not depend on the
parameters, so one worker thread forms the next epoch's row-permuted copy
and its filtered views (sparse products, which release the GIL) while the
calling thread runs the dense forward and backward. numpy's OpenBLAS is
pinned to 1 thread meanwhile, and its count is restored on exit: its idle
workers would otherwise spin on the core the filter worker needs. Pinning
also fixes the reduction order of x.T @ ds, so a checkpoint's bits do not
depend on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .graph import DatasetError, Graph, corrupt_features, laplacian
from .nn import (
    Adam,
    BilinearDiscriminator,
    LinearLayer,
    NumericError,
    Param,
    bce_pair_loss,
    pack_arrays,
    softmax_over_filters,
    softmax_over_filters_vjp,
    unpack_arrays,
)
# beta_filter_apply (one kernel through the bank engine) stays bound here for
# callers that look it up or wrap it through this module (bench/tracing.py does)
from .spectral import FilterBank, bank_filter_apply, beta_filter_apply  # noqa: F401

CHECKPOINT_MAGIC = b"HSGPNET1"


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class PretrainConfig:
    order: int = 2
    hidden_dim: int = 64
    lr: float = 1e-3
    epochs: int = 500
    patience: int = 50
    seed: int = 0
    filters: tuple | None = None  # bank override; None = all order+1 kernels

    def __post_init__(self):
        if self.epochs < 1 or self.hidden_dim < 1:
            raise ValueError(
                f"pre-training takes epochs >= 1 and hidden_dim >= 1, not {self.epochs} and {self.hidden_dim}"
            )

    def bank(self) -> FilterBank:
        if self.filters is not None:
            return FilterBank(tuple(tuple(f) for f in self.filters))
        return FilterBank.full(self.order)


class PretrainedModel:
    """Filter bank plus per-filter encoders, mixing weights, discriminator."""

    def __init__(self, bank: FilterBank, feature_dim: int, hidden_dim: int, seed: int = 0):
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.bank = bank
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.encoders = [
            LinearLayer(feature_dim, hidden_dim, rng, activation="prelu", prefix=f"enc{i}")
            for i in range(bank.size)
        ]
        # zero init makes the initial integration exactly uniform
        self.mix = Param(np.zeros((bank.size, hidden_dim)), "mix")
        self.discriminator = BilinearDiscriminator(hidden_dim, rng)

    def params(self):
        out = []
        for enc in self.encoders:
            out.extend(enc.params())
        out.append(self.mix)
        out.extend(self.discriminator.params())
        return out


@dataclass
class Encoded:
    per_filter: list  # (n, hidden) per bank entry
    integrated: np.ndarray  # (n, hidden)
    summary: np.ndarray  # (hidden,)


def filtered_views(L, bank: FilterBank, features: np.ndarray, overwrite_x=False) -> list:
    """The bank's filtered feature matrices, computed once and reused.

    overwrite_x lets the engine write into features (see bank_filter_apply).
    """
    return bank_filter_apply(L, bank.filters, features, overwrite_x=overwrite_x)


def encode(g: Graph, model: PretrainedModel, filtered=None) -> Encoded:
    """Forward pass on a graph (or on precomputed filtered views)."""
    if filtered is None:
        filtered = filtered_views(laplacian(g, "normalized"), model.bank, g.features)
    per_filter = [enc.apply(h)[0] for enc, h in zip(model.encoders, filtered)]
    weights = softmax_over_filters(model.mix.value)
    integrated = np.zeros_like(per_filter[0])
    for a_k, z_k in zip(weights, per_filter):
        integrated += a_k[None, :] * z_k
    return Encoded(per_filter=per_filter, integrated=integrated, summary=integrated.mean(axis=0))


def _forward_scores(model, filtered_pos, filtered_neg, after_first_branch=None):
    """Loss over both corruption branches; its backward accumulates the grads.

    Each n x hidden array lives only while it is read. The positive branch
    runs first for every filter, since the summary needs all of them; then
    each filter's negative branch runs forward and backward on its own and
    is dropped. The discriminator grad and dsummary accumulate in the order
    p0, n0, p1, n1, ...; each encoder gets its negative term before its
    positive one, which from zeroed grads is the same sum bit for bit.

    filtered_neg is a list this call empties: each negative view's slot is
    cleared when its branch starts, so the view is freed with the branch.
    after_first_branch() runs once the first negative branch is freed.
    """
    n = filtered_pos[0].shape[0]
    m_pairs = model.bank.size * n
    disc = model.discriminator

    pos_out = [enc.apply(hp) for enc, hp in zip(model.encoders, filtered_pos)]
    weights = softmax_over_filters(model.mix.value)
    integrated = np.zeros_like(pos_out[0][0])
    for a_k, (z_k, _) in zip(weights, pos_out):
        integrated += a_k[None, :] * z_k
    summary = integrated.mean(axis=0)
    del integrated

    pos_scores, neg_scores, pos_dz = [], [], []
    dsummary = np.zeros_like(summary)
    for i, (enc, (zp, _)) in enumerate(zip(model.encoders, pos_out)):
        sp_, vjp_p = disc.apply(zp, summary)
        hn, filtered_neg[i] = filtered_neg[i], None
        zn, enc_vjp = enc.apply(hn)
        del hn  # enc_vjp holds the view until the branch is dropped
        sn_, vjp_n = disc.apply(zn, summary)
        pos_scores.append(sp_)
        neg_scores.append(sn_)
        # d/dpre of -log sigmoid and -log(1 - sigmoid), averaged over pairs
        dpre = (sp_ - 1.0) / m_pairs
        ws, ds = vjp_p(dpre)
        pos_dz.append((dpre, ws))
        dsummary += ds
        dpre = sn_ / m_pairs
        ws, ds = vjp_n(dpre)
        dsummary += ds
        # the filtered views are constants: only the parameter grads are needed
        enc_vjp(np.outer(dpre, ws), project=False)
        # drop this branch before the next filter's is formed
        del zn, enc_vjp, vjp_p, vjp_n
        if i == 0 and after_first_branch is not None:
            after_first_branch()
    loss = bce_pair_loss(np.concatenate(pos_scores), np.concatenate(neg_scores))

    dintegrated = np.broadcast_to(dsummary / n, (n, summary.size))
    dweights = np.empty_like(weights)
    for i, (z_k, _) in enumerate(pos_out):
        dweights[i] = np.einsum("ij,ij->j", dintegrated, z_k)
    model.mix.grad += softmax_over_filters_vjp(weights, dweights)
    for i, (dpre, ws) in enumerate(pos_dz):
        enc_vjp = pos_out[i][1]
        pos_out[i] = None
        # dintegrated is row-constant: its weighted row, added to every row,
        # rounds each element as the n x hidden product did
        dz = np.outer(dpre, ws)
        dz += weights[i] * (dsummary / n)
        enc_vjp(dz, project=False)
    return loss


def contrastive_loss_fn(model: PretrainedModel, g: Graph, corrupted: np.ndarray):
    """Closure for gradient checking: one fixed corruption, grads populated."""
    L = laplacian(g, "normalized")
    pos = filtered_views(L, model.bank, g.features)
    neg = filtered_views(L, model.bank, corrupted)
    params = model.params()

    def loss_fn():
        for p in params:
            p.zero_grad()
        return _forward_scores(model, pos, list(neg))

    return loss_fn


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy links a BLAS that does not export them."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    set_.restype = None
    return get, set_


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS on 1 thread inside the block, its count restored after.

    The count is process-wide: pretrain calls that overlap in threads of one
    process would restore each other's counts.
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def pretrain(g: Graph, cfg: PretrainConfig):
    """Train a model on one graph; returns (model at best epoch, history).

    A fresh row permutation of the features is drawn every epoch. Early
    stopping tracks the best training loss with the configured patience.
    A worker thread forms each epoch's negative views while the epoch before
    it runs, and BLAS runs on 1 thread (module docstring); both end with the
    call, whether it returns or raises.
    """
    bank = cfg.bank()
    model = PretrainedModel(bank, g.feature_dim, cfg.hidden_dim, seed=cfg.seed)
    L = laplacian(g, "normalized")
    opt = Adam(model.params(), lr=cfg.lr)
    history = []
    best_loss = np.inf
    best_epoch = -1
    best_state = None

    def negative_views(epoch):
        corrupted = corrupt_features(g, seed=derive_seed(cfg.seed, 1, epoch))
        return filtered_views(L, bank, corrupted, overwrite_x=True)

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as worker:

        def prefetch():
            # called once this epoch's first negative branch is freed, so at
            # most one view set more than the serial loop's is alive
            nonlocal pending
            if epoch + 1 < cfg.epochs:
                pending = worker.submit(negative_views, epoch + 1)

        pending = worker.submit(negative_views, 0) if cfg.epochs > 0 else None
        pos = filtered_views(L, bank, g.features)  # constant across epochs
        for epoch in range(cfg.epochs):
            neg, pending = pending.result(), None
            for p in model.params():
                p.zero_grad()
            loss = _forward_scores(model, pos, neg, after_first_branch=prefetch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite pre-training loss at epoch {epoch}")
            history.append(float(loss))
            if loss < best_loss:
                best_loss = loss
                best_epoch = epoch
                best_state = [p.value.copy() for p in model.params()]
            opt.step()
            if epoch - best_epoch >= cfg.patience:
                break
    if best_state is not None:
        for p, v in zip(model.params(), best_state):
            p.value[...] = v
    return model, history


# ---------------------------------------------------------------------------
# persistence, hashing, freezing
# ---------------------------------------------------------------------------


def _named_values(model: PretrainedModel):
    return [(p.name, p.value) for p in model.params()]


def model_bytes(model: PretrainedModel) -> bytes:
    meta = [model.feature_dim, model.hidden_dim, model.bank.size]
    for k, r in model.bank.filters:
        meta.extend([k, r])
    return pack_arrays(CHECKPOINT_MAGIC, meta, _named_values(model))


def content_hash(model: PretrainedModel) -> str:
    return hashlib.sha256(model_bytes(model)).hexdigest()


def save_model(model: PretrainedModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_bytes(model))


def load_model(path) -> PretrainedModel:
    """Read a checkpoint; one that cannot be decoded raises DatasetError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return model_from_bytes(blob)
    except ValueError as e:
        raise DatasetError(f"unreadable checkpoint: {e}", path=path) from e


def _checkpoint_shapes(n_filters: int, feature_dim: int, hidden_dim: int) -> dict:
    """{parameter name: shape} of a PretrainedModel with these dims."""
    shapes = {}
    for i in range(n_filters):
        shapes[f"enc{i}.weight"] = (feature_dim, hidden_dim)
        shapes[f"enc{i}.bias"] = (hidden_dim,)
        shapes[f"enc{i}.alpha"] = ()
    shapes["mix"] = (n_filters, hidden_dim)
    shapes["discriminator.weight"] = (hidden_dim, hidden_dim)
    return shapes


def model_from_bytes(blob: bytes) -> PretrainedModel:
    """Decode a checkpoint; anything malformed raises ValueError.

    The header's dims are checked against the stored array shapes before
    the model is built, so what it allocates is bounded by the blob.
    """
    meta, _, arrays = unpack_arrays(blob, CHECKPOINT_MAGIC)
    if len(meta) < 3 or len(meta) != 3 + 2 * meta[2]:
        raise ValueError(f"checkpoint header holds {len(meta)} integers")
    feature_dim, hidden_dim, n_filters = meta[0], meta[1], meta[2]
    stored = {name: arr.shape for name, arr in arrays}
    expected = _checkpoint_shapes(n_filters, feature_dim, hidden_dim)
    if len(stored) != len(arrays) or stored != expected:
        raise ValueError(
            f"stored arrays do not match the header's {n_filters} filters, "
            f"feature_dim {feature_dim}, hidden_dim {hidden_dim}"
        )
    pairs = tuple((meta[3 + 2 * i], meta[4 + 2 * i]) for i in range(n_filters))
    model = PretrainedModel(FilterBank(pairs), feature_dim, hidden_dim, seed=0)
    by_name = dict(arrays)
    for p in model.params():
        p.value[...] = by_name[p.name]
    return model


@dataclass
class FrozenModel:
    """Backbone with locked parameter arrays and a recorded content hash."""

    model: PretrainedModel
    content_hash: str = field(default="")

    def __post_init__(self):
        for p in self.model.params():
            p.value.setflags(write=False)
        if not self.content_hash:
            self.content_hash = content_hash(self.model)

    def rehash(self) -> str:
        return content_hash(self.model)

    def verify(self):
        now = self.rehash()
        if now != self.content_hash:
            raise NumericError(
                f"frozen backbone changed: {self.content_hash[:12]} -> {now[:12]}"
            )


def freeze(model: PretrainedModel) -> FrozenModel:
    """Detached, immutable copy of the model plus its content hash."""
    clone = model_from_bytes(model_bytes(model))
    return FrozenModel(model=clone)
