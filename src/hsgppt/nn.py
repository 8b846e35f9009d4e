"""Minimal dense float64 layers with hand-derived reverse-mode gradients.

The training stack needs exactly two computation graphs (contrastive
pre-training and prompt tuning), so each op exposes a forward that returns
the output together with a vector-Jacobian closure instead of a general
tape. Parameter gradients accumulate into Param.grad; Adam consumes and
zeroes them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when a training value becomes non-finite or a check fails."""


@dataclass
class Param:
    value: np.ndarray
    name: str
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def glorot(rng, fan_in, fan_out, shape=None):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def sigmoid(x):
    # tanh form is overflow-safe at both tails
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class LinearLayer:
    """X W + b followed by PReLU (single slope alpha) or identity."""

    def __init__(self, in_dim, out_dim, rng, activation="prelu", prefix="linear"):
        self.weight = Param(glorot(rng, in_dim, out_dim), f"{prefix}.weight")
        self.bias = Param(np.zeros(out_dim), f"{prefix}.bias")
        self.activation = activation
        if activation == "prelu":
            self.alpha = Param(np.asarray(0.25), f"{prefix}.alpha")
        elif activation == "identity":
            self.alpha = None
        else:
            raise ValueError(f"unknown activation: {activation!r}")

    def params(self):
        out = [self.weight, self.bias]
        if self.alpha is not None:
            out.append(self.alpha)
        return out

    def apply(self, x):
        """Forward pass returning (output, vjp). vjp(dout) -> dx, and it
        accumulates the parameter grads.

        Each call owns its cache, so the layer can be applied to several
        inputs before any backward runs.
        """
        x = np.asarray(x, dtype=np.float64)
        s = x @ self.weight.value
        s += self.bias.value
        out, act_vjp = self.activate(s)

        def vjp(dout, project=True):
            """project=False returns the pre-activation gradient ds instead
            of ds @ W^T (the caller can fold W^T in later, which is cheaper
            when only a few rows of dx are needed)."""
            dout = np.asarray(dout, dtype=np.float64)
            if self.alpha is None:
                ds = act_vjp(dout)
            else:
                neg = s < 0
                ds = act_vjp(dout, neg)
                # the products dout[neg] * s[neg] in row-major order, as a
                # boolean compaction lists them (so the sum is the same bit
                # for bit), from two gathers rather than a full dout * s
                at = np.flatnonzero(neg)
                self.alpha.grad += np.sum(dout.ravel().take(at) * s.ravel().take(at))
            self.weight.grad += x.T @ ds
            self.bias.grad += ds.sum(axis=0)
            return ds @ self.weight.value.T if project else ds

        return out, vjp

    def activate(self, s):
        """The activation alone on pre-activations s: (out, vjp), vjp(dout) -> ds.

        vjp takes the mask s < 0 as an optional second argument when the
        caller already has it. Leaves every parameter grad untouched (frozen
        use, or apply's own vjp, which adds the slope gradient itself).
        """
        if self.alpha is None:
            return s, lambda dout, neg=None: dout
        a = float(self.alpha.value)
        # equals where(s < 0, a s, s) bit for bit (up to the sign of a zero)
        # and runs at memory speed, where a masked select does not
        out = np.maximum(s, 0.0)
        out += a * np.minimum(s, 0.0)
        slope = np.array([1.0, a])

        def vjp(dout, neg=None):
            # where(s < 0, a dout, dout) bit for bit, gathered from the slope
            # table [1, a]. take runs ~2x faster than the fancy index slope[...]
            # once glibc's mmap threshold is past its intp index temporary (a
            # freed larger array raises it), and ~5x faster than the select
            if neg is None:
                neg = s < 0
            return dout * slope.take(neg.view(np.uint8))

        return out, vjp


def softmax_over_filters(w: np.ndarray) -> np.ndarray:
    """Column-wise softmax across the filter axis (axis 0)."""
    w = np.asarray(w, dtype=np.float64)
    shifted = w - w.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def softmax_over_filters_vjp(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Backward for softmax_over_filters given its output a."""
    inner = np.sum(a * da, axis=0, keepdims=True)
    return a * (da - inner)


class BilinearDiscriminator:
    """Agreement score sigma(z^T W s) between embeddings and a summary."""

    def __init__(self, dim, rng, prefix="discriminator"):
        self.weight = Param(glorot(rng, dim, dim), f"{prefix}.weight")

    def params(self):
        return [self.weight]

    def apply(self, z, s):
        """Scores for each row of z against the shared summary s.

        Returns (scores, vjp); vjp(dpre) takes gradients w.r.t. the
        PRE-sigmoid values, accumulates the weight's grad and returns
        (ws, ds), where ws = W s. The gradient w.r.t. z is the rank-one
        np.outer(dpre, ws), left to the caller to form where it consumes it.
        Working pre-sigmoid keeps the saturated tails exact (d/dpre of
        -log sigmoid(pre) = score - 1).
        """
        z = np.asarray(z, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64).ravel()
        ws = self.weight.value @ s
        pre = z @ ws
        scores = sigmoid(pre)

        def vjp(dpre):
            dpre = np.asarray(dpre, dtype=np.float64)
            zbar = z.T @ dpre
            self.weight.grad += np.outer(zbar, s)
            return ws, self.weight.value.T @ zbar

        return scores, vjp


_CLAMP = 1e-12


def bce_pair_loss(pos_scores, neg_scores) -> float:
    """Mean binary cross-entropy over paired positive/negative scores.

    -(1/M) sum_m [ log pos_m + log(1 - neg_m) ] with M pairs. Scores are
    clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    pos = np.clip(np.asarray(pos_scores, dtype=np.float64).ravel(), _CLAMP, 1.0 - _CLAMP)
    neg = np.clip(np.asarray(neg_scores, dtype=np.float64).ravel(), _CLAMP, 1.0 - _CLAMP)
    if pos.size != neg.size:
        raise ValueError("positive and negative score counts differ")
    if pos.size == 0:
        raise ValueError("no score pairs")
    return float(-(np.log(pos).sum() + np.log1p(-neg).sum()) / pos.size)


def softmax_cross_entropy(logits, labels, mask_indices):
    """Mean cross-entropy over the masked rows; returns (loss, dlogits).

    dlogits is zero outside the mask.
    """
    logits = np.asarray(logits, dtype=np.float64)
    idx = np.asarray(mask_indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("empty mask")
    sub = logits[idx]
    y = np.asarray(labels, dtype=np.int64).ravel()[idx]
    shifted = sub - sub.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-logp[np.arange(idx.size), y].mean())
    soft = np.exp(logp)
    soft[np.arange(idx.size), y] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[idx] = soft / idx.size
    return loss, dlogits


class Adam:
    """Adam with bias correction; grads are zeroed after each step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list
    max_rel_error: float

    def passed(self, tol=1e-4) -> bool:
        return self.max_rel_error < tol


def finite_diff_check(loss_fn, params, step=1e-5, max_coords=50, seed=0) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    loss_fn() must zero grads, run forward and backward, and return the
    scalar loss, leaving gradients in the given params. At most max_coords
    coordinates per parameter are probed (sampled with the given seed).
    Relative errors guard tiny denominators with an absolute floor of 1e-8.
    """
    rng = np.random.default_rng(seed)
    loss_fn()
    analytic = [p.grad.copy() for p in params]
    entries = []
    for p, g in zip(params, analytic):
        flat = p.value.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else np.sort(
            rng.choice(n, size=max_coords, replace=False)
        )
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + step
            up = loss_fn()
            flat[c] = keep - step
            down = loss_fn()
            flat[c] = keep
            fd = (up - down) / (2.0 * step)
            an = g.reshape(-1)[c]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
        entries.append(GradCheckEntry(name=p.name, max_rel_error=worst, checked=len(coords)))
    loss_fn()  # leave grads consistent with the unperturbed point
    return GradCheckReport(entries=entries, max_rel_error=max(e.max_rel_error for e in entries))


# ---------------------------------------------------------------------------
# binary serialization of named float64 arrays
# ---------------------------------------------------------------------------


def pack_arrays(magic: bytes, meta_ints, named_arrays, meta_floats=()) -> bytes:
    """Container: magic, u32 version, u32 meta ints, f64 meta floats, arrays.

    Each array record is (u16 name length, utf-8 name, u8 ndim, u64 dims,
    little-endian float64 data). Byte-stable for identical inputs.
    """
    if len(magic) != 8:
        raise ValueError("magic must be 8 bytes")
    out = bytearray()
    out += magic
    out += struct.pack("<I", 1)
    out += struct.pack("<I", len(meta_ints))
    for x in meta_ints:
        out += struct.pack("<q", int(x))
    out += struct.pack("<I", len(meta_floats))
    for x in meta_floats:
        out += struct.pack("<d", float(x))
    out += struct.pack("<I", len(named_arrays))
    for name, arr in named_arrays:
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        out += struct.pack("<H", len(raw))
        out += raw
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += arr.astype("<f8").tobytes()
    return bytes(out)


def unpack_arrays(blob: bytes, magic: bytes):
    """Inverse of pack_arrays: (meta_ints, meta_floats, [(name, array)]).

    Raises ValueError on a wrong magic or version, on a blob cut short
    anywhere, and on bytes left over after the last array.
    """
    if blob[:8] != magic:
        raise ValueError(f"bad magic: {blob[:8]!r}")
    off = 8

    def take(n_bytes):
        nonlocal off
        if n_bytes > len(blob) - off:
            raise ValueError(
                f"truncated: {n_bytes} bytes needed at offset {off}, {len(blob) - off} left"
            )
        off += n_bytes
        return off - n_bytes

    def read(fmt):
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt)))

    (version,) = read("<I")
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    (n_ints,) = read("<I")
    meta_ints = list(read(f"<{n_ints}q"))
    (n_floats,) = read("<I")
    meta_floats = list(read(f"<{n_floats}d"))
    (n_arrays,) = read("<I")
    arrays = []
    for _ in range(n_arrays):
        (name_len,) = read("<H")
        start = take(name_len)
        name = blob[start:off].decode("utf-8")
        (ndim,) = read("<B")
        shape = read(f"<{ndim}Q")
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count))
        arrays.append((name, arr.reshape(shape).astype(np.float64)))
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes after the last array")
    return meta_ints, meta_floats, arrays
