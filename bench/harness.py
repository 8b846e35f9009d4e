"""Workloads, timed operations and output checks for the hsgppt benchmark.

Every operation goes through hsgppt's public API, looked up on its module at
call time so that a traced run (see tracing.py) sees it. An operation is a
pretrain, tune or predict call. One that raises, returns a non-finite loss,
lets the frozen backbone's hash drift, or fails an output check is counted
as failed; the run goes on.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

MODULES = ("csbm", "graph", "nn", "pretrain", "prompt", "evaluate")

# larger than any epoch count used here: only the final-epoch validation
# pass runs, and it runs in both calls of a pair, so it cancels
VALIDATION_OFF = 10**9

TUNE_EPOCH_BUDGET_MS = 250.0  # criterion 12; recorded, never gated on

# (metric, unit); the untraced run emits exactly these
END_TO_END = (
    ("setup_s", "s"),
    ("tune_epoch_ms", "ms"),
    ("tune_s", "s"),
    ("pretrain_epoch_ms", "ms"),
    ("pretrain_s", "s"),
    ("eval_seed_s", "s"),
    ("test_macro_f1", "F1"),
    ("peak_rss_mb", "MB"),
)


def load_hsgppt(root: Path):
    """Import hsgppt from <root>/src, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "hsgppt" / "__init__.py").is_file():
        raise FileNotFoundError(f"{src / 'hsgppt'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("hsgppt")
    if Path(pkg.__file__).resolve().parent != src / "hsgppt":
        raise ImportError(f"hsgppt imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"hsgppt.{m}") for m in MODULES})


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    h: float
    tune_epochs: tuple = (2, 10)  # (short call, the eval seed's call)
    pretrain_epochs: tuple = (1, 10)  # (short call, the eval seed's call)
    eval_seeds: int = 3  # rounds rotate over this many pretrain/split/tune seeds
    d_avg: float = 40.0
    f: int = 128
    mu: float = 10.0
    order: int = 2
    hidden: int = 64
    n_prompt: int = 10
    k_shots: int = 5
    setups: int = 5


# Why each exists is in BENCHMARK.json. The two graphs differ only in
# homophily, which sets tau_cross (0.40 below h=0.5, 0.55 above) and so
# whether the prompt wiring is total and fixed or sparse and changing.
WORKLOADS = {w.name: w for w in (Workload("tune-hetero", n=5000, h=0.2), Workload("tune-homo", n=5000, h=0.8))}


class OpFailed(Exception):
    """An operation failed; it has been counted and the round moves on."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    n = len(samples)
    tail = None
    for p in (99.9, 99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            tail = (p, float(np.percentile(samples, p)))
            break
    return {
        "median": statistics.median(samples) if n else None,
        "tail_pct": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
        "n": n,
    }


class Bench:
    """One workload at one seed: set-up, operations, checks and samples."""

    def __init__(self, hs, wl: Workload, seed: int, workdir: Path):
        self.hs = hs
        self.wl = wl
        self.seed = seed
        self.workdir = Path(workdir)
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.hashes = {}
        self.f1 = {}  # eval seed -> test macro F1

    # -- bookkeeping ----------------------------------------------------

    def _fail(self, label, why):
        self.failed += 1
        self.errors.append(f"{label}: {why}")

    def _call(self, label, fn, *args, **kwargs):
        """(seconds, result) of one operation, or OpFailed once it is counted."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self._fail(label, f"{type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc
        return time.perf_counter() - t0, out

    def _check(self, label, problem):
        if problem:
            self._fail(label, problem)
            raise OpFailed(label)

    def _repeatable(self, key, digest):
        """None if this output matches every earlier one under the same key."""
        first = self.hashes.setdefault(key, digest)
        return None if first == digest else f"output differs from an identical earlier call ({key})"

    # -- set-up -----------------------------------------------------------

    def setup_once(self):
        """generate -> save_graph -> load_graph -> k-shot split, as `gen-csbm` then `--data`."""
        hs, wl = self.hs, self.wl
        params = hs.csbm.CsbmParams(n=wl.n, f=wl.f, d_avg=wl.d_avg, h=wl.h, mu=wl.mu, seed=self.seed)
        path = tempfile.mkdtemp(prefix="dataset-", dir=self.workdir)
        try:
            t0 = time.perf_counter()
            g0 = hs.csbm.generate(params)
            hs.graph.save_graph(g0, path)
            g = hs.graph.load_graph(path)
            hs.graph.kshot_split(g, wl.k_shots, seed=self.seed)
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(path, ignore_errors=True)
        same = (
            np.array_equal(g.edges, g0.edges)
            and np.array_equal(g.features, g0.features)
            and np.array_equal(g.labels, g0.labels)
        )
        if not same:
            self.errors.append("setup: load_graph(save_graph(g)) differs from g")
        problem = self._repeatable("graph", _digest(g.edges, g.features, g.labels))
        if problem:
            self.errors.append(f"setup: {problem}")
        self.g = g
        return elapsed

    def setup(self):
        for _ in range(self.wl.setups):
            self.samples["setup_s"].append(self.setup_once())

    # -- operations -------------------------------------------------------

    def _pretrain(self, epochs, seed):
        hs, wl = self.hs, self.wl
        cfg = hs.pretrain.PretrainConfig(
            order=wl.order, hidden_dim=wl.hidden, epochs=epochs, patience=epochs, seed=seed
        )
        dt, (model, history) = self._call(f"pretrain({epochs})", hs.pretrain.pretrain, self.g, cfg)
        if len(history) != epochs or not np.all(np.isfinite(history)):
            problem = f"{len(history)} of {epochs} epochs run, or a non-finite loss"
        else:
            problem = self._repeatable(("pretrain", epochs, seed), self.hs.pretrain.content_hash(model))
        self._check(f"pretrain({epochs})", problem)
        return dt, model

    def _tune(self, frozen, split, epochs, seed, **overrides):
        hs, wl = self.hs, self.wl
        cfg = hs.prompt.TuneConfig(n_prompt=wl.n_prompt, epochs=epochs, seed=seed, **overrides)
        dt, (state, history) = self._call(f"tune({epochs})", hs.prompt.tune, self.g, frozen, split, cfg)
        losses = [row[1] for row in history]
        if len(history) != epochs or not np.all(np.isfinite(losses)):
            problem = f"{len(history)} of {epochs} epochs run, or a non-finite loss"
        elif frozen.rehash() != frozen.content_hash:
            problem = "frozen backbone hash changed"
        else:
            key = ("tune", epochs, seed, frozen.content_hash)
            problem = self._repeatable(key, hs.prompt.state_hash(state))
        self._check(f"tune({epochs})", problem)
        return dt, state

    def _predict(self, frozen, state, split):
        hs, g = self.hs, self.g
        dt, probs = self._call("predict", hs.prompt.predict, g, frozen, state)
        f1 = hs.evaluate.macro_f1(np.argmax(probs, axis=1), g.labels, g.n_classes, split.test_indices)
        if probs.shape != (g.n_nodes, g.n_classes) or not np.all(np.isfinite(probs)):
            problem = f"bad probabilities, shape {probs.shape}"
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
            problem = "probability rows do not sum to 1"
        elif not 0.0 <= f1 <= 1.0:
            problem = f"macro F1 {f1} outside [0, 1]"
        else:
            problem = self._repeatable(("predict", hs.prompt.state_hash(state)), _digest(probs, np.float64(f1)))
        self._check("predict", problem)
        return dt, f1

    def round(self, i=0):
        """One eval seed plus the short calls of both epoch pairs.

        The eval seed is pretrain + freeze + split + tune + predict, then an
        untimed F1 score. Its pretrain and tune calls are the long halves of the pairs: the
        tune call runs at most `eval_every` epochs, so like the short
        validation-off call it validates once, after its last epoch, and
        init, hashing and that pass cancel in the difference. Output checks
        run inside each operation's helper, outside every timed interval.
        """
        hs, wl, g = self.hs, self.wl, self.g
        seed = self.seed * 100 + i % wl.eval_seeds
        (p_short, p_long), (t_short, t_long) = wl.pretrain_epochs, wl.tune_epochs
        try:
            t_pre, model = self._pretrain(p_long, seed)
            t0 = time.perf_counter()
            frozen = hs.pretrain.freeze(model)
            split = hs.graph.kshot_split(g, wl.k_shots, seed=seed)
            glue = time.perf_counter() - t0
            t_tune, state = self._tune(frozen, split, t_long, seed)
            t_pred, f1 = self._predict(frozen, state, split)
        except OpFailed:
            return
        self.f1.setdefault(seed, f1)
        self.samples["eval_seed_s"].append(t_pre + glue + t_tune + t_pred)
        self.samples["pretrain_s"].append(t_pre)
        self.samples["tune_s"].append(t_tune)
        try:
            dt, _ = self._pretrain(p_short, seed)
            self.samples["pretrain_epoch_ms"].append(1000.0 * (t_pre - dt) / (p_long - p_short))
        except OpFailed:
            pass
        try:
            dt, _ = self._tune(frozen, split, t_short, seed, eval_every=VALIDATION_OFF)
            self.samples["tune_epoch_ms"].append(1000.0 * (t_tune - dt) / (t_long - t_short))
        except OpFailed:
            pass

    def warm_up(self):
        """One untimed pretrain and tune epoch: the first call of each in a
        process pays up to ~0.5 s of one-off start-up that later calls do not."""
        seed = self.seed * 100
        try:
            _, model = self._pretrain(1, seed)
            frozen = self.hs.pretrain.freeze(model)
            self._tune(frozen, self.hs.graph.kshot_split(self.g, self.wl.k_shots, seed=seed), 1, seed)
        except OpFailed:
            pass

    def measure(self, seconds):
        """Rounds until `seconds` pass, and at least one per eval seed."""
        self.warm_up()
        deadline = time.perf_counter() + seconds
        i = 0
        while i < self.wl.eval_seeds or time.perf_counter() < deadline:
            self.round(i)
            i += 1

    # -- results ----------------------------------------------------------

    @property
    def correct(self):
        return not self.errors

    def end_to_end(self):
        """{metric: (value, unit)} for every END_TO_END metric."""
        vals = {name: summarize(self.samples[name])["median"] for name, _ in END_TO_END[:6]}
        # deterministic: one value per eval seed, and every run has them all
        vals["test_macro_f1"] = statistics.mean(self.f1.values()) if self.f1 else None
        vals["peak_rss_mb"] = peak_rss_mb()
        return {name: (vals[name], unit) for name, unit in END_TO_END}

    def working_set(self):
        """Computed bytes of X and of the base Laplacian (CSR, int32 indices)."""
        g = self.g
        nnz = 2 * g.n_edges + g.n_nodes
        return {
            "n": g.n_nodes,
            "edges": g.n_edges,
            "X_bytes": g.features.nbytes,
            "L_bytes": nnz * (8 + 4) + (g.n_nodes + 1) * 4,
        }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _blas_threads():
    """Live OpenBLAS thread count, or None when it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes():
    """L1d/L2/L3 bytes from glibc's sysconf (cpuid; no files read)."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {}
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    return {name: libc.sysconf(code) for name, code in (("L1d", 188), ("L2", 191), ("L3", 194))}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cache_bytes": _cache_sizes(),
    }
