"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Option precedence is defaults < JSON config file < explicit flags. A command
only computes and returns its files; they are written to --out once it has
succeeded, with its resolved configuration and a manifest of the files, so
a command that fails writes nothing. Wall-clock numbers go to a separate
timings file so the deterministic outputs are byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import typing
from functools import partial
from pathlib import Path

import numpy as np

from . import csbm, evaluate, prompt, spectral
from .csbm import CsbmParams
from .evaluate import PipelineConfig
from .graph import (
    DatasetError,
    Graph,
    corrupt_features,
    edge_homophily,
    kshot_split,
    laplacian,
    load_graph,
    save_graph,
    transform_features,
    with_features,
)
from .nn import NumericError, finite_diff_check
from .pretrain import (
    PretrainConfig,
    PretrainedModel,
    contrastive_loss_fn,
    freeze,
    load_model,
    model_bytes,
    pretrain,
)
from .prompt import TuneConfig, tuning_loss_fn, variant_configs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# ---------------------------------------------------------------------------
# config keys: every option is one (--pretrain-lr sets pretrain_lr). A key that
# sets a field of a config dataclass takes that field's type and default, and
# a config file value must have its key's type (JSON true/false for a switch).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Key:
    """One config key; its flag is --name with dashes for underscores."""

    name: str
    type: type = str
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    field: tuple | None = None  # (config dataclass, field name) the key sets


def _field(name, cls, field=None, choices=None, help=None) -> _Key:
    """A key that sets cls.<field> (default: the key's name), typed and
    defaulted by that field."""
    field = field or name
    default = next(f.default for f in dataclasses.fields(cls) if f.name == field)
    hint = typing.get_type_hints(cls)[field]
    types = [t for t in typing.get_args(hint) if t is not type(None)] or [hint]
    return _Key(name, types[0], default, choices, help, (cls, field))


def _pretrain_keys(prefix=""):
    return (
        _field("order", PretrainConfig), _field("hidden", PretrainConfig, "hidden_dim"),
        _field(prefix + "lr", PretrainConfig, "lr"),
        _field(prefix + "epochs", PretrainConfig, "epochs"), _field("patience", PretrainConfig),
    )


def _tune_keys(prefix=""):
    return (
        _field("n_prompt", TuneConfig), _field("tau_inner", TuneConfig),
        _field("tau_cross", TuneConfig, help="none: picked by the graph's edge homophily"),
        _field(prefix + "lr", TuneConfig, "lr"), _field(prefix + "epochs", TuneConfig, "epochs"),
        _field("eval_every", TuneConfig),
    )


_DATA, _OUT = _Key("data"), _Key("out")
_SHOTS = _field("k", PipelineConfig, "k_shots", help="shots per class")
_SEEDS = _Key("seeds", default="0,1,2,3,4", help="comma-separated list")
_FEATURE_TRANSFORM = _Key("feature_transform", default="none",
                          choices=("none", "row-normalize", "binarize"))
_CSBM_SIZE = (
    _field("n", CsbmParams), _field("f", CsbmParams, help="feature dimension"),
    _field("d", CsbmParams, "d_avg", help="expected average degree"),
)
_TUNING_VARIANTS = tuple(v for v, (low_pass, _) in prompt.ABLATION_VARIANTS.items() if not low_pass)

# command -> (help, config keys in flag order); eval and ablate share one
# pre-training and one tuning group
_TABLE = {
    "gen-csbm": ("generate a synthetic two-class dataset", (
        *_CSBM_SIZE, _field("h", CsbmParams, help="edge homophily in [0, 1]"),
        _field("mu", CsbmParams), _field("seed", CsbmParams), _OUT,
    )),
    "analyze": ("spectral and homophily diagnostics", (
        _DATA, _OUT, _Key("kind", default="normalized", choices=("normalized", "unnormalized")),
        _field("order", PretrainConfig), _FEATURE_TRANSFORM,
        _Key("eigen_limit", int, spectral.DENSE_EIGEN_LIMIT,
             help="largest graph the dense eigensolver takes"),
    )),
    "pretrain": ("pre-train the spectral backbone", (
        _DATA, _OUT, *_pretrain_keys(), _field("seed", PretrainConfig),
        _Key("low_pass_only", bool, False, help="the low_pass_only variant's bank"),
        _FEATURE_TRANSFORM,
    )),
    "tune": ("prompt-tune a frozen checkpoint", (
        _DATA, _Key("ckpt"), _OUT, _SHOTS, _field("seed", TuneConfig), *_tune_keys(),
        _Key("variant", default="full", choices=_TUNING_VARIANTS,
             help="variants that act at tuning time; the checkpoint fixes the bank, "
                  "so for low_pass_only use pretrain --low-pass-only"),
        _FEATURE_TRANSFORM,
    )),
    "eval": ("full pipeline over several seeds", (
        _Key("mode", default="transductive", choices=("transductive", "inductive")),
        _DATA, _Key("source"), _Key("target"), _OUT, _SEEDS, _SHOTS,
        *_pretrain_keys("pretrain_"), *_tune_keys("tune_"),
        _field("svd_dim", PipelineConfig, help="inductive mode only"),
        _Key("workers", int, 0, help="processes for the seeds; 0 or 1 = one"),
        _field("f1_average", PipelineConfig, choices=("macro", "weighted")),
        _FEATURE_TRANSFORM, _Key("variant", default="full", choices=tuple(prompt.ABLATION_VARIANTS)),
    )),
    "sweep": ("reference-filter sweep over homophily levels", (
        _OUT, _Key("h_values", default="0.0,0.2,0.4,0.6,0.8,1.0", help="comma-separated list"),
        _Key("seeds", default="0,1,2", help="comma-separated list"),
        *_CSBM_SIZE, _field("mu", CsbmParams),
    )),
    "ablate": ("run the full model and its ablations", (
        _DATA, _OUT, _SEEDS, _SHOTS, *_pretrain_keys("pretrain_"), *_tune_keys("tune_"),
        _FEATURE_TRANSFORM,
    )),
    "gradcheck": ("finite-difference check of both training graphs", (
        _Key("tol", float, 1e-4), _field("seed", PretrainConfig),
    )),
}

_DEFAULTS = {
    command: {key.name: key.default for key in keys} for command, (_, keys) in _TABLE.items()
}


def _flag(key: _Key) -> str:
    return "--" + key.name.replace("_", "-")


def _build_parser() -> _Parser:
    top = _Parser(prog="hsgppt", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command")
    for command, (text, keys) in _TABLE.items():
        p = sub.add_parser(command, help=text)
        for key in keys:
            if key.type is bool:
                kind = {"action": "store_true"}
            else:
                metavar = "{" + ",".join(key.choices) + "}" if key.choices else None
                kind = {"type": key.type, "metavar": metavar}
            p.add_argument(_flag(key), dest=key.name, default=argparse.SUPPRESS,
                           help=key.help, **kind)
        p.add_argument("--config", default=None, help="JSON object of config keys")
    return top


# JSON types a config file may give for each flag type
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _from_json(key: _Key, value):
    """A config file value, checked against and converted to its key's type."""
    if value is None and key.default is None:
        return None
    if type(value) not in _JSON_TYPES[key.type]:
        null = " or null" if key.default is None else ""
        raise CliUsageError(
            f"config key {key.name} takes a {key.type.__name__}{null}, not {json.dumps(value)}"
        )
    return key.type(value)


def _merge_config(command: str, ns: argparse.Namespace) -> dict:
    keys = {key.name: key for key in _TABLE[command][1]}
    cfg = dict(_DEFAULTS[command])
    config_path = getattr(ns, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise DatasetError("config file not found", path=path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise CliUsageError(f"invalid config JSON in {path}: {e}")
        if not isinstance(data, dict):
            raise CliUsageError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(cfg))
        if unknown:
            raise CliUsageError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update((name, _from_json(keys[name], value)) for name, value in data.items())
    cfg.update((k, v) for k, v in vars(ns).items() if k not in ("command", "config"))
    for name, value in cfg.items():
        key = keys[name]
        if key.choices and value not in key.choices:
            hint = f" ({key.help})" if key.help else ""
            raise CliUsageError(
                f"{_flag(key)} takes one of {', '.join(key.choices)}, not {value!r}{hint}"
            )
    return cfg


def _config(cls, command: str, cfg: dict, **extra):
    """cls built from the command's keys that set its fields."""
    fields = {key.field[1]: cfg[key.name] for key in _TABLE[command][1]
              if key.field and key.field[0] is cls}
    return cls(**fields, **extra)


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise CliUsageError(f"--{key.replace('_', '-')} is required")


def _nonempty_list(cfg, key, conv):
    """The comma-separated list under key; an empty list, a repeated entry
    and a negative seed are usage errors."""
    text = cfg[key]
    try:
        values = [conv(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise CliUsageError(f"cannot parse list: {text!r}")
    if not values:
        raise CliUsageError(f"at least one {key[:-1].replace('_', ' ')} is required")
    flag = "--" + key.replace("_", "-")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise CliUsageError(f"{flag} lists {value} more than once")
    if key == "seeds" and min(values) < 0:
        raise CliUsageError(f"{flag} takes seeds of 0 or more, not {min(values)}")
    return values


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _tsv(header, rows) -> str:
    def fmt(x):
        return f"{x:.17g}" if isinstance(x, float) else str(x)

    return "".join("\t".join(fmt(x) for x in row) + "\n" for row in (header, *rows))


def _write_outputs(command: str, cfg: dict, files) -> None:
    """Make --out, write a command's files into it, then its resolved config
    and a manifest of exactly the names written.

    files maps each name to its text or bytes, or writes into the directory
    it is given and returns the names it wrote.
    """
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if callable(files):
        names = files(out)
    else:
        for name, body in files.items():
            if isinstance(body, bytes):
                (out / name).write_bytes(body)
            else:
                (out / name).write_text(body)
        names = list(files)
    resolved = dict(cfg, command=command)
    (out / "config.json").write_text(_json(resolved))
    fingerprint = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    manifest = {"command": command, "config_fingerprint": fingerprint,
                "files": sorted([*names, "config.json"])}
    (out / "manifest.json").write_text(_json(manifest))


def _load_data(cfg, key="data") -> Graph:
    g = load_graph(cfg[key])
    mode = cfg["feature_transform"]
    if mode != "none":
        g = with_features(g, transform_features(g.features, mode))
    return g


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_csbm(cfg):
    _require(cfg, "out")
    g = csbm.generate(_config(CsbmParams, "gen-csbm", cfg))
    return partial(save_graph, g), (
        f"wrote {g.name}: {g.n_nodes} nodes, {g.n_edges} edges -> {Path(cfg['out'])}"
    )


def _cmd_analyze(cfg):
    _require(cfg, "data", "out")
    g = _load_data(cfg)
    bank = spectral.FilterBank.full(cfg["order"])

    profile = spectral.high_freq_profile(g, cfg["kind"])
    files = {"s_high.tsv": _tsv(["dim", "s_high"], enumerate(profile))}

    report = {
        "dataset": g.name,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "feature_dim": g.feature_dim,
        "laplacian_kind": cfg["kind"],
        # undefined, as homophily can be, without edges (an isolated node's
        # normalized row is the identity row, so every column would read 1.0,
        # and 0.0 unnormalized) or without a column of nonzero norm (NaN)
        "mean_s_high": (
            float(np.nanmean(profile)) if g.n_edges and not np.isnan(profile).all() else None
        ),
        "homophily": edge_homophily(g),
        "energy_identity": None,
    }
    if g.labels is not None:
        errors = []
        s_vals = []
        for j in range(g.feature_dim):
            x = g.features[:, j]
            try:
                ident = spectral.energy_identity_check(g, x)
            except ValueError:
                continue
            errors.append(ident.abs_error)
            s_vals.append(ident.s_high)
        if errors:
            report["energy_identity"] = {
                "columns_checked": len(errors),
                "max_abs_error": float(np.max(errors)),
                "mean_s_high_unnormalized": float(np.mean(s_vals)),
            }

    if g.n_nodes <= cfg["eigen_limit"]:
        decomp = spectral.eigendecompose(laplacian(g, "normalized"), limit=cfg["eigen_limit"])
        energies = []
        for j in range(g.feature_dim):
            x = g.features[:, j]
            if float(x @ x) == 0.0:
                continue
            energies.append(spectral.spectral_energy(decomp, x))
        if energies:
            mean_energy = np.mean(np.stack(energies), axis=0)
            files["spectral_energy.tsv"] = _tsv(
                ["lambda", "mean_energy"], zip(decomp.eigenvalues, mean_energy)
            )
    else:
        report["spectral_energy"] = "skipped: graph exceeds dense eigensolver limit"

    lam, curves = spectral.response_grid(list(bank.filters) + list(spectral.REFERENCE_FILTERS))
    header = ["lambda"] + list(curves)
    rows = [[lam[i]] + [curves[name][i] for name in curves] for i in range(lam.size)]
    files["filter_curves.tsv"] = _tsv(header, rows)
    files["analysis.json"] = _json(report)
    lines = [f"{key}: {report[key]}" for key in ("homophily", "mean_s_high")]
    if report["energy_identity"]:
        error = report["energy_identity"]["max_abs_error"]
        lines.append(f"energy identity max abs error: {error:.3e}")
    return files, "\n".join(lines)


def _cmd_pretrain(cfg):
    _require(cfg, "data", "out")
    g = _load_data(cfg)
    variant = "low_pass_only" if cfg["low_pass_only"] else "full"
    pre, _ = variant_configs(variant, _config(PretrainConfig, "pretrain", cfg), TuneConfig())
    model, history = pretrain(g, pre)
    files = {
        "model.ckpt": model_bytes(model),
        "loss_history.tsv": _tsv(["epoch", "loss"], enumerate(history)),
    }
    return files, (f"pre-trained {model.bank.size} filter encoder(s) on {g.name}: "
                   f"final loss {history[-1]:.4f} ({len(history)} epochs)")


def _cmd_tune(cfg):
    _require(cfg, "data", "ckpt", "out")
    g = _load_data(cfg)
    ckpt = Path(cfg["ckpt"])
    if not ckpt.is_file():
        raise DatasetError("checkpoint not found", path=ckpt)
    frozen = freeze(load_model(ckpt))
    if frozen.model.feature_dim != g.feature_dim:
        raise DatasetError(
            f"checkpoint takes {frozen.model.feature_dim} features, "
            f"the dataset has {g.feature_dim}", path=ckpt,
        )
    _, tune_cfg = variant_configs(cfg["variant"], PretrainConfig(), _config(TuneConfig, "tune", cfg))
    split = kshot_split(g, cfg["k"], seed=cfg["seed"])
    state, history = prompt.tune(g, frozen, split, tune_cfg)
    files = {
        "state.bin": prompt.state_bytes(state),
        "tune_history.tsv": _tsv(["epoch", "loss", "val_f1"], history),
    }
    best = max((row[2] for row in history if np.isfinite(row[2])), default=float("nan"))
    return files, f"tuned on {g.name}: best val F1 {best:.4f}, backbone hash verified"


def _pipeline_config(command: str, cfg: dict, variant: str = "full") -> PipelineConfig:
    pre, tune_cfg = variant_configs(
        variant, _config(PretrainConfig, command, cfg), _config(TuneConfig, command, cfg)
    )
    return _config(PipelineConfig, command, cfg, pretrain=pre, tune=tune_cfg)


def _cmd_eval(cfg):
    _require(cfg, "out")
    seeds = _nonempty_list(cfg, "seeds", int)
    pipeline = _pipeline_config("eval", cfg, cfg["variant"])
    workers = cfg["workers"]  # the pipeline runs 0 or 1 as one process
    if workers < 0:
        raise CliUsageError(f"--workers must be 0 or more, not {workers}")
    t0 = time.perf_counter()
    if cfg["mode"] == "transductive":
        _require(cfg, "data")
        g = _load_data(cfg)
        report = evaluate.run_transductive(g, pipeline, seeds, workers=workers)
    else:
        _require(cfg, "source", "target")
        source = _load_data(cfg, "source")
        target = _load_data(cfg, "target")
        report = evaluate.run_inductive(source, target, pipeline, seeds, workers=workers)
    report.wall_clock["total"] = time.perf_counter() - t0
    # timing telemetry goes to stderr so stdout stays bit-reproducible
    for phase, secs in report.wall_clock.items():
        print(f"time {phase:<14} {secs:.2f}s", file=sys.stderr)
    timings = {k: round(v, 3) for k, v in report.wall_clock.items()}
    files = {
        "report.json": _json(report.to_json_dict()),
        "report.txt": report.to_text(),
        "timings.json": json.dumps(timings, sort_keys=True) + "\n",
    }
    return files, report.to_text()


def _cmd_sweep(cfg):
    _require(cfg, "out")
    h_values = _nonempty_list(cfg, "h_values", float)
    seeds = _nonempty_list(cfg, "seeds", int)
    cells = evaluate.filter_sweep_study(h_values, seeds, _config(CsbmParams, "sweep", cfg))
    table = sorted(evaluate.sweep_table(cells).items())
    files = {
        "sweep.tsv": _tsv(["h", "seed", "filter", "test_f1"],
                          [(c.h, c.seed, c.filter, c.test_f1) for c in cells]),
        "sweep_mean.tsv": _tsv(["h", "filter", "mean_test_f1"], [(h, f, v) for (h, f), v in table]),
    }
    return files, "\n".join(f"h={h:.1f} {f:<5} {v:.4f}" for (h, f), v in table)


def _cmd_ablate(cfg):
    _require(cfg, "data", "out")
    seeds = _nonempty_list(cfg, "seeds", int)
    g = _load_data(cfg)
    reports = evaluate.run_ablation_study(g, _pipeline_config("ablate", cfg), seeds)
    tsv_rows = [(variant, r.mean_f1, r.std_f1 if r.std_f1 is not None else float("nan"),
                 *(s.f1 for s in r.per_seed)) for variant, r in reports.items()]
    seed_cols = [f"seed{s}" for s in seeds]
    files = {"ablation.tsv": _tsv(["variant", "mean_f1", "std_f1", *seed_cols], tsv_rows)}
    lines = []
    for variant, r in reports.items():
        std = f" +/- {r.std_f1:.4f}" if r.std_f1 is not None else ""
        lines.append(f"{variant:<16} {r.mean_f1:.4f}{std}")
    return files, "\n".join(lines)


def _cmd_gradcheck(cfg):
    tol = cfg["tol"]
    if not (np.isfinite(tol) and tol > 0):
        raise CliUsageError(f"--tol must be positive and finite, not {tol}")
    reports = gradient_check_reports(cfg["seed"])
    worst = 0.0
    for name, rep in reports:
        status = "ok" if rep.passed(tol) else "FAIL"
        print(f"{name}: max rel error {rep.max_rel_error:.3e} [{status}]")
        for entry in rep.entries:
            print(f"  {entry.name:<24} {entry.max_rel_error:.3e} ({entry.checked} coords)")
        worst = max(worst, rep.max_rel_error)
    if worst >= tol:
        raise NumericError(f"gradient check failed: {worst:.3e} >= {tol:.1e}")
    return None, None


def gradient_check_reports(seed: int = 0):
    """Finite-difference reports for both training graphs (small instances)."""
    g1 = csbm.generate(csbm.CsbmParams(n=12, f=4, d_avg=4, h=0.3, mu=4.0, seed=seed))
    model = PretrainedModel(spectral.FilterBank.full(2), g1.feature_dim, 8, seed=seed)
    loss_fn = contrastive_loss_fn(model, g1, corrupt_features(g1, seed=seed + 1))
    rep1 = finite_diff_check(loss_fn, model.params(), seed=seed)

    g2 = csbm.generate(csbm.CsbmParams(n=16, f=4, d_avg=5, h=0.3, mu=4.0, seed=seed + 2))
    frozen = freeze(PretrainedModel(spectral.FilterBank.full(2), g2.feature_dim, 8, seed=seed))
    split = kshot_split(g2, 2, seed=seed)
    state = prompt.init_state(g2, frozen, TuneConfig(n_prompt=3, seed=seed), n_classes=2)
    shots = np.concatenate(split.shot_indices)
    loss_fn2 = tuning_loss_fn(g2, frozen, state, shots)
    rep2 = finite_diff_check(loss_fn2, state.tunable_params(), seed=seed)
    return [("contrastive pre-training graph", rep1), ("prompt tuning graph", rep2)]


_COMMANDS = {
    "gen-csbm": _cmd_gen_csbm,
    "analyze": _cmd_analyze,
    "pretrain": _cmd_pretrain,
    "tune": _cmd_tune,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            parser.print_help()
            return EXIT_USAGE
        cfg = _merge_config(ns.command, ns)
        # a command only computes; its files are written once it has succeeded
        files, message = _COMMANDS[ns.command](cfg)
        if files is not None:
            _write_outputs(ns.command, cfg, files)
        if message is not None:
            print(message)
        return EXIT_OK
    except CliUsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
