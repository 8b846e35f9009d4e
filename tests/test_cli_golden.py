"""Golden CLI surface: each subcommand's config keys and defaults, its help,
and the bytes of the config, manifest and report files it writes.

The command lines are those of acceptance criterion 11, run with paths
relative to a scratch working directory so the written paths are stable.
The expected bytes live in tests/golden/cli/<command>/.
"""

import json
from pathlib import Path

import pytest

from hsgppt import cli

GOLDEN = Path(__file__).parent / "golden" / "cli"
PINNED_FILES = ("config.json", "manifest.json", "report.json")

DEFAULTS = {
    "gen-csbm": {
        "n": 3000, "f": 128, "d": 50.0, "h": 0.5, "mu": 10.0, "seed": 0, "out": None,
    },
    "analyze": {
        "data": None, "out": None, "kind": "normalized", "order": 2,
        "feature_transform": "none", "eigen_limit": 5000,
    },
    "pretrain": {
        "data": None, "out": None, "order": 2, "hidden": 64, "lr": 1e-3,
        "epochs": 500, "patience": 50, "seed": 0, "feature_transform": "none",
        "low_pass_only": False,
    },
    "tune": {
        "data": None, "ckpt": None, "out": None, "k": 5, "seed": 0,
        "n_prompt": 10, "tau_inner": 0.2, "tau_cross": None, "lr": 5e-3,
        "epochs": 2000, "eval_every": 10, "variant": "full",
        "feature_transform": "none",
    },
    "eval": {
        "mode": "transductive", "data": None, "source": None, "target": None,
        "out": None, "seeds": "0,1,2,3,4", "k": 5, "order": 2, "hidden": 64,
        "pretrain_lr": 1e-3, "pretrain_epochs": 500, "patience": 50,
        "n_prompt": 10, "tau_inner": 0.2, "tau_cross": None, "tune_lr": 5e-3,
        "tune_epochs": 2000, "eval_every": 10, "svd_dim": 128, "workers": 0,
        "f1_average": "macro", "feature_transform": "none", "variant": "full",
    },
    "sweep": {
        "out": None, "h_values": "0.0,0.2,0.4,0.6,0.8,1.0", "seeds": "0,1,2",
        "n": 3000, "f": 128, "d": 50.0, "mu": 10.0,
    },
    "ablate": {
        "data": None, "out": None, "seeds": "0,1,2,3,4", "k": 5, "order": 2,
        "hidden": 64, "pretrain_lr": 1e-3, "pretrain_epochs": 500, "patience": 50,
        "n_prompt": 10, "tau_inner": 0.2, "tau_cross": None, "tune_lr": 5e-3,
        "tune_epochs": 2000, "eval_every": 10, "feature_transform": "none",
    },
    "gradcheck": {"tol": 1e-4, "seed": 0},
}

COMMAND_LINES = [
    ("gen-csbm", "data",
     ["gen-csbm", "--n", 40, "--f", 6, "--d", 5, "--h", 0.3, "--mu", 4, "--out", "data"]),
    ("analyze", "an", ["analyze", "--data", "data", "--out", "an"]),
    ("pretrain", "pre",
     ["pretrain", "--data", "data", "--out", "pre", "--hidden", 8, "--epochs", 4,
      "--patience", 4]),
    ("tune", "tu",
     ["tune", "--data", "data", "--ckpt", "pre/model.ckpt", "--out", "tu",
      "--k", 2, "--n-prompt", 3, "--epochs", 4, "--eval-every", 2]),
    ("eval", "ev",
     ["eval", "--mode", "transductive", "--data", "data", "--out", "ev",
      "--seeds", "0,1", "--k", 2, "--hidden", 8, "--pretrain-epochs", 3,
      "--patience", 3, "--tune-epochs", 3, "--eval-every", 3, "--n-prompt", 3]),
    ("sweep", "sw",
     ["sweep", "--out", "sw", "--h-values", "0.1,0.9", "--seeds", "0",
      "--n", 80, "--f", 8, "--d", 6, "--mu", 8]),
    ("ablate", "ab",
     ["ablate", "--data", "data", "--out", "ab", "--seeds", "0", "--k", 2,
      "--hidden", 8, "--pretrain-epochs", 3, "--patience", 3, "--tune-epochs", 3,
      "--eval-every", 3, "--n-prompt", 3]),
    ("gradcheck", None, ["gradcheck", "--tol", "1e-4"]),
]


def as_json(cfg):
    # json text tells 50 from 50.0, which dict equality does not
    return json.dumps(cfg, sort_keys=True)


def test_defaults_per_subcommand():
    assert set(cli._DEFAULTS) == set(DEFAULTS)
    parser = cli._build_parser()
    for command, expected in DEFAULTS.items():
        assert as_json(cli._DEFAULTS[command]) == as_json(expected), command
        resolved = cli._merge_config(command, parser.parse_args([command]))
        assert as_json(resolved) == as_json(expected), command


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_help_exits_zero_and_lists_every_key(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for key in DEFAULTS[command]:
        assert f"--{key.replace('_', '-')}" in text, key


def test_written_config_manifest_and_report_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, out, argv in COMMAND_LINES:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK, command
        expected_dir = GOLDEN / command
        expected = {p.name for p in expected_dir.iterdir()} if expected_dir.is_dir() else set()
        written = {n for n in PINNED_FILES if out is not None and (Path(out) / n).is_file()}
        assert written == expected, command
        for name in sorted(written):
            got = (Path(out) / name).read_bytes()
            assert got == (expected_dir / name).read_bytes(), f"{command}/{name}"


def test_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, out, argv in COMMAND_LINES:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK, command
        if out is None:
            continue
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        on_disk = sorted(p.name for p in Path(out).iterdir() if p.name != "manifest.json")
        assert manifest["files"] == on_disk, command
