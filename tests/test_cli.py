"""End-to-end CLI: exit codes, config precedence, artifacts, determinism."""

import hashlib
import json
import struct

import pytest

import hsgppt.cli as cli
import hsgppt.evaluate as evaluate
from hsgppt.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def run(*argv):
    return main([str(a) for a in argv])


def gen(tmp_path, name="data", n=40, h=0.3, seed=0, f=6, d=5.0, mu=4.0):
    out = tmp_path / name
    rc = run("gen-csbm", "--n", n, "--f", f, "--d", d, "--h", h,
             "--mu", mu, "--seed", seed, "--out", out)
    assert rc == EXIT_OK
    return out


def snapshot(folder):
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir()) if p.is_file()}


def test_gen_csbm_artifacts(tmp_path):
    out = gen(tmp_path)
    names = {p.name for p in out.iterdir()}
    assert names == {"meta.json", "edges.tsv", "features.bin", "labels.tsv",
                     "config.json", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-csbm"
    assert set(manifest["files"]) <= names
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["n"] == 40 and cfg["h"] == 0.3 and cfg["command"] == "gen-csbm"


def test_rerun_reproduces_bit_exact(tmp_path):
    out = gen(tmp_path, seed=3)
    first = snapshot(out)
    out2 = gen(tmp_path, seed=3)
    assert out2 == out
    assert snapshot(out) == first


def test_analyze_outputs(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "diag"
    assert run("analyze", "--data", data, "--out", out) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"s_high.tsv", "analysis.json", "filter_curves.tsv",
            "spectral_energy.tsv"} <= names
    report = json.loads((out / "analysis.json").read_text())
    assert report["n_nodes"] == 40
    assert 0.0 <= report["homophily"] <= 1.0
    assert report["energy_identity"]["max_abs_error"] < 1e-9
    header = (out / "s_high.tsv").read_text().splitlines()[0]
    assert header == "dim\ts_high"


# sha256 of analysis.json for each --kind on gen-csbm --n 300 --f 16 --d 8
# --h 0.3 --mu 6 --seed 0
PINNED_ANALYSIS = {
    "normalized": "7b36dc2393d030b2dad475de512881eaeb1326bc2fdc1076e79310253afddd04",
    "unnormalized": "b0d6df8491333b3f4bad423273cff7eae3222518506b6d9a00fd81778b0d7b9c",
}


def test_analyze_builds_each_laplacian_once(tmp_path, monkeypatch, capsys):
    # the energy identity reads D - A once per feature column; the graph
    # builds it once and every column reads that copy
    import hsgppt.graph as graph_mod

    data = gen(tmp_path, n=300, f=16, d=8.0, mu=6.0)
    builds, build = [], graph_mod.laplacian_from_edges

    def counting(edges, n, kind="normalized"):
        builds.append(kind)
        return build(edges, n, kind)

    monkeypatch.setattr(graph_mod, "laplacian_from_edges", counting)
    for kind, digest in PINNED_ANALYSIS.items():
        builds.clear()
        out = tmp_path / kind
        assert run("analyze", "--data", data, "--out", out, "--kind", kind) == EXIT_OK
        assert sorted(builds) == ["normalized", "unnormalized"], kind
        assert hashlib.sha256((out / "analysis.json").read_bytes()).hexdigest() == digest, kind


def test_analyze_eigen_limit_skips_dense_part(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "diag"
    assert run("analyze", "--data", data, "--out", out, "--eigen-limit", 10) == EXIT_OK
    assert not (out / "spectral_energy.tsv").exists()


def test_pretrain_tune_chain(tmp_path, capsys):
    data = gen(tmp_path)
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", data, "--out", pre, "--hidden", 8,
               "--epochs", 5, "--patience", 5) == EXIT_OK
    assert (pre / "model.ckpt").exists()
    hist = (pre / "loss_history.tsv").read_text().splitlines()
    assert hist[0] == "epoch\tloss" and len(hist) == 6

    tun = tmp_path / "tun"
    assert run("tune", "--data", data, "--ckpt", pre / "model.ckpt", "--out", tun,
               "--k", 2, "--n-prompt", 3, "--epochs", 4, "--eval-every", 2) == EXIT_OK
    assert (tun / "state.bin").exists()
    rows = (tun / "tune_history.tsv").read_text().splitlines()
    assert rows[0] == "epoch\tloss\tval_f1" and len(rows) == 5
    assert "backbone hash verified" in capsys.readouterr().out


def test_damaged_checkpoint_is_data_error(tmp_path, capsys):
    data = gen(tmp_path)
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", data, "--out", pre, "--hidden", 4,
               "--epochs", 1, "--patience", 1) == EXIT_OK
    blob = (pre / "model.ckpt").read_bytes()
    ckpt = tmp_path / "damaged.ckpt"
    # cuts in the magic, the version, the header integers and the last
    # array's data, and one trailing byte too many
    for damaged in (blob[:5], blob[:13], blob[:40], blob[:-9], blob + b"\0"):
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        assert run("tune", "--data", data, "--ckpt", ckpt, "--out", tmp_path / "tun",
                   "--k", 2, "--n-prompt", 3, "--epochs", 1) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(ckpt) in err, err


def test_checkpoint_with_huge_header_dim_is_data_error(tmp_path, capsys):
    data = gen(tmp_path)
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", data, "--out", pre, "--hidden", 4,
               "--epochs", 1, "--patience", 1) == EXIT_OK
    blob = (pre / "model.ckpt").read_bytes()
    # feature_dim, the first header integer after magic, version and count,
    # set to 2^40 with the file length intact
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(blob[:16] + struct.pack("<q", 2**40) + blob[24:])
    capsys.readouterr()
    assert run("tune", "--data", data, "--ckpt", ckpt, "--out", tmp_path / "tun",
               "--k", 2, "--n-prompt", 3, "--epochs", 1) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ckpt) in err, err


def test_checkpoint_of_another_feature_dim_is_data_error(tmp_path, capsys):
    data = gen(tmp_path)
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", gen(tmp_path, name="other", f=4), "--out", pre,
               "--hidden", 4, "--epochs", 1, "--patience", 1) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "tun"
    assert run("tune", "--data", data, "--ckpt", pre / "model.ckpt", "--out", out,
               "--k", 2, "--n-prompt", 3, "--epochs", 1) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "takes 4 features, the dataset has 6" in err, err
    assert not out.exists()


def test_eval_deterministic_report(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "ev"
    args = ("eval", "--mode", "transductive", "--data", data, "--out", out,
            "--seeds", "0,1", "--k", 2, "--hidden", 8, "--pretrain-epochs", 4,
            "--patience", 4, "--tune-epochs", 4, "--eval-every", 2, "--n-prompt", 3)
    assert run(*args) == EXIT_OK
    report1 = (out / "report.json").read_bytes()
    assert (out / "report.txt").exists()
    assert (out / "timings.json").exists()
    assert b"wall_clock" not in report1  # timings live in their own file
    assert run(*args) == EXIT_OK
    assert (out / "report.json").read_bytes() == report1
    parsed = json.loads(report1)
    assert parsed["mode"] == "transductive" and len(parsed["per_seed"]) == 2


def test_eval_workers_label_phase_times_as_sums_over_seeds(tmp_path, capsys):
    # two workers run the seeds at once, so only "total" is a wall clock
    data = gen(tmp_path)
    out = tmp_path / "ev"
    assert run("eval", "--mode", "transductive", "--data", data, "--out", out,
               "--seeds", "0,1", "--k", 2, "--hidden", 8, "--pretrain-epochs", 2,
               "--patience", 2, "--tune-epochs", 2, "--eval-every", 2, "--n-prompt", 3,
               "--workers", 2) == EXIT_OK
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"total", "pretrain_seed_sum", "tune_seed_sum"}
    err = capsys.readouterr().err
    phases = [line.split()[1] for line in err.splitlines() if line.startswith("time ")]
    assert sorted(phases) == ["pretrain_seed_sum", "total", "tune_seed_sum"]


def test_eval_inductive(tmp_path):
    src = gen(tmp_path, "src", n=50, h=0.7, seed=0, f=8)
    tgt = gen(tmp_path, "tgt", n=40, h=0.3, seed=1, f=8)
    out = tmp_path / "ind"
    assert run("eval", "--mode", "inductive", "--source", src, "--target", tgt,
               "--out", out, "--seeds", "0", "--k", 2, "--hidden", 8,
               "--pretrain-epochs", 3, "--patience", 3, "--tune-epochs", 3,
               "--eval-every", 3, "--n-prompt", 3, "--svd-dim", 6) == EXIT_OK
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["mode"] == "inductive"
    assert "->" in parsed["dataset"]


def test_sweep_outputs(tmp_path):
    out = tmp_path / "sw"
    assert run("sweep", "--out", out, "--h-values", "0.1,0.9", "--seeds", "0",
               "--n", 80, "--f", 8, "--d", 6, "--mu", 8) == EXIT_OK
    body = (out / "sweep.tsv").read_text().splitlines()
    assert body[0] == "h\tseed\tfilter\ttest_f1"
    assert len(body) == 1 + 2 * 3
    mean = (out / "sweep_mean.tsv").read_text().splitlines()
    assert mean[0] == "h\tfilter\tmean_test_f1"


def test_ablate_outputs(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "ab"
    assert run("ablate", "--data", data, "--out", out, "--seeds", "0", "--k", 2,
               "--hidden", 8, "--pretrain-epochs", 3, "--patience", 3,
               "--tune-epochs", 3, "--eval-every", 3, "--n-prompt", 3) == EXIT_OK
    rows = (out / "ablation.tsv").read_text().splitlines()
    assert rows[0].startswith("variant\t")
    variants = [r.split("\t")[0] for r in rows[1:]]
    assert variants == ["full", "low_pass_only", "single_prompt", "no_prompt",
                        "no_prompt_norm"]


def test_gradcheck_pass_and_numeric_failure(capsys):
    assert run("gradcheck", "--tol", "1e-4") == EXIT_OK
    out = capsys.readouterr().out
    assert "contrastive pre-training graph" in out
    assert "prompt tuning graph" in out
    assert run("gradcheck", "--tol", "1e-12") == EXIT_NUMERIC


def test_usage_errors():
    assert run() == EXIT_USAGE
    assert run("no-such-command") == EXIT_USAGE
    assert run("gen-csbm") == EXIT_USAGE  # --out missing
    assert run("analyze", "--data") == EXIT_USAGE  # dangling value
    assert run("gen-csbm", "--n", "notanumber", "--out", "x") == EXIT_USAGE


@pytest.mark.parametrize("command, flag, noun, written", [
    ("eval", "--seeds", "seed", "report.json"),
    ("sweep", "--seeds", "seed", "sweep.tsv"),
    ("sweep", "--h-values", "h value", "sweep.tsv"),
    ("ablate", "--seeds", "seed", "ablation.tsv"),
])
def test_empty_list_is_usage_error(tmp_path, capsys, command, flag, noun, written):
    data = gen(tmp_path)
    out = tmp_path / "o"
    args = ("--out", out, flag, "", "--n", 40, "--f", 6, "--d", 5.0) if command == "sweep" else (
        "--data", data, "--out", out, flag, "", "--k", 2, "--hidden", 8, "--pretrain-epochs", 1)
    assert run(command, *args) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: at least one {noun} is required\n"
    assert not (out / written).exists()


_NEGATIVE_SEED = "--seeds takes seeds of 0 or more, not -1"
_REPEATED_SEED = "--seeds lists 1 more than once"


@pytest.mark.parametrize("command, flag, value, err", [
    ("eval", "--seeds", "0,-1", _NEGATIVE_SEED),
    ("ablate", "--seeds", "0,-1", _NEGATIVE_SEED),
    ("sweep", "--seeds", "0,-1", _NEGATIVE_SEED),
    ("eval", "--seeds", "1,0,1", _REPEATED_SEED),
    ("ablate", "--seeds", "1,0,1", _REPEATED_SEED),
    ("sweep", "--seeds", "1,0,1", _REPEATED_SEED),
    ("sweep", "--h-values", "0.2,0.8,0.2", "--h-values lists 0.2 more than once"),
], ids=["eval-negative-seed", "ablate-negative-seed", "sweep-negative-seed",
        "eval-repeated-seed", "ablate-repeated-seed", "sweep-repeated-seed", "sweep-repeated-h"])
def test_bad_list_entry_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys,
                                                        command, flag, value, err):
    # a negative seed failed in numpy only after the earlier seeds had run,
    # and a repeated entry reran identical work
    data = gen(tmp_path)
    for name in ("pretrain", "generate"):
        monkeypatch.setattr(evaluate, name, lambda *a, **kw: pytest.fail("ran before the list check"))
    out = tmp_path / "o"
    data_args = () if command == "sweep" else ("--data", data)
    capsys.readouterr()
    assert run(command, "--out", out, *data_args, flag, value) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {err}\n"
    assert not out.exists()


def test_sweep_checks_every_h_before_training(tmp_path, monkeypatch, capsys):
    # h=1.5 failed only after every h=0.2 graph had trained its probes
    monkeypatch.setattr(evaluate, "train_linear_probe",
                        lambda *a, **kw: pytest.fail("trained a probe before the h check"))
    out = tmp_path / "o"
    assert run("sweep", "--out", out, "--h-values", "0.2,1.5", "--seeds", "0",
               "--n", 40, "--f", 6, "--d", 5.0) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: h must lie in [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, field", [
    ("pretrain", ("--epochs", 0), "epochs"),
    ("pretrain", ("--hidden", 0), "hidden_dim"),
    ("tune", ("--eval-every", 0), "eval_every"),
    ("eval", ("--eval-every", 0), "eval_every"),
    ("ablate", ("--eval-every", 0), "eval_every"),
    ("tune", ("--epochs", 0), "epochs"),
    ("tune", ("--n-prompt", -1), "n_prompt"),
    ("eval", ("--tune-epochs", 0), "epochs"),
    ("ablate", ("--tune-epochs", 0), "epochs"),
    ("pretrain", ("--lr", "nan"), "lr"),
    ("pretrain", ("--lr", 0), "lr"),
    ("pretrain", ("--patience", -1), "patience"),
    ("tune", ("--lr", "nan"), "lr"),
    ("tune", ("--tau-cross", "nan"), "tau_cross"),
    ("tune", ("--tau-inner", "inf"), "tau_inner"),
    ("eval", ("--pretrain-lr", "inf"), "lr"),
    ("ablate", ("--tune-lr", "nan"), "lr"),
])
def test_config_out_of_range_is_usage_error(tmp_path, capsys, command, flags, field):
    # the configs reject these before anything is written
    data = gen(tmp_path, n=60)
    out = tmp_path / "o"
    args = ["--data", data, "--out", out]
    if command == "tune":
        pre = tmp_path / "pre"
        assert run("pretrain", "--data", data, "--out", pre, "--hidden", 4, "--epochs", 1) == EXIT_OK
        args += ["--ckpt", pre / "model.ckpt"]
    elif command in ("eval", "ablate"):
        args += ["--seeds", "0", "--hidden", 4, "--pretrain-epochs", 1, "--tune-epochs", 1]
    capsys.readouterr()
    # the flags under test come last, so they override the defaults above
    assert run(command, *args, *flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and field in err and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_config_file_value_is_usage_error(tmp_path, capsys):
    # json reads NaN, which a flag cannot smuggle past the configs either
    data = gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lr": float("nan")}))
    capsys.readouterr()
    assert run("pretrain", "--data", data, "--out", tmp_path / "o", "--config", cfg_path) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: pre-training takes a positive finite lr, not nan\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_gradcheck_tolerance_must_be_positive_and_finite(capsys, tol):
    assert run("gradcheck", "--tol", tol) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: --tol"), captured


@pytest.mark.parametrize("order", [-1, 1021])
@pytest.mark.parametrize("command", ["pretrain", "analyze", "eval"])
def test_filter_order_without_a_bank_is_usage_error(tmp_path, capsys, command, order):
    # order 1021's full bank holds kernels whose constants exceed float64
    data = gen(tmp_path)
    out = tmp_path / "o"
    args = ["--data", data, "--out", out, "--order", order]
    if command == "eval":
        args += ["--seeds", "0", "--k", 2, "--hidden", 4, "--pretrain-epochs", 1, "--tune-epochs", 1]
    capsys.readouterr()
    assert run(command, *args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command, k", [("eval", 0), ("eval", 100), ("ablate", 0), ("ablate", 100)])
def test_impossible_shot_count_is_usage_error_before_pretraining(tmp_path, monkeypatch, capsys, command, k):
    # the generated classes hold ~20 nodes each, too few for 100 shots
    data = gen(tmp_path)
    monkeypatch.setattr(evaluate, "pretrain", lambda *a, **kw: pytest.fail("pre-trained before the split check"))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(command, "--data", data, "--out", out, "--seeds", "0,1", "--k", k) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_missing_data_is_data_error(tmp_path):
    assert run("analyze", "--data", tmp_path / "nope", "--out", tmp_path / "o") == EXIT_DATA


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "h": 0.8, "d": 4.0, "out": str(tmp_path / "a")}))
    assert run("gen-csbm", "--config", cfg_path) == EXIT_OK
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert meta["n_nodes"] == 30

    # explicit flag beats the config file
    cfg_path.write_text(json.dumps({"n": 30, "d": 4.0, "out": str(tmp_path / "b")}))
    assert run("gen-csbm", "--config", cfg_path, "--n", 36) == EXIT_OK
    meta = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta["n_nodes"] == 36


def test_config_file_errors(tmp_path):
    missing = tmp_path / "absent.json"
    assert run("gen-csbm", "--config", missing) == EXIT_DATA
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 30, "d": 4.0, "bogus_key": 1, "out": str(tmp_path / "c")}))
    assert run("gen-csbm", "--config", bad) == EXIT_USAGE


def test_feature_transform_flag(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "rn"
    assert run("analyze", "--data", data, "--out", out,
               "--feature-transform", "row-normalize") == EXIT_OK
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["feature_transform"] == "row-normalize"


# sha256 of ablate's ablation.tsv and stdout for the small run below
PINNED_ABLATE = {
    "ablation.tsv": "b74927b1b40f94583bd4e8ed0591ef89140590a5dfee600b8dccbfa366a60858",
    "stdout": "4df7535f171023ebb1bbd86e14e52c492292ca8f9e78483590caec02876dcd12",
}


def test_eval_low_pass_only_matches_ablate_row(tmp_path, capsys):
    data = gen(tmp_path)
    small = ("--data", data, "--seeds", "0,1", "--k", 2, "--hidden", 8,
             "--pretrain-epochs", 3, "--patience", 3, "--tune-epochs", 3,
             "--eval-every", 3, "--n-prompt", 3)
    capsys.readouterr()
    assert run("ablate", "--out", tmp_path / "ab", *small) == EXIT_OK
    written = {"ablation.tsv": (tmp_path / "ab" / "ablation.tsv").read_bytes(),
               "stdout": capsys.readouterr().out.encode()}
    for name, digest in PINNED_ABLATE.items():
        assert hashlib.sha256(written[name]).hexdigest() == digest, name
    rows = [r.split("\t") for r in (tmp_path / "ab" / "ablation.tsv").read_text().splitlines()]
    ablate_f1 = {r[0]: [float(x) for x in r[3:]] for r in rows[1:]}
    reports = {}
    for variant in ("full", "low_pass_only"):
        out = tmp_path / variant
        assert run("eval", "--out", out, "--variant", variant, *small) == EXIT_OK
        reports[variant] = json.loads((out / "report.json").read_text())
    for variant, report in reports.items():
        assert [r["macro_f1"] for r in report["per_seed"]] == ablate_f1[variant], variant
    assert reports["low_pass_only"]["config_fingerprint"] != reports["full"]["config_fingerprint"]


def test_tune_rejects_low_pass_only(tmp_path, capsys):
    args = ("tune", "--data", tmp_path / "d", "--ckpt", tmp_path / "c", "--out", tmp_path / "o")
    assert run(*args, "--variant", "low_pass_only") == EXIT_USAGE
    assert "pretrain --low-pass-only" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"variant": "low_pass_only"}))
    assert run(*args, "--config", cfg_path) == EXIT_USAGE
    assert "pretrain --low-pass-only" in capsys.readouterr().err


def test_config_values_take_their_key_type(tmp_path, capsys):
    data = gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"

    def pretrain_with(cfg):
        cfg_path.write_text(json.dumps(cfg))
        return run("pretrain", "--data", data, "--out", tmp_path / "pre", "--hidden", 4,
                   "--epochs", 1, "--patience", 1, "--config", cfg_path)

    for switch, encoders in ((False, 3), (True, 1)):
        capsys.readouterr()
        assert pretrain_with({"low_pass_only": switch}) == EXIT_OK
        assert f"pre-trained {encoders} filter encoder(s)" in capsys.readouterr().out
    for bad in ({"low_pass_only": "false"}, {"low_pass_only": 0}, {"hidden": 4.0},
                {"hidden": "4"}, {"lr": True}, {"order": None}, {"data": 1},
                {"feature_transform": "bogus"}):
        assert pretrain_with(bad) == EXIT_USAGE, bad

    # a float key takes a JSON integer as the float a flag would give
    out = tmp_path / "g"
    cfg_path.write_text(json.dumps({"n": 30, "d": 4, "out": str(out)}))
    assert run("gen-csbm", "--config", cfg_path) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["d"] == 4.0
    assert '"d": 4.0' in (out / "config.json").read_text()


def test_negative_worker_count_is_usage_error(tmp_path, capsys):
    data = gen(tmp_path)
    for mode in ("transductive", "inductive"):
        assert run("eval", "--mode", mode, "--data", data, "--source", data, "--target", data,
                   "--out", tmp_path / "ev", "--seeds", "0,1", "--workers", -2) == EXIT_USAGE
        assert "--workers must be 0 or more" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def _raise(error):
    def fail(*args, **kwargs):
        raise error
    return fail


@pytest.mark.parametrize("command", ["tune", "pretrain", "analyze"])
def test_failed_command_leaves_no_out(tmp_path, monkeypatch, capsys, command):
    # each fails after its --out is known and its data is loaded
    data = gen(tmp_path)
    out = tmp_path / "o"
    if command == "tune":
        pre = tmp_path / "pre"
        assert run("pretrain", "--data", data, "--out", pre, "--hidden", 4, "--epochs", 1) == EXIT_OK
        # the generated classes hold ~20 nodes each, too few for 100 shots
        argv, code = ("--ckpt", pre / "model.ckpt", "--k", 100, "--epochs", 1), EXIT_USAGE
    elif command == "pretrain":
        monkeypatch.setattr(cli, "pretrain", _raise(cli.NumericError("loss is not finite")))
        argv, code = ("--hidden", 4, "--epochs", 1), EXIT_NUMERIC
    else:
        # after s_high.tsv's profile, before the filter curves
        monkeypatch.setattr(cli.spectral, "response_grid", _raise(cli.NumericError("overflow")))
        argv, code = (), EXIT_NUMERIC
    capsys.readouterr()
    assert run(command, "--data", data, "--out", out, *argv) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_edgeless_labelled_graph_has_no_homophily(tmp_path, capsys):
    # edge homophily is undefined without edges: analyze reports null, and
    # tune's automatic tau_cross takes the heterophilic value
    data = gen(tmp_path)
    edgeless = tmp_path / "edgeless"
    edgeless.mkdir()
    for p in data.iterdir():
        (edgeless / p.name).write_bytes(b"" if p.name == "edges.tsv" else p.read_bytes())
    assert run("analyze", "--data", edgeless, "--out", tmp_path / "an") == EXIT_OK
    report = json.loads((tmp_path / "an" / "analysis.json").read_text())
    assert report["n_edges"] == 0 and report["homophily"] is None
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", data, "--out", pre, "--hidden", 4, "--epochs", 1) == EXIT_OK
    assert run("tune", "--data", edgeless, "--ckpt", pre / "model.ckpt", "--out", tmp_path / "tu",
               "--k", 2, "--n-prompt", 3, "--epochs", 2, "--eval-every", 1) == EXIT_OK
    assert (tmp_path / "tu" / "state.bin").is_file()


def _strict_json(path):
    """The file's JSON, refusing the NaN and Infinity that RFC 8259 has no room for."""

    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _copy_dataset(src, dst, **bodies):
    """src's files in dst, with the bodies given by file name (dots as _)."""
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(bodies.get(p.name.replace(".", "_"), p.read_bytes()))
    return dst


@pytest.mark.parametrize("kind", ["normalized", "unnormalized"])
def test_edgeless_graph_has_no_mean_s_high(tmp_path, capsys, kind):
    # every column reads 1.0 normalized (isolated nodes keep identity rows)
    # and 0.0 unnormalized, so the mean is undefined either way
    data = _copy_dataset(gen(tmp_path), tmp_path / "edgeless", edges_tsv=b"")
    out = tmp_path / "an"
    assert run("analyze", "--data", data, "--out", out, "--kind", kind) == EXIT_OK
    assert _strict_json(out / "analysis.json")["mean_s_high"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_zero_features_have_no_mean_s_high(tmp_path, capsys):
    # no column has a nonzero norm, so every column's S_high is NaN
    data = gen(tmp_path)
    header = (data / "features.bin").read_bytes()[:16]
    zeros = _copy_dataset(data, tmp_path / "zeros", features_bin=header + bytes(8 * 40 * 6))
    out = tmp_path / "an"
    assert run("analyze", "--data", zeros, "--out", out) == EXIT_OK
    assert _strict_json(out / "analysis.json")["mean_s_high"] is None


def test_weighted_f1_is_named_weighted(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run("eval", "--data", data, "--out", out, "--seeds", "0,1", "--k", 2, "--hidden", 4,
               "--pretrain-epochs", 2, "--tune-epochs", 2, "--n-prompt", 3,
               "--f1-average", "weighted") == EXIT_OK
    text = (out / "report.txt").read_text()
    assert capsys.readouterr().out == text + "\n"
    assert "weighted_f1" in text and "(weighted F1)" in text
    report = json.loads((out / "report.json").read_text())
    assert all(set(row) == {"seed", "accuracy", "weighted_f1"} for row in report["per_seed"])
    assert "macro" not in text and "macro" not in (out / "report.json").read_text()
