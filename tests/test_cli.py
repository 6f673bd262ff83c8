"""CLI surface: flags, config precedence, exit codes, and the full
synth -> train -> score/eval -> sweep flow."""

from dataclasses import astuple, fields

import numpy as np
import pytest
from helpers import with_field

from faultgan.cli import DEFAULTS, FEATURE_BLOCK_WINDOWS, build_parser, main, parse_config_file
from faultgan.errors import ConfigError
from faultgan.features import FEATURE_NAMES, extract_features
from faultgan.model import LossWeights
from faultgan.signal_io import SynthSpec, synth, write_f32_binary
from faultgan.trainer import TrainConfig

FAST = [
    "--epochs", "2", "--batch-size", "4", "--subsample-len", "256",
    "--latent-dim", "8", "--base-channels", "4", "--n-down", "3", "--seed", "5",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(root), "--count", "6", "--samples", "1024",
                 "--noise-std", "0.1", "--seed", "1"]) == 0
    assert main(["synth", "--out", str(root), "--count", "2", "--samples", "1024",
                 "--fault-rate", "30", "--fault-amp", "1.0", "--seed", "100"]) == 0
    return root


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(["train", "--data", str(data_dir / "normal_*.f32"),
                 "--checkpoint", str(path), *FAST])
    assert code == 0 and path.exists()
    return path


@pytest.mark.parametrize("command", ["synth", "features", "train", "score", "eval", "sweep"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--help"])
    out = capsys.readouterr().out
    assert "default: 20" in out  # epochs
    assert "default: 0.001" in out  # learning rate


def test_synth_zero_samples_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--samples", "0"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--carriers", "55,abc"), ("--carriers", "55,nan"), ("--fault-rate", "inf"), ("--noise-std", "nan"),
    ("--sample-rate", "inf"), ("--fault-amp", "inf"),
])
def test_synth_non_finite_setting_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--samples", "64", flag, value]) == 1
    assert value.split(",")[-1] in capsys.readouterr().err
    assert not out.exists()


def test_synth_into_existing_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["synth", "--out", str(out), "--samples", "64"]) == 1
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--out", str(out), "--count", "2", "--samples", "512", "--seed", "9"]) == 0
    for name in ("normal_0000.f32", "normal_0001.f32"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_features_subcommand_writes_16_column_csv(tmp_path, data_dir):
    out = tmp_path / "features.csv"
    code = main(["features", "--input", str(data_dir / "normal_0000.f32"),
                 "--window-len", "128", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(FEATURE_NAMES)
    assert len(lines) == 1 + 1024 // 128
    assert all(len(line.split(",")) == 16 for line in lines[1:])


def test_features_overlapping_stride_rows_match_their_windows(tmp_path):
    series = np.random.default_rng(3).normal(size=1100).astype("<f4")
    path = tmp_path / "series.f32"
    path.write_bytes(series.tobytes())
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(path), "--window-len", "8", "--window-stride", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(FEATURE_NAMES)
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == (1100 - 8) // 3 + 1
    for i, row in enumerate(rows):
        window = series[3 * i : 3 * i + 8]
        np.testing.assert_allclose(row, np.array(astuple(extract_features(window))), rtol=1e-12, atol=1e-15)

    # stride 1 gives more windows than one block holds; rows stay in window order across blocks
    assert main(["features", "--input", str(path), "--window-len", "8", "--window-stride", "1",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1100 - 8 + 1 > FEATURE_BLOCK_WINDOWS
    for i in (0, FEATURE_BLOCK_WINDOWS - 1, FEATURE_BLOCK_WINDOWS, len(rows) - 1):
        expected = np.array(astuple(extract_features(series[i : i + 8])))
        np.testing.assert_allclose([float(v) for v in rows[i].split(",")], expected, rtol=1e-12, atol=1e-15)


def test_train_missing_glob_lists_pattern(tmp_path, capsys):
    pattern = str(tmp_path / "nothing_*.f32")
    assert main(["train", "--data", pattern, "--checkpoint", str(tmp_path / "m.ckpt"), *FAST]) == 1
    assert pattern in capsys.readouterr().err


def test_eval_missing_glob_fails(tmp_path, checkpoint, data_dir, capsys):
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--normal", str(data_dir / "normal_0005.f32"),
                 "--fault", str(tmp_path / "no_such_*.f32"),
                 "--out", str(tmp_path / "rep")]) == 1
    assert "no files match" in capsys.readouterr().err


def test_score_and_eval_flow(tmp_path, checkpoint, data_dir, capsys):
    scores_csv = tmp_path / "scores.csv"
    assert main(["score", "--checkpoint", str(checkpoint),
                 "--data", str(data_dir / "fault_*.f32"),
                 "--label", "fault", "--out", str(scores_csv)]) == 0
    lines = scores_csv.read_text().splitlines()
    assert lines[0] == "id,label,raw_score,norm_score,l_apparent,l_latent"
    assert len(lines) == 1 + 2 * (1024 // 256)

    out_dir = tmp_path / "report"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--normal", str(data_dir / "normal_0005.f32"),
                 "--fault", str(data_dir / "fault_*.f32"),
                 "--out", str(out_dir), "--recon", "1"]) == 0
    assert (out_dir / "scores.csv").exists()
    assert (out_dir / "metrics.txt").exists()
    assert (out_dir / "reconstruction_pairs.csv").exists()
    summary = capsys.readouterr().out
    assert "auc=" in summary and "accuracy=" in summary


def test_eval_deterministic(tmp_path, checkpoint, data_dir):
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--normal", str(data_dir / "normal_0005.f32"),
                     "--fault", str(data_dir / "fault_*.f32"),
                     "--out", str(out_dir)]) == 0
        outs.append(out_dir)
    for name in ("scores.csv", "metrics.txt", "reconstruction_pairs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_corrupt_data_file_is_format_error(tmp_path, checkpoint, capsys):
    bad = tmp_path / "bad.f32"
    bad.write_bytes(b"\x00" * 7)  # not a multiple of 4
    assert main(["score", "--checkpoint", str(checkpoint),
                 "--data", str(bad), "--out", str(tmp_path / "s.csv")]) == 2
    assert "multiple of 4" in capsys.readouterr().err


def test_non_finite_f32_sample_names_its_file(tmp_path, checkpoint, capsys):
    bad = tmp_path / "bad.f32"
    values = np.zeros(512, dtype="<f4")
    values[300] = np.nan
    bad.write_bytes(values.tobytes())
    assert main(["score", "--checkpoint", str(checkpoint),
                 "--data", str(bad), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "non-finite" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_score_exits_3_naming_its_window(tmp_path, checkpoint, capsys):
    big = tmp_path / "big.f32"
    big.write_bytes(np.full(512, 3e37, dtype="<f4").tobytes())
    assert main(["score", "--checkpoint", str(checkpoint),
                 "--data", str(big), "--out", str(tmp_path / "s.csv")]) == 3
    assert "non-finite anomaly score for big.f32@0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_non_finite_csv_cell_names_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("v\n1.0\nnan\n2.0\n")
    assert main(["features", "--input", str(bad), "--window-len", "2",
                 "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "non-finite" in err
    assert not (tmp_path / "f.csv").exists()


def test_data_glob_matching_a_directory_is_usage_error(tmp_path, checkpoint, capsys):
    (tmp_path / "x.f32").mkdir()
    assert main(["score", "--checkpoint", str(checkpoint),
                 "--data", str(tmp_path / "*.f32"), "--out", str(tmp_path / "s.csv")]) == 1
    assert str(tmp_path / "x.f32") in capsys.readouterr().err


def test_config_directory_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "out"), "--config", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"samples = 64 # \xff\n")
    assert main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)]) == 1
    assert str(config) in capsys.readouterr().err


def test_csv_not_utf8_is_format_error(tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes("caf\u00e9\n1.0\n2.0\n".encode("latin-1"))
    assert main(["features", "--input", str(csv_path), "--window-len", "2",
                 "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert str(csv_path) in err and "UTF-8" in err
    assert not (tmp_path / "f.csv").exists()


def test_sweep_emits_one_row_per_value(tmp_path, data_dir):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "latent_dim", "--values", "4,8",
                 "--normal", str(data_dir / "normal_*.f32"),
                 "--fault", str(data_dir / "fault_*.f32"),
                 "--out", str(out_csv), *FAST])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "latent_dim,auc,accuracy"
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]


def test_sweep_parallel_matches_sequential(tmp_path, data_dir):
    args = ["sweep", "--axis", "latent_dim", "--values", "4,8",
            "--normal", str(data_dir / "normal_*.f32"),
            "--fault", str(data_dir / "fault_*.f32"), *FAST]
    seq_csv, par_csv = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert main(args + ["--out", str(seq_csv)]) == 0
    assert main(args + ["--out", str(par_csv), "--parallel", "2"]) == 0
    assert seq_csv.read_bytes() == par_csv.read_bytes()


def test_sweep_pool_is_no_larger_than_the_sweep(tmp_path, data_dir, monkeypatch, capsys):
    requested = []

    class InProcessPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr("faultgan.cli.multiprocessing.Pool", InProcessPool)
    args = ["sweep", "--axis", "latent_dim", "--values", "16,32",
            "--normal", str(data_dir / "normal_*.f32"), "--fault", str(data_dir / "fault_*.f32"),
            "--out", str(tmp_path / "sweep.csv"), *FAST]
    assert main(args + ["--parallel", "0"]) == 1
    assert "--parallel" in capsys.readouterr().err
    assert main(args + ["--parallel", "8"]) == 0
    assert requested == [2]


def test_train_negative_n_down_is_usage_error(tmp_path, data_dir, capsys):
    path = tmp_path / "x.ckpt"
    code = main(["train", "--data", str(data_dir / "normal_*.f32"),
                 "--checkpoint", str(path), *FAST, "--n-down", "-1"])
    assert code == 1
    assert "n_down" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--w-fraud", "nan"), ("--w-apparent", "inf"), ("--sample-rate", "nan"),
])
def test_train_non_finite_setting_is_usage_error(tmp_path, data_dir, capsys, flag, value):
    path = tmp_path / "x.ckpt"
    code = main(["train", "--data", str(data_dir / "normal_*.f32"), "--checkpoint", str(path), *FAST, flag, value])
    assert code == 1
    assert value in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no training report


@pytest.mark.parametrize("flag,value", [("--beta1", "nan"), ("--beta2", "inf"), ("--beta1", "1.5")])
def test_train_bad_adam_beta_is_refused_before_any_work(tmp_path, data_dir, capsys, monkeypatch, flag, value):
    def build_model(*args, **kwargs):
        raise AssertionError("the networks were built before the betas were checked")

    monkeypatch.setattr("faultgan.trainer.build_model", build_model)
    path = tmp_path / "x.ckpt"
    code = main(["train", "--data", str(data_dir / "normal_*.f32"), "--checkpoint", str(path), *FAST, flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert flag[2:] in err and value in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exits_3(tmp_path, data_dir, capsys):
    code = main(["train", "--data", str(data_dir / "normal_*.f32"),
                 "--checkpoint", str(tmp_path / "x.ckpt"), *FAST, "--lr", "1e30"])
    assert code == 3
    assert "non-finite loss" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(tmp_path, data_dir, capsys):
    assert main(["sweep", "--axis", "bogus", "--values", "1",
                 "--normal", str(data_dir / "normal_*.f32"),
                 "--fault", str(data_dir / "fault_*.f32"),
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "axis" in capsys.readouterr().err


# -- config file -----------------------------------------------------------------


def test_config_file_parsed_and_unknown_key_rejected(tmp_path):
    good = tmp_path / "run.cfg"
    good.write_text("epochs = 3\nlr = 0.01  # comment\npipeline_mode = features\n")
    cfg = parse_config_file(good)
    assert cfg == {"epochs": 3, "lr": 0.01, "pipeline_mode": "features"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(bad)

    unparsable = tmp_path / "unparsable.cfg"
    unparsable.write_text("epochs = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_file(unparsable)


def test_config_precedence_flag_beats_file_beats_default(tmp_path, data_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 4\nsubsample_len = 256\n"
                   "latent_dim = 8\nbase_channels = 4\nn_down = 3\n")
    ckpt = tmp_path / "m.ckpt"
    # --epochs 2 must override the file's epochs = 1
    assert main(["train", "--data", str(data_dir / "normal_*.f32"),
                 "--checkpoint", str(ckpt), "--config", str(cfg), "--epochs", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch   2" in out and "epoch   3" not in out


def test_csv_input_supported(tmp_path):
    csv_path = tmp_path / "series.csv"
    values = np.sin(np.arange(600) * 0.1)
    csv_path.write_text("v\n" + "\n".join(f"{v:.6f}" for v in values) + "\n")
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(csv_path), "--column", "v",
                 "--window-len", "100", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6


def test_one_epoch_smoke_run_is_fast(tmp_path, data_dir):
    import time

    start = time.perf_counter()
    assert main(["train", "--data", str(data_dir / "normal_*.f32"),
                 "--checkpoint", str(tmp_path / "smoke.ckpt"),
                 "--epochs", "1", "--batch-size", "4", "--subsample-len", "256",
                 "--latent-dim", "8", "--base-channels", "4", "--n-down", "3"]) == 0
    assert time.perf_counter() - start < 120.0


def test_every_default_documented():
    # every config key must carry a built-in default
    assert set(DEFAULTS) >= {
        "epochs", "batch_size", "lr", "beta1", "beta2", "latent_dim",
        "subsample_len", "pipeline_mode", "seed",
    }
    assert DEFAULTS["epochs"] == 20
    assert DEFAULTS["lr"] == 0.001
    assert DEFAULTS["beta1"] == 0.5 and DEFAULTS["beta2"] == 0.999
    assert DEFAULTS["latent_dim"] == 64
    assert DEFAULTS["subsample_len"] == 12000


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_every_training_field_is_a_flag(command):
    required = {
        "train": ["--data", "d", "--checkpoint", "c"],
        "sweep": ["--axis", "latent_dim", "--values", "4", "--normal", "n", "--fault", "f", "--out", "o"],
    }[command]
    names = [f.name for f in fields(TrainConfig) if f.name not in ("loss_weights", "checkpoint_path")]
    names += [f.name for f in fields(LossWeights)]
    for name in names:
        value = DEFAULTS[name]
        args = build_parser().parse_args([command, *required, f"--{name.replace('_', '-')}", str(value)])
        assert getattr(args, name) == value


def test_synthesis_defaults_are_synth_spec_defaults(tmp_path):
    spec = SynthSpec(duration_samples=DEFAULTS["samples"])
    assert DEFAULTS["sample_rate"] == spec.sample_rate_hz
    assert DEFAULTS["carriers"] == "55,130"
    assert tuple(float(c) for c in DEFAULTS["carriers"].split(",")) == spec.carrier_freqs_hz
    assert DEFAULTS["noise_std"] == spec.noise_std
    assert DEFAULTS["fault_rate"] == spec.impulse_rate_hz
    assert DEFAULTS["fault_amp"] == spec.impulse_amplitude
    # a synth run with no flags writes what the library's defaults make
    assert main(["synth", "--out", str(tmp_path / "cli"), "--samples", "2048"]) == 0
    write_f32_binary(synth(SynthSpec(duration_samples=2048)), tmp_path / "lib.f32")
    assert (tmp_path / "cli" / "normal_0000.f32").read_bytes() == (tmp_path / "lib.f32").read_bytes()


def test_train_into_missing_directory_fails_before_training(tmp_path, data_dir, capsys):
    path = tmp_path / "missing_dir" / "m.ckpt"
    assert main(["train", "--data", str(data_dir / "normal_*.f32"), "--checkpoint", str(path), *FAST]) == 1
    captured = capsys.readouterr()
    assert str(path.parent) in captured.err
    assert "epoch" not in captured.out  # refused before the first epoch
    assert not path.parent.exists()


def test_score_into_missing_directory_is_usage_error(tmp_path, checkpoint, data_dir, capsys):
    out = tmp_path / "missing_dir" / "s.csv"
    assert main(["score", "--checkpoint", str(checkpoint), "--data", str(data_dir / "fault_*.f32"),
                 "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err
    assert not out.parent.exists()


def test_outputs_leave_no_temp_files(tmp_path, checkpoint, data_dir):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["score", "--checkpoint", str(checkpoint), "--data", str(data_dir / "fault_*.f32"),
                 "--out", str(out / "s.csv")]) == 0
    assert main(["eval", "--checkpoint", str(checkpoint), "--normal", str(data_dir / "normal_0005.f32"),
                 "--fault", str(data_dir / "fault_*.f32"), "--out", str(out / "report")]) == 0
    assert sorted(p.name for p in out.rglob("*")) == [
        "metrics.txt", "reconstruction_pairs.csv", "report", "s.csv", "scores.csv",
    ]


def test_corrupt_checkpoint_exits_2(tmp_path, checkpoint, data_dir, capsys):
    bad = tmp_path / "bad.ckpt"
    blob = checkpoint.read_bytes()
    for content in (with_field(blob, "n_down", 0), b"", blob[:3]):  # an empty file cannot be mapped
        bad.write_bytes(content)
        assert main(["score", "--checkpoint", str(bad), "--data", str(data_dir / "fault_*.f32"),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert str(bad) in capsys.readouterr().err
