"""Command-line surface: synthesize data, extract features, train, score,
evaluate, and sweep hyperparameters.

Configuration is a flat ``key = value`` text file; precedence is CLI flag
over config file over built-in default. Exit codes: 0 success, 1 usage
error, 2 data/format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import glob as globlib
import multiprocessing
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, NumericalError, UsageError
from .evaluator import emit_report, evaluate, normalize_scores, score_dataset, write_scores_csv
from .features import FEATURE_NAMES, window_features
from .model import LossWeights
from .signal_io import (
    LABEL_FAULT,
    LABEL_NORMAL,
    LABEL_UNLABELED,
    SynthSpec,
    load_csv,
    load_f32_binary,
    read_input,
    split_train_test,
    subsample,
    synth,
    write_atomic,
    write_f32_binary,
)
from .trainer import TrainConfig, load_checkpoint, train

# TrainConfig's fields that a flag or config key sets; the other two are
# built from LossWeights' fields and from the --checkpoint path
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name not in ("loss_weights", "checkpoint_path")]
_WEIGHT_FIELDS = [f.name for f in fields(LossWeights)]
_SYNTH = {f.name: f.default for f in fields(SynthSpec)}

DEFAULTS = {
    # training: the defaults of TrainConfig and LossWeights
    **{f.name: f.default for f in fields(TrainConfig) if f.name in _TRAIN_FIELDS},
    **{f.name: f.default for f in fields(LossWeights)},
    "stride": 0,  # 0 means subsample_len (non-overlapping)
    "train_fraction": 0.8,
    "column": "0",
    "sample_rate": _SYNTH["sample_rate_hz"],  # synth's rate; the loaders record it as metadata
    # synthesis: the defaults of SynthSpec
    "count": 1,
    "samples": 120000,
    "carriers": ",".join(f"{f:g}" for f in _SYNTH["carrier_freqs_hz"]),
    "noise_std": _SYNTH["noise_std"],
    "fault_rate": _SYNTH["impulse_rate_hz"],
    "fault_amp": _SYNTH["impulse_amplitude"],
    # evaluation
    "recon": 4,
}


def parse_config_file(path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_input(path).decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value, f"{path}:{lineno}")
    return out


def _coerce(key: str, value: str, where: str):
    target = type(DEFAULTS[key])
    if target is str:
        return value
    try:
        return target(value)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {value!r} as {target.__name__} for {key!r}") from None


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _expand_glob(pattern: str) -> list[Path]:
    files = sorted(Path(p) for p in globlib.glob(pattern))
    if not files:
        raise UsageError(f"no files match {pattern!r}")
    return files


def _load_series(path: Path, cfg: dict, label: str):
    column = cfg["column"]
    if path.suffix.lower() == ".csv":
        col = int(column) if column.lstrip("-").isdigit() else column
        return load_csv(path, column=col, sample_rate_hz=cfg["sample_rate"], label=label)
    return load_f32_binary(path, sample_rate_hz=cfg["sample_rate"], label=label)


def _load_subsamples(files: list[Path], cfg: dict, label: str) -> list:
    stride = cfg["stride"] or cfg["subsample_len"]
    subs = []
    for path in files:
        series = _load_series(path, cfg, label)
        subs.extend(subsample(series, cfg["subsample_len"], stride, source=path.name))
    return subs


def _train_config(cfg: dict, checkpoint: Path | None) -> TrainConfig:
    weights = LossWeights(**{name: cfg[name] for name in _WEIGHT_FIELDS})
    return TrainConfig(
        **{name: cfg[name] for name in _TRAIN_FIELDS}, loss_weights=weights, checkpoint_path=checkpoint
    )


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    try:
        carriers = tuple(float(c) for c in str(cfg["carriers"]).split(",") if c.strip())
    except ValueError as err:
        raise UsageError(f"cannot parse --carriers {cfg['carriers']!r}: {err}") from None
    specs = [  # every setting is checked here, before anything is written
        SynthSpec(
            duration_samples=cfg["samples"],
            sample_rate_hz=cfg["sample_rate"],
            carrier_freqs_hz=carriers,
            noise_std=cfg["noise_std"],
            impulse_rate_hz=cfg["fault_rate"],
            impulse_amplitude=cfg["fault_amp"],
            seed=cfg["seed"] + i,
        )
        for i in range(cfg["count"])
    ]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot write files under {out_dir}: {err.strerror or err}") from err
    kind = LABEL_FAULT if cfg["fault_rate"] > 0 else LABEL_NORMAL
    written = []
    for i, spec in enumerate(specs):
        path = out_dir / f"{kind}_{i:04d}.f32"
        write_f32_binary(synth(spec), path)
        written.append(path)
    print(f"wrote {len(written)} {kind} file(s) under {out_dir}")
    return 0


# Windows per vectorized pass in `faultgan features`: with an overlapping
# stride a long series has about as many windows as samples, and stacking them
# all at once would take window_len times the series' memory in float64.
FEATURE_BLOCK_WINDOWS = 1024


def cmd_features(args) -> int:
    cfg = resolve_config(args)
    series = _load_series(Path(args.input), cfg, LABEL_NORMAL)
    window_len = args.window_len
    stride = args.window_stride or window_len
    windows = subsample(series, window_len, stride)
    lines = [",".join(FEATURE_NAMES)]
    for start in range(0, len(windows), FEATURE_BLOCK_WINDOWS):
        block = np.stack([w.values for w in windows[start : start + FEATURE_BLOCK_WINDOWS]])
        lines.extend(",".join(map(repr, row)) for row in window_features(block).T.tolist())
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(windows)} feature rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    files = _expand_glob(args.data)
    subs = _load_subsamples(files, cfg, LABEL_NORMAL)
    train_subs, _ = split_train_test(subs, cfg["train_fraction"], cfg["seed"])
    config = _train_config(cfg, Path(args.checkpoint))
    _, report = train(config, train_subs)
    for row in report.epochs:
        print(
            f"epoch {row.epoch:3d}  l_total={row.l_total:.4f}  l_f={row.l_fraud:.4f}  "
            f"l_a={row.l_apparent:.4f}  l_l={row.l_latent:.4f}  l_d={row.l_disc:.4f}  "
            f"({row.seconds:.1f}s)"
        )
    print(f"checkpoint {args.checkpoint} sha256={report.checkpoint_digest}")
    return 0


def cmd_score(args) -> int:
    cfg = resolve_config(args)
    state = load_checkpoint(args.checkpoint)
    cfg["subsample_len"] = state.pipeline.subsample_len
    subs = _load_subsamples(_expand_glob(args.data), cfg, args.label)
    scored = score_dataset(state, subs)
    write_scores_csv(args.out, scored, normalize_scores([s.score for s in scored]))
    print(f"scored {len(scored)} subsamples -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    state = load_checkpoint(args.checkpoint)
    cfg["subsample_len"] = state.pipeline.subsample_len
    subs = _load_subsamples(_expand_glob(args.normal), cfg, LABEL_NORMAL)
    subs += _load_subsamples(_expand_glob(args.fault), cfg, LABEL_FAULT)
    report = evaluate(state, subs, n_recon=cfg["recon"])
    emit_report(report, args.out)
    print(
        f"auc={report.auc:.4f} accuracy={report.accuracy:.4f} threshold={report.threshold:.6g} "
        f"n_normal={report.n_normal} n_fault={report.n_fault}"
    )
    return 0


def _sweep_point(packed) -> tuple[int, float, float]:
    cfg, axis, value, normal_files, fault_files = packed
    cfg = dict(cfg)
    cfg[axis] = value
    cfg["stride"] = 0
    normal_subs = _load_subsamples([Path(p) for p in normal_files], cfg, LABEL_NORMAL)
    train_subs, test_normal = split_train_test(normal_subs, cfg["train_fraction"], cfg["seed"])
    fault_subs = _load_subsamples([Path(p) for p in fault_files], cfg, LABEL_FAULT)
    state, _ = train(_train_config(cfg, None), train_subs)
    report = evaluate(state, test_normal + fault_subs)
    return value, report.auc, report.accuracy


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if args.axis not in ("subsample_len", "latent_dim"):
        raise UsageError(f"sweep axis must be subsample_len or latent_dim, got {args.axis!r}")
    if args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse sweep values {args.values!r} as integers") from None
    if not values:
        raise UsageError("sweep needs at least one value")
    normal_files = [str(p) for p in _expand_glob(args.normal)]
    fault_files = [str(p) for p in _expand_glob(args.fault)]
    jobs = [(cfg, args.axis, v, normal_files, fault_files) for v in values]
    processes = min(args.parallel, len(jobs))
    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            results = pool.map(_sweep_point, jobs)
    else:
        results = [_sweep_point(job) for job in jobs]
    lines = [f"{args.axis},auc,accuracy"]
    for value, auc, acc in results:
        lines.append(f"{value},{auc!r},{acc!r}")
        print(f"{args.axis}={value}  auc={auc:.4f}  accuracy={acc:.4f}")
    write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


# -- parser -------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]):
    p.add_argument("--config", help="flat key = value config file")
    flag_types = {int: int, float: float, str: str}
    for key in keys:
        default = DEFAULTS[key]
        p.add_argument(
            f"--{key.replace('_', '-')}",
            dest=key,
            type=flag_types[type(default)],
            default=None,
            help=f"default: {default}",
        )


TRAIN_KEYS = [*_TRAIN_FIELDS, *_WEIGHT_FIELDS, "stride", "train_fraction", "column", "sample_rate"]
SYNTH_KEYS = ["count", "samples", "sample_rate", "carriers", "noise_std", "fault_rate", "fault_amp", "seed"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultgan",
        description="Adversarial fault detection for univariate industrial time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic bearing-like signal files")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SYNTH_KEYS)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="dump per-window statistical features as CSV")
    p.add_argument("--input", required=True, help="input series (.csv or .f32)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--window-len", type=int, default=DEFAULTS["feature_window_len"], help="samples per feature window")
    p.add_argument("--window-stride", type=int, default=0, help="window stride (default: window length)")
    _add_config_flags(p, ["column", "sample_rate"])
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train on normal-only data")
    p.add_argument("--data", required=True, help="glob of normal series files")
    p.add_argument("--checkpoint", required=True, help="checkpoint output path")
    _add_config_flags(p, TRAIN_KEYS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a dataset against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="glob of series files to score")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--label", default=LABEL_UNLABELED, help="label recorded for the scored files")
    _add_config_flags(p, ["stride", "column", "sample_rate"])
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="evaluate a checkpoint on normal + fault globs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--normal", required=True, help="glob of normal test files")
    p.add_argument("--fault", required=True, help="glob of fault test files")
    p.add_argument("--out", required=True, help="report output directory")
    _add_config_flags(p, ["stride", "column", "sample_rate", "recon"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="retrain per hyperparameter value and tabulate metrics")
    p.add_argument("--axis", required=True, help="subsample_len or latent_dim")
    p.add_argument("--values", required=True, help="comma-separated integer values")
    p.add_argument("--normal", required=True, help="glob of normal files (split 80/20)")
    p.add_argument("--fault", required=True, help="glob of fault test files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--parallel", type=int, default=1, help="sweep points run in N processes")
    _add_config_flags(p, TRAIN_KEYS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DataFormatError, NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
