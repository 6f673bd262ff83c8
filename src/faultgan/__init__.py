"""Normal-only adversarial fault detection for univariate industrial time series.

The library trains an encoder-decoder-encoder generator against a
convolutional discriminator on healthy-machine recordings only, then flags
faults by the anomaly score (reconstruction error plus latent mismatch).
"""

from .evaluator import EvalReport, ScoredSample, emit_report, evaluate, score_dataset
from .features import FEATURE_NAMES, FeatureVector, extract_features
from .model import LossWeights, ModelState, build_model, fit_pipeline
from .signal_io import (
    Subsample,
    SynthSpec,
    TimeSeries,
    load_csv,
    load_f32_binary,
    split_train_test,
    subsample,
    synth,
    write_f32_binary,
)
from .trainer import TrainConfig, TrainReport, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FEATURE_NAMES",
    "FeatureVector",
    "LossWeights",
    "ModelState",
    "ScoredSample",
    "Subsample",
    "SynthSpec",
    "TimeSeries",
    "TrainConfig",
    "TrainReport",
    "build_model",
    "emit_report",
    "evaluate",
    "extract_features",
    "fit_pipeline",
    "load_checkpoint",
    "load_csv",
    "load_f32_binary",
    "save_checkpoint",
    "score_dataset",
    "split_train_test",
    "subsample",
    "synth",
    "train",
    "write_f32_binary",
]
