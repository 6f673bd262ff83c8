"""Scoring, normalization, AUC, thresholding, and report emission."""

import numpy as np
import pytest
from helpers import count_calls, identity_standardizer

from faultgan import evaluator, model
from faultgan.errors import NumericalError, UsageError
from faultgan.evaluator import (
    EvalReport,
    ScoredSample,
    emit_report,
    evaluate,
    normalize_scores,
    pick_threshold,
    reconstruction_pairs,
    roc_auc,
    score_dataset,
)
from faultgan.model import InputPipeline, build_model, fit_pipeline, generator_forward
from faultgan.ndtensor import Tensor
from faultgan.signal_io import Subsample


def _scored(pairs):
    return [
        ScoredSample(score=s, l_apparent=s, l_latent=0.0, label=label, source=f"s{i}")
        for i, (label, s) in enumerate(pairs)
    ]


# -- normalize_scores ------------------------------------------------------------


def test_normalize_affine_map():
    assert normalize_scores([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]


def test_normalize_degenerate_inputs():
    assert normalize_scores([5.0, 5.0]) == [0.0, 0.0]
    assert normalize_scores([3.0]) == [0.0]
    with pytest.raises(UsageError):
        normalize_scores([])


def test_normalize_preserves_order():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.normal(size=12).tolist()
        normed = normalize_scores(scores)
        assert np.array_equal(np.argsort(scores, kind="stable"), np.argsort(normed, kind="stable"))
        assert min(normed) == 0.0 and max(normed) == 1.0


# -- roc_auc ----------------------------------------------------------------------


def test_auc_perfect_separation():
    assert roc_auc(_scored([("normal", 0.1), ("fault", 0.9)])) == 1.0


def test_auc_all_ties():
    scored = _scored([("normal", 0.5), ("normal", 0.5), ("fault", 0.5)])
    assert roc_auc(scored) == 0.5


def test_auc_enumerated_pairs():
    # pairs (fault=2 vs normal=1): win; (fault=2 vs normal=3): loss -> 0.5
    scored = _scored([("normal", 1.0), ("normal", 3.0), ("fault", 2.0)])
    assert roc_auc(scored) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(UsageError):
        roc_auc(_scored([("normal", 1.0)]))
    with pytest.raises(UsageError):
        roc_auc(_scored([("fault", 1.0), ("fault", 2.0)]))


def test_auc_matches_pair_enumeration_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        normals = rng.integers(0, 5, size=8) * 0.25
        faults = rng.integers(0, 5, size=5) * 0.25
        scored = _scored([("normal", float(v)) for v in normals] + [("fault", float(v)) for v in faults])
        wins = sum((f > n) + 0.5 * (f == n) for f in faults for n in normals)
        assert roc_auc(scored) == pytest.approx(wins / (len(faults) * len(normals)))


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(2)
    for _ in range(10):
        scored = _scored(
            [("normal", float(v)) for v in rng.normal(size=7)]
            + [("fault", float(v)) for v in rng.normal(loc=0.5, size=6)]
        )
        base = roc_auc(scored)
        for transform in (np.exp, lambda s: 3.0 * s + 11.0):
            mapped = [
                ScoredSample(score=float(transform(s.score)), l_apparent=0, l_latent=0,
                             label=s.label, source=s.source)
                for s in scored
            ]
            assert roc_auc(mapped) == pytest.approx(base)


# -- pick_threshold -----------------------------------------------------------------


def test_threshold_perfect_separation():
    thr, acc = pick_threshold(_scored([("normal", 0.1), ("normal", 0.2), ("fault", 0.8)]))
    assert acc == 1.0
    assert 0.2 < thr < 0.8


def test_threshold_enumerated_example():
    thr, acc = pick_threshold(_scored([("normal", 0.1), ("normal", 0.2), ("fault", 0.15)]))
    assert acc == pytest.approx(2.0 / 3.0)
    assert thr == pytest.approx(0.125)  # ties resolve to the lowest threshold


def test_threshold_majority_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_n = int(rng.integers(1, 8))
        n_f = int(rng.integers(1, 8))
        scored = _scored(
            [("normal", float(rng.normal())) for _ in range(n_n)]
            + [("fault", float(rng.normal())) for _ in range(n_f)]
        )
        _, acc = pick_threshold(scored)
        assert acc >= max(n_n, n_f) / (n_n + n_f) - 1e-12


def test_threshold_single_class_raises():
    with pytest.raises(UsageError):
        pick_threshold(_scored([("normal", 1.0), ("normal", 2.0)]))


def test_threshold_classification_rule_is_strictly_greater():
    scored = _scored([("normal", 0.5), ("fault", 1.5)])
    thr, acc = pick_threshold(scored)
    assert acc == 1.0
    assert 0.5 <= thr < 1.5


def _brute_auc(normal, fault):
    wins = (fault[:, None] > normal[None, :]).sum() + 0.5 * (fault[:, None] == normal[None, :]).sum()
    return wins / (fault.size * normal.size)


def _brute_threshold(normal, fault):
    """Every candidate tried in turn; a strictly better accuracy replaces the best."""
    distinct = np.unique(np.concatenate([normal, fault]))
    candidates = [float(distinct[0]) - 1.0]
    candidates += [float(0.5 * (a + b)) for a, b in zip(distinct[:-1], distinct[1:])]
    candidates += [float(distinct[-1]) + 1.0]
    best_thr, best_acc = candidates[0], -1.0
    for thr in candidates:
        acc = (int((fault > thr).sum()) + int((normal <= thr).sum())) / (normal.size + fault.size)
        if acc > best_acc:
            best_thr, best_acc = thr, acc
    return best_thr, best_acc


@pytest.mark.parametrize("seed", range(12))
def test_auc_and_threshold_match_brute_force_with_ties(seed):
    rng = np.random.default_rng(seed)
    n_n, n_f = (int(v) for v in rng.integers(1, 400, size=2))
    levels = int(rng.choice([3, 20, 1000]))  # few levels force many ties
    normal = rng.integers(0, levels, size=n_n) / levels
    fault = rng.integers(0, levels, size=n_f) / levels + rng.uniform(0.0, 0.5)
    scored = _scored([("normal", float(v)) for v in normal] + [("fault", float(v)) for v in fault])
    assert roc_auc(scored) == pytest.approx(_brute_auc(normal, fault), abs=1e-12)
    assert pick_threshold(scored) == _brute_threshold(normal, fault)


def test_threshold_midpoint_of_adjacent_floats():
    # the midpoint of two adjacent doubles rounds onto one of them
    normal, fault = np.array([1.0]), np.array([np.nextafter(1.0, 2.0)])
    scored = _scored([("normal", float(normal[0])), ("fault", float(fault[0]))])
    assert pick_threshold(scored) == _brute_threshold(normal, fault) == (1.0, 1.0)


# -- score_dataset -------------------------------------------------------------------


def _tiny_state(length=32):
    pipe = InputPipeline(mode="raw", subsample_len=length, net_len=length,
                         standardizer=identity_standardizer(1))
    return build_model(pipe, latent_dim=4, base_channels=4, n_down=2, seed=0)


def test_score_dataset_empty():
    assert score_dataset(_tiny_state(), []) == []


def test_score_dataset_duplicates_and_order():
    state = _tiny_state()
    rng = np.random.default_rng(4)
    a = Subsample(values=rng.normal(size=32).astype(np.float32), source_offset=0, label="normal", source="a")
    b = Subsample(values=rng.normal(size=32).astype(np.float32), source_offset=0, label="fault", source="b")
    scored = score_dataset(state, [a, b, a])
    assert [s.label for s in scored] == ["normal", "fault", "normal"]
    assert scored[0].score == scored[2].score
    assert scored[0].l_apparent == scored[2].l_apparent
    assert scored[0].score != scored[1].score


def test_score_decomposition_tight():
    state = _tiny_state()
    rng = np.random.default_rng(5)
    subs = [Subsample(values=rng.normal(size=32).astype(np.float32), source_offset=0, label="normal")
            for _ in range(130)]  # spans several scoring chunks
    for s in score_dataset(state, subs):
        assert abs(s.score - (s.l_apparent + s.l_latent)) <= 1e-6
        assert s.score >= 0


def test_score_chunking_matches_single(tmp_path):
    state = _tiny_state()
    rng = np.random.default_rng(6)
    subs = [Subsample(values=rng.normal(size=32).astype(np.float32), source_offset=0, label="normal")
            for _ in range(70)]
    all_at_once = score_dataset(state, subs)
    one_by_one = [score_dataset(state, [s])[0] for s in subs]
    for a, b in zip(all_at_once, one_by_one):
        assert a.score == pytest.approx(b.score, rel=1e-6)


# -- evaluate + emit_report ------------------------------------------------------------


def _mixed_subs(rng, n_normal=6, n_fault=4, length=32):
    subs = [Subsample(values=rng.normal(size=length).astype(np.float32), source_offset=0,
                      label="normal", source=f"n{i}") for i in range(n_normal)]
    subs += [Subsample(values=(rng.normal(size=length) + 3.0).astype(np.float32), source_offset=0,
                       label="fault", source=f"f{i}") for i in range(n_fault)]
    return subs


def test_evaluate_report_contents():
    state = _tiny_state()
    subs = _mixed_subs(np.random.default_rng(7))
    report = evaluate(state, subs, n_recon=2)
    assert len(report.scored) == len(subs) == len(report.normalized)
    assert 0.0 <= report.auc <= 1.0
    assert report.n_normal == 6 and report.n_fault == 4
    assert min(report.normalized) == 0.0 and max(report.normalized) == 1.0
    assert len(report.recon_pairs) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rejects_a_non_finite_score_naming_its_window():
    subs = _mixed_subs(np.random.default_rng(9))
    subs[3] = Subsample(values=np.full(32, 3e37, dtype=np.float32), source_offset=64, label="normal", source="big")
    with pytest.raises(NumericalError, match="non-finite anomaly score for big@64"):
        evaluate(_tiny_state(), subs)


def test_emit_report_files(tmp_path):
    state = _tiny_state()
    subs = _mixed_subs(np.random.default_rng(8))
    report = evaluate(state, subs, n_recon=2)
    paths = emit_report(report, tmp_path / "out")
    scores_lines = paths[0].read_text().splitlines()
    assert scores_lines[0] == "id,label,raw_score,norm_score,l_apparent,l_latent"
    assert len(scores_lines) == 1 + len(subs)
    metrics = dict(line.split("=", 1) for line in paths[1].read_text().splitlines())
    assert set(metrics) == {"auc", "accuracy", "threshold", "n_normal", "n_fault"}
    assert metrics["n_normal"] == "6" and metrics["n_fault"] == "4"
    recon_lines = paths[2].read_text().splitlines()
    assert recon_lines[0] == "id,channel,position,original,reconstructed"
    assert len(recon_lines) == 1 + 2 * 32  # two samples of length 32, one channel


def test_emit_report_rerun_byte_identical(tmp_path):
    state = _tiny_state()
    subs = _mixed_subs(np.random.default_rng(9))
    report = evaluate(state, subs, n_recon=1)
    a = emit_report(report, tmp_path / "a")
    b = emit_report(report, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


# -- one batched forward path --------------------------------------------------------


def test_reconstruction_pairs_one_forward_per_score_batch(monkeypatch):
    state = _tiny_state()
    subs = _mixed_subs(np.random.default_rng(10), n_normal=3, n_fault=2)
    forwards = count_calls(monkeypatch, evaluator, "generator_forward")
    assert len(reconstruction_pairs(state, subs)) == 5
    assert len(forwards) == 1
    forwards.clear()
    monkeypatch.setattr(evaluator, "SCORE_BATCH", 2)
    assert len(reconstruction_pairs(state, subs)) == 5
    assert [args[1].shape[0] for args in forwards] == [2, 2, 1]


def test_reconstruction_pairs_match_single_window_forward():
    state = _tiny_state()
    subs = _mixed_subs(np.random.default_rng(11), n_normal=3, n_fault=2)
    pairs = reconstruction_pairs(state, subs)
    for i, (pair, sub) in enumerate(zip(pairs, subs)):
        assert pair.source == f"{sub.source}@{sub.source_offset}"
        prepared = state.pipeline.prepare(sub.values)
        np.testing.assert_array_equal(pair.original, state.pipeline.restore(prepared))
        x_hat, _, _ = generator_forward(state.generator, Tensor(prepared[None]))
        np.testing.assert_allclose(pair.reconstructed, state.pipeline.restore(x_hat.data[0]), rtol=1e-5, atol=1e-6)


def test_evaluate_extracts_each_window_once_per_use(monkeypatch):
    rng = np.random.default_rng(12)
    window_len, n_windows = 4, 8
    length = window_len * n_windows
    subs = _mixed_subs(rng, n_normal=4, n_fault=3, length=length)
    pipe = fit_pipeline(subs, "features", length, window_len, n_down=2)
    state = build_model(pipe, latent_dim=4, base_channels=4, n_down=2, seed=0)
    calls = count_calls(monkeypatch, model, "feature_matrix")
    evaluate(state, subs, n_recon=2)
    assert len(calls) == len(subs) + 2  # every scored window, plus each reconstructed one
