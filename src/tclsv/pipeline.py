"""Pipeline stages behind the CLI.

Each stage reads its upstream artifacts from the run directory, writes its own
outputs there and drops a resolved-config snapshot next to them, so a finished
run directory documents exactly how it was produced:

    features/   per-utterance feature archives + failures.tsv
    labels/     labels.tsv
    dnn/        model.tcln + loss_trace.txt
    bn/         pca.tclp + per-utterance bottleneck archives
    ubm/        ubm.tclg + ll_trace.txt
    models/     one adapted GMM per enrolled speaker
    scores/     scores.tsv
    report/     report.txt + report.json
    config/     one snapshot per executed stage
"""

from __future__ import annotations

import json
import logging
import warnings
from pathlib import Path

import numpy as np

from . import gmm, labeling, metrics, network, pca, storage
from .config import ExperimentConfig, write_snapshot
from .errors import DataError, DimensionMismatch, EmptyUtterance, MissingArtifact
from .frontend import FeatureMatrix, cmvn, extract_features, read_wav
from .manifest import ManifestEntry, by_split, read_manifest
from .metrics import TrialScoreSet

logger = logging.getLogger(__name__)


def _snapshot(config: ExperimentConfig, out_dir: Path, stage: str) -> None:
    cfg_dir = out_dir / "config"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot(cfg_dir / f"{stage}.json", config)


def _failed_ids(out_dir: Path) -> set[str]:
    path = out_dir / "features" / "failures.tsv"
    if not path.exists():
        return set()
    return {
        line.split("\t", 1)[0]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    }


def _usable(entries: list[ManifestEntry], out_dir: Path) -> list[ManifestEntry]:
    """Manifest entries whose feature extraction did not fail."""
    failed = _failed_ids(out_dir)
    kept = [e for e in entries if e.utterance_id not in failed]
    for e in entries:
        if e.utterance_id in failed:
            logger.warning("skipping %s: feature extraction failed", e.utterance_id)
    return kept


def _feature_path(out_dir: Path, entry: ManifestEntry, subdir: str = "features") -> Path:
    path = out_dir / subdir / f"{entry.utterance_id}.tclf"
    if not path.exists():
        raise MissingArtifact(
            f"{path}: no feature archive for {entry.utterance_id!r};"
            f" run the producing stage first or check features/failures.tsv"
        )
    return path


def _load_features(out_dir: Path, entry: ManifestEntry, subdir: str = "features") -> FeatureMatrix:
    path = _feature_path(out_dir, entry, subdir)
    return storage.read_feature_archive(path, utterance_id=entry.utterance_id)


def _backend_subdir(config: ExperimentConfig) -> str:
    return "bn" if config.backend.feature_source == "bn" else "features"


def run_extract_features(
    manifest_path, config: ExperimentConfig, out_dir
) -> list[tuple[str, str]]:
    """Extract frontend features for every manifest entry.

    Per-utterance failures (bad WAV, VAD removing everything, ...) are
    collected into features/failures.tsv instead of aborting the run.
    Returns the sorted failure list.
    """
    out_dir = Path(out_dir)
    entries = read_manifest(manifest_path)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    if not entries:
        warnings.warn("manifest has no entries; nothing to extract")

    failures: list[tuple[str, str]] = []
    for entry in entries:
        try:
            signal = read_wav(entry.wav_path)
            feats = extract_features(signal, config.frontend, utterance_id=entry.utterance_id)
            storage.write_feature_archive(feat_dir / f"{entry.utterance_id}.tclf", feats)
        except DataError as exc:
            failures.append((entry.utterance_id, str(exc)))
    failures.sort()
    storage.atomic_write_text(
        feat_dir / "failures.tsv",
        "".join(f"{utt}\t{msg}\n" for utt, msg in failures),
    )
    for utt, msg in failures:
        logger.warning("extraction failed for %s: %s", utt, msg)
    _snapshot(config, out_dir, "extract-features")
    return failures


def run_make_labels(manifest_path, config: ExperimentConfig, out_dir) -> labeling.LabeledFrames:
    """Assign time-contrastive labels to the dnn-train split."""
    out_dir = Path(out_dir)
    entries = _usable(read_manifest(manifest_path), out_dir)
    train_entries = by_split(entries, "dnn-train")
    if not train_entries:
        raise DataError("manifest has no usable dnn-train utterances")
    # labels depend only on frame counts, which the archive headers hold
    utterances = []
    for e in train_entries:
        num_frames, _ = storage.read_feature_shape(_feature_path(out_dir, e))
        utterances.append(labeling.FrameCount(e.utterance_id, num_frames))
    labeled = labeling.label_utterances(utterances, config.tcl_config())
    labels_dir = out_dir / "labels"
    labels_dir.mkdir(parents=True, exist_ok=True)
    labeling.write_label_archive(
        labels_dir / "labels.tsv", labeling.labels_by_utterance(labeled)
    )
    _snapshot(config, out_dir, "make-labels")
    return labeled


def _build_training_dataset(
    entries: list[ManifestEntry], config: ExperimentConfig, out_dir: Path
) -> tuple[network.LabeledDataset, network.NetworkArch]:
    """Context-stacked dnn-train frames plus per-head labels per config.dnn.targets."""
    train_entries = by_split(entries, "dnn-train")
    if not train_entries:
        raise DataError("manifest has no usable dnn-train utterances")
    left, right = config.dnn.context_left, config.dnn.context_right

    utterances: list[tuple[np.ndarray, int]] = []  # (frames, rows kept)
    if config.dnn.targets == "tcl":
        archive_path = out_dir / "labels" / "labels.tsv"
        if not archive_path.exists():
            raise MissingArtifact(f"{archive_path}: run make-labels first")
        archived = labeling.read_label_archive(archive_path)
        label_parts = []
        for entry in train_entries:
            vec = archived.get(entry.utterance_id)
            if vec is None or len(vec) == 0:
                continue  # skipped as too short, or truncated away in stream mode
            feats = _load_features(out_dir, entry)
            # stream mode may label only a prefix; anything else must match exactly
            too_long = len(vec) > feats.num_frames
            if too_long or (config.tcl.mode == "utterance" and len(vec) != feats.num_frames):
                raise DimensionMismatch(
                    f"{entry.utterance_id}: {len(vec)} labels for {feats.num_frames} frames"
                )
            if int(vec.max()) >= config.tcl.num_classes:
                raise DataError(
                    f"{entry.utterance_id}: label {int(vec.max())} out of range for"
                    f" {config.tcl.num_classes} classes"
                )
            utterances.append((feats.frames, len(vec)))
            label_parts.append(vec)
        if not utterances:
            raise DataError("no labeled training frames; check labels.tsv")
        labels = {"tcl": np.concatenate(label_parts)}
        heads = (("tcl", config.tcl.num_classes),)
    else:
        speakers = sorted({e.speaker_id for e in train_entries})
        speaker_index = {s: i for i, s in enumerate(speakers)}
        want_phrase = config.dnn.targets == "speaker+phrase"
        if want_phrase and any(e.phrase_id is None for e in train_entries):
            raise DataError("dnn.targets 'speaker+phrase' needs phrase_id on every dnn-train row")
        phrases = sorted({e.phrase_id for e in train_entries}) if want_phrase else []
        phrase_index = {p: i for i, p in enumerate(phrases)}
        speaker_parts, phrase_parts = [], []
        for entry in train_entries:
            feats = _load_features(out_dir, entry)
            utterances.append((feats.frames, feats.num_frames))
            speaker_parts.append(np.full(feats.num_frames, speaker_index[entry.speaker_id]))
            if want_phrase:
                phrase_parts.append(np.full(feats.num_frames, phrase_index[entry.phrase_id]))
        labels = {"speaker": np.concatenate(speaker_parts)}
        heads = (("speaker", len(speakers)),)
        if want_phrase:
            labels["phrase"] = np.concatenate(phrase_parts)
            heads += (("phrase", len(phrases)),)

    inputs = network.context_windows(utterances, left, right)
    arch = network.NetworkArch(
        input_dim=inputs.shape[1],
        hidden_layers=config.dnn.hidden_layers,
        output_heads=heads,
    )
    return network.LabeledDataset(inputs=inputs, labels=labels), arch


def run_train_dnn(
    manifest_path, config: ExperimentConfig, out_dir
) -> tuple[network.NetworkParams, list[float]]:
    out_dir = Path(out_dir)
    entries = _usable(read_manifest(manifest_path), out_dir)
    dataset, arch = _build_training_dataset(entries, config, out_dir)
    params, trace = network.train(dataset, arch, config.train_config(len(arch.output_heads)))
    dnn_dir = out_dir / "dnn"
    dnn_dir.mkdir(parents=True, exist_ok=True)
    storage.write_network(dnn_dir / "model.tcln", params)
    storage.atomic_write_text(dnn_dir / "loss_trace.txt", "".join(f"{v:.12g}\n" for v in trace))
    logger.info("dnn loss %.6f -> %.6f over %d epochs", trace[0], trace[-1], len(trace) - 1)
    _snapshot(config, out_dir, "train-dnn")
    return params, trace


def run_extract_bn(manifest_path, config: ExperimentConfig, out_dir) -> pca.PcaModel:
    """Deep features at the configured layer -> per-utterance CMVN -> PCA projection.

    The projection is fitted on the pooled normalized frames of the
    ``bn.fit_split`` utterances, then applied to every utterance.
    """
    out_dir = Path(out_dir)
    model_path = out_dir / "dnn" / "model.tcln"
    if not model_path.exists():
        raise MissingArtifact(f"{model_path}: run train-dnn first")
    params = storage.read_network(model_path)
    entries = _usable(read_manifest(manifest_path), out_dir)
    left, right = config.dnn.context_left, config.dnn.context_right

    def normalized(entry: ManifestEntry) -> np.ndarray:
        feats = _load_features(out_dir, entry)
        deep = network.extract_deep_features(
            params, network.stack_context(feats, left, right), config.bn.layer
        )
        return cmvn(FeatureMatrix(frames=deep, utterance_id=entry.utterance_id)).frames

    # Only the fit utterances' deep features are held at once; every other
    # utterance is computed, projected and written on its own.
    fit_entries = by_split(entries, config.bn.fit_split)
    if not fit_entries:
        raise DataError(f"manifest has no usable {config.bn.fit_split!r} utterances to fit PCA")
    fitted = {e.utterance_id: normalized(e) for e in fit_entries}
    projection = pca.fit_pca(np.vstack(list(fitted.values())), config.bn.pca_dim)

    bn_dir = out_dir / "bn"
    bn_dir.mkdir(parents=True, exist_ok=True)
    storage.write_pca(bn_dir / "pca.tclp", projection)
    for entry in entries:
        deep = fitted.pop(entry.utterance_id, None)
        if deep is None:
            deep = normalized(entry)
        storage.write_feature_archive(
            bn_dir / f"{entry.utterance_id}.tclf",
            FeatureMatrix(frames=pca.project(projection, deep), utterance_id=entry.utterance_id),
        )
    _snapshot(config, out_dir, "extract-bn")
    return projection


def run_train_ubm(
    manifest_path, config: ExperimentConfig, out_dir
) -> tuple[gmm.GmmModel, list[float]]:
    out_dir = Path(out_dir)
    entries = _usable(read_manifest(manifest_path), out_dir)
    ubm_entries = by_split(entries, "ubm-train")
    if not ubm_entries:
        raise DataError("manifest has no usable ubm-train utterances")
    subdir = _backend_subdir(config)
    frames = np.vstack([_load_features(out_dir, e, subdir).frames for e in ubm_entries])
    model, trace = gmm.train_ubm(
        frames,
        config.backend.num_mixtures,
        config.backend.em_iterations,
        seed=config.backend.init_seed or 0,
    )
    ubm_dir = out_dir / "ubm"
    ubm_dir.mkdir(parents=True, exist_ok=True)
    storage.write_gmm(ubm_dir / "ubm.tclg", model)
    storage.atomic_write_text(ubm_dir / "ll_trace.txt", "".join(f"{v:.12g}\n" for v in trace))
    _snapshot(config, out_dir, "train-ubm")
    return model, trace


def run_enroll(manifest_path, config: ExperimentConfig, out_dir) -> list[str]:
    """MAP-adapt one model per speaker from their pooled enrollment utterances."""
    out_dir = Path(out_dir)
    ubm_path = out_dir / "ubm" / "ubm.tclg"
    if not ubm_path.exists():
        raise MissingArtifact(f"{ubm_path}: run train-ubm first")
    ubm = storage.read_gmm(ubm_path)
    entries = _usable(read_manifest(manifest_path), out_dir)
    enroll_entries = by_split(entries, "enroll")
    if not enroll_entries:
        raise DataError("manifest has no usable enroll utterances")
    subdir = _backend_subdir(config)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    speakers = sorted({e.speaker_id for e in enroll_entries})
    for speaker in speakers:
        frames = np.vstack(
            [
                _load_features(out_dir, e, subdir).frames
                for e in enroll_entries
                if e.speaker_id == speaker
            ]
        )
        adapted = gmm.map_adapt(ubm, frames, config.map_config())
        storage.write_gmm(models_dir / f"{speaker}.tclg", adapted)
    _snapshot(config, out_dir, "enroll")
    return speakers


def run_score(manifest_path, config: ExperimentConfig, out_dir, trials_path) -> TrialScoreSet:
    out_dir = Path(out_dir)
    ubm_path = out_dir / "ubm" / "ubm.tclg"
    if not ubm_path.exists():
        raise MissingArtifact(f"{ubm_path}: run train-ubm first")
    ubm = storage.read_gmm(ubm_path)
    entries = read_manifest(manifest_path)
    by_id = {e.utterance_id: e for e in entries}
    trials = metrics.read_trials(trials_path)
    subdir = _backend_subdir(config)

    model_cache: dict[str, gmm.GmmModel] = {}
    # Per test utterance: its frames and the UBM log-likelihood of each frame,
    # so the UBM is evaluated once per utterance rather than once per trial.
    test_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    scores = np.empty(len(trials))
    for i, trial in enumerate(trials):
        if trial.model_id not in model_cache:
            model_path = out_dir / "models" / f"{trial.model_id}.tclg"
            if not model_path.exists():
                raise MissingArtifact(
                    f"no enrolled model for {trial.model_id!r} ({model_path}); run enroll first"
                )
            model_cache[trial.model_id] = storage.read_gmm(model_path)
        if trial.test_utterance_id not in test_cache:
            entry = by_id.get(trial.test_utterance_id)
            if entry is None:
                raise DataError(
                    f"trial references utterance {trial.test_utterance_id!r}"
                    f" which is not in the manifest"
                )
            x = _load_features(out_dir, entry, subdir).frames
            if x.shape[0] == 0:
                raise EmptyUtterance(f"{entry.utterance_id}: utterance has no frames")
            test_cache[trial.test_utterance_id] = (x, gmm.log_likelihoods(ubm, x))
        x, ubm_ll = test_cache[trial.test_utterance_id]
        # the same arithmetic as gmm.score_llr, with the UBM term reused
        scores[i] = float(np.mean(gmm.log_likelihoods(model_cache[trial.model_id], x) - ubm_ll))
    score_set = TrialScoreSet(trials=trials, scores=scores)
    scores_dir = out_dir / "scores"
    scores_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_scores(scores_dir / "scores.tsv", score_set)
    _snapshot(config, out_dir, "score")
    return score_set


def run_evaluate(config: ExperimentConfig, out_dir) -> metrics.EvaluationReport:
    out_dir = Path(out_dir)
    scores_path = out_dir / "scores" / "scores.tsv"
    if not scores_path.exists():
        raise MissingArtifact(f"{scores_path}: run score first")
    score_set = metrics.read_scores(scores_path)
    report = metrics.evaluate(score_set, config.dcf)
    report_dir = out_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    storage.atomic_write_text(report_dir / "report.txt", metrics.format_report(report) + "\n")
    storage.atomic_write_text(
        report_dir / "report.json",
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    )
    _snapshot(config, out_dir, "evaluate")
    return report


def run_pipeline(
    manifest_path, config: ExperimentConfig, out_dir, trials_path
) -> metrics.EvaluationReport:
    """All stages in order; convenience wrapper used by tests and smoke runs."""
    run_extract_features(manifest_path, config, out_dir)
    run_make_labels(manifest_path, config, out_dir)
    run_train_dnn(manifest_path, config, out_dir)
    run_extract_bn(manifest_path, config, out_dir)
    run_train_ubm(manifest_path, config, out_dir)
    run_enroll(manifest_path, config, out_dir)
    run_score(manifest_path, config, out_dir, trials_path)
    return run_evaluate(config, out_dir)
