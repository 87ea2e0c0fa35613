"""Pipeline stages behind the CLI.

Each stage reads its upstream artifacts from the run directory, writes its own
outputs there and drops a resolved-config snapshot next to them, so a finished
run directory documents exactly how it was produced:

    features/   per-utterance feature archives + failures.tsv
    labels/     labels.tsv, for a dnn.targets with the tcl head
    dnn/        model.tcln + loss_trace.txt
    bn/         pca.tclp + bottleneck archives for every split but dnn-train
    ubm/        ubm.tclg + ll_trace.txt
    models/     one adapted GMM per enrolled speaker
    scores/     scores.tsv
    report/     report.txt + report.json
    config/     one snapshot per executed stage
"""

from __future__ import annotations

import functools
import json
import logging
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import gmm, labeling, metrics, network, pca, storage
from .config import ExperimentConfig, write_snapshot
from .errors import DataError, DimensionMismatch, EmptyUtterance, MissingArtifact
from .frontend import FeatureMatrix, cmvn, extract_features, read_wav
from .manifest import ManifestEntry, by_split, read_manifest
from .metrics import TrialScoreSet

logger = logging.getLogger(__name__)

_FAILURES = Path("features", "failures.tsv")

# Context-stacked rows per network call in extract-bn.  Whole utterances are
# batched up to this many rows: 1,024 was the fastest size measured (2-core
# x86-64, OpenBLAS 0.3.31), and its float32 batch stays a few MB.
BN_BATCH_ROWS = 1024


def _output_dir(out_dir: Path, name: str) -> Path:
    path = out_dir / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path, stage: str) -> Path:
    """``path`` if the upstream ``stage`` has written it, else MissingArtifact."""
    if not path.exists():
        raise MissingArtifact(f"{path}: run {stage} first")
    return path


def _check_finite(values: np.ndarray, stage: str, utterance_id: str, what: str) -> None:
    """DataError naming ``stage`` and the utterance unless ``values`` are all finite."""
    if not np.isfinite(values).all():
        raise DataError(f"{stage}: {utterance_id!r}: non-finite {what}")


def _write_trace(path: Path, values: list[float]) -> None:
    storage.atomic_write_text(path, "".join(f"{v:.12g}\n" for v in values))


def _snapshot(config: ExperimentConfig, out_dir: Path, stage: str) -> None:
    write_snapshot(_output_dir(out_dir, "config") / f"{stage}.json", config)


def _failed_ids(out_dir: Path) -> set[str]:
    path = out_dir / _FAILURES
    if not path.exists():
        return set()
    return {
        line.split("\t", 1)[0]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    }


def _usable(
    entries: list[ManifestEntry], out_dir: Path, split: str | None = None
) -> list[ManifestEntry]:
    """The entries (of ``split`` when given) whose feature extraction did not fail.

    The dropped entries get one warning between them.  An empty ``split``
    raises DataError.
    """
    if split is not None:
        entries = by_split(entries, split)
    failed = _failed_ids(out_dir)
    kept = [e for e in entries if e.utterance_id not in failed]
    if len(kept) < len(entries):
        logger.warning(
            "skipping %d utterance(s) listed in %s", len(entries) - len(kept), out_dir / _FAILURES
        )
    if not kept and split is not None:
        raise DataError(f"manifest has no usable {split} utterances")
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
    feat_dir = _output_dir(out_dir, "features")
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
        out_dir / _FAILURES,
        "".join(f"{utt}\t{msg}\n" for utt, msg in failures),
    )
    for utt, msg in failures:
        logger.warning("extraction failed for %s: %s", utt, msg)
    _snapshot(config, out_dir, "extract-features")
    return failures


def run_make_labels(manifest_path, config: ExperimentConfig, out_dir) -> labeling.LabeledFrames:
    """Assign time-contrastive labels to the dnn-train split."""
    out_dir = Path(out_dir)
    # labels depend only on frame counts, which the archive headers hold
    utterances = []
    for e in _usable(read_manifest(manifest_path), out_dir, "dnn-train"):
        num_frames, _ = storage.read_feature_shape(_feature_path(out_dir, e))
        utterances.append(labeling.FrameCount(e.utterance_id, num_frames))
    labeled = labeling.label_utterances(utterances, config.tcl)
    labeling.write_label_archive(
        _output_dir(out_dir, "labels") / "labels.tsv", labeling.labels_by_utterance(labeled)
    )
    _snapshot(config, out_dir, "make-labels")
    return labeled


def _build_training_dataset(
    train_entries: list[ManifestEntry], config: ExperimentConfig, out_dir: Path
) -> tuple[network.LabeledDataset, network.NetworkArch]:
    """Context-stacked frames of the dnn-train entries plus labels for each dnn.targets head.

    Each head maps an utterance id to its frame labels: ``tcl`` to its vector
    in labels.tsv, ``speaker`` and ``phrase`` to the sorted index of the
    entry's ``<head>_id``, repeated over its frames (counted from the archive
    headers).  Utterances some head has no labels for are skipped.  The frames
    are cast to float32 once, here, so the network trains in float32.
    """
    targets = config.dnn.targets
    num_classes, tables = {}, {}  # per head: number of classes, utterance id -> labels
    num_frames = functools.cache(lambda e: storage.read_feature_shape(_feature_path(out_dir, e))[0])
    for head in targets.split("+"):
        if head == "tcl":
            labels_path = _require(out_dir / "labels" / "labels.tsv", "make-labels")
            num_classes[head] = config.tcl.num_classes
            tables[head] = labeling.read_label_archive(labels_path)
            continue
        ids = [getattr(e, f"{head}_id") for e in train_entries]
        if None in ids:
            raise DataError(f"dnn.targets {targets!r} needs {head}_id on every dnn-train row")
        index = {v: i for i, v in enumerate(sorted(set(ids)))}
        num_classes[head], tables[head] = len(index), {
            e.utterance_id: np.full(num_frames(e), index[v]) for e, v in zip(train_entries, ids)
        }

    utterances: list[tuple[np.ndarray, int]] = []  # (frames, rows kept)
    parts: dict[str, list[np.ndarray]] = {head: [] for head in tables}
    for entry in train_entries:
        vecs = {head: table.get(entry.utterance_id) for head, table in tables.items()}
        if any(vec is None or len(vec) == 0 for vec in vecs.values()):
            continue  # skipped as too short, or truncated away in stream mode
        feats = _load_features(out_dir, entry)
        for head, vec in vecs.items():
            # stream mode may label only a prefix; anything else must match exactly
            too_long = len(vec) > feats.num_frames
            if too_long or (config.tcl.mode == "utterance" and len(vec) != feats.num_frames):
                raise DimensionMismatch(
                    f"{entry.utterance_id}: {len(vec)} labels for {feats.num_frames} frames"
                )
            if vec.max() >= num_classes[head]:
                raise DataError(
                    f"{entry.utterance_id}: label {vec.max()} out of range for"
                    f" {num_classes[head]} classes"
                )
            parts[head].append(vec)
        utterances.append((feats.frames.astype(np.float32), len(vec)))  # every head labels these rows
    if not utterances:
        raise DataError("no labeled training frames; check labels.tsv")

    inputs = network.context_windows(utterances, config.dnn.context_left, config.dnn.context_right)
    arch = network.NetworkArch(
        input_dim=inputs.shape[1],
        hidden_layers=config.dnn.hidden_layers,
        output_heads=tuple(num_classes.items()),
    )
    labels = {head: np.concatenate(vecs) for head, vecs in parts.items()}
    return network.LabeledDataset(inputs=inputs, labels=labels), arch


def loss_trace_summary(trace: list[float]) -> str:
    """The first and last epoch's mean training loss, and the number of epochs."""
    if len(trace) == 1:
        return f"{trace[0]:.6f} over 1 epoch"
    return f"{trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace)} epochs"


def run_train_dnn(
    manifest_path, config: ExperimentConfig, out_dir
) -> tuple[network.NetworkParams, list[float]]:
    out_dir = Path(out_dir)
    entries = _usable(read_manifest(manifest_path), out_dir, "dnn-train")
    dataset, arch = _build_training_dataset(entries, config, out_dir)
    params, trace = network.train(dataset, arch, config.dnn)
    dnn_dir = _output_dir(out_dir, "dnn")
    storage.write_network(dnn_dir / "model.tcln", params)
    _write_trace(dnn_dir / "loss_trace.txt", trace)
    logger.info("dnn loss %s", loss_trace_summary(trace))
    _snapshot(config, out_dir, "train-dnn")
    return params, trace


def _normalized_deep_features(
    params: network.NetworkParams,
    entries: list[ManifestEntry],
    config: ExperimentConfig,
    out_dir: Path,
) -> Iterator[tuple[ManifestEntry, np.ndarray]]:
    """(entry, CMVN'd float64 deep features) for each entry, in order.

    The network sees batches of whole utterances of up to ``BN_BATCH_ROWS``
    rows, gathered from a lazy ``network.context_windows``; an utterance
    longer than that is split into near-equal pieces.  A GEMM computes each
    row from that row alone, so every row gets the bits that extracting its
    utterance on its own gives; the one exception is a one-frame utterance,
    which numpy alone would compute with GEMV.
    """
    left, right = config.dnn.context_left, config.dnn.context_right

    def batches() -> Iterator[list[tuple[ManifestEntry, np.ndarray]]]:
        batch, rows = [], 0
        for entry in entries:
            frames = _load_features(out_dir, entry).frames.astype(np.float32)
            if batch and rows + len(frames) > BN_BATCH_ROWS:
                yield batch
                batch, rows = [], 0
            batch.append((entry, frames))
            rows += len(frames)
        if batch:
            yield batch

    for batch in batches():
        windows = network.context_windows([(f, len(f)) for _, f in batch], left, right)
        pieces = -(-len(windows) // BN_BATCH_ROWS)
        bounds = [len(windows) * i // pieces for i in range(pieces + 1)]
        parts = [
            network.extract_deep_features(params, windows[a:b], config.bn.layer)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        deep = parts[0] if len(parts) == 1 else np.concatenate(parts)
        start = 0
        for entry, frames in batch:
            utt = deep[start : start + len(frames)]
            start += len(frames)
            _check_finite(utt, "extract-bn", entry.utterance_id, f"layer {config.bn.layer} outputs")
            feats = FeatureMatrix(frames=utt.astype(np.float64), utterance_id=entry.utterance_id)
            yield entry, cmvn(feats).frames


def run_extract_bn(manifest_path, config: ExperimentConfig, out_dir) -> pca.PcaModel:
    """Deep features at the configured layer -> per-utterance CMVN -> PCA projection.

    The network runs in float32; its outputs go back to float64 for CMVN and PCA.

    The projection is fitted on the pooled normalized frames of the
    ``bn.fit_split`` utterances, then applied to every utterance except the
    dnn-train split, which no later stage reads.  Non-finite network outputs
    raise DataError naming the utterance before the PCA fit sees them and
    before that utterance's archive is written.
    """
    out_dir = Path(out_dir)
    params = storage.read_network(_require(out_dir / "dnn" / "model.tcln", "train-dnn"))
    params = params.astype(np.float32)
    skip = () if config.bn.fit_split == "dnn-train" else ("dnn-train",)  # no later stage reads it
    entries = _usable([e for e in read_manifest(manifest_path) if e.split not in skip], out_dir)
    fit_entries = _usable(entries, out_dir, config.bn.fit_split)

    # The fit split's normalized deep features, pooled in manifest order into
    # one matrix sized from the archive headers.
    offsets = np.cumsum(
        [0] + [storage.read_feature_shape(_feature_path(out_dir, e))[0] for e in fit_entries]
    )
    width = params.arch.hidden_layers[params.arch.layer_index(config.bn.layer)]
    pooled = np.empty((offsets[-1], width))
    for i, (_, deep) in enumerate(_normalized_deep_features(params, fit_entries, config, out_dir)):
        pooled[offsets[i] : offsets[i + 1]] = deep
    projection = pca.fit_pca(pooled, config.bn.pca_dim, center_in_place=True)

    bn_dir = _output_dir(out_dir, "bn")
    storage.write_pca(bn_dir / "pca.tclp", projection)

    def write(entry: ManifestEntry, bn: np.ndarray) -> None:
        storage.write_feature_archive(
            bn_dir / f"{entry.utterance_id}.tclf",
            FeatureMatrix(frames=bn, utterance_id=entry.utterance_id),
        )

    if config.bn.fit_split != "dnn-train":
        # pooled now holds x - mean, so this is project()'s (x - mean) @ basis.T
        for i, entry in enumerate(fit_entries):
            write(entry, pooled[offsets[i] : offsets[i + 1]] @ projection.basis.T)
    del pooled
    rest = [e for e in entries if e.split != config.bn.fit_split]
    for entry, deep in _normalized_deep_features(params, rest, config, out_dir):
        write(entry, pca.project(projection, deep))
    _snapshot(config, out_dir, "extract-bn")
    return projection


def run_train_ubm(
    manifest_path, config: ExperimentConfig, out_dir
) -> tuple[gmm.GmmModel, list[float]]:
    out_dir = Path(out_dir)
    ubm_entries = _usable(read_manifest(manifest_path), out_dir, "ubm-train")
    subdir = _backend_subdir(config)
    parts = []
    for entry in ubm_entries:
        parts.append(_load_features(out_dir, entry, subdir).frames)
        _check_finite(parts[-1], "train-ubm", entry.utterance_id, f"frames in {subdir}/")
    frames = np.vstack(parts)
    del parts
    model, trace = gmm.train_ubm(
        frames,
        config.backend.num_mixtures,
        config.backend.em_iterations,
        seed=config.backend.init_seed or 0,
    )
    ubm_dir = _output_dir(out_dir, "ubm")
    storage.write_gmm(ubm_dir / "ubm.tclg", model)
    _write_trace(ubm_dir / "ll_trace.txt", trace)
    _snapshot(config, out_dir, "train-ubm")
    return model, trace


def run_enroll(manifest_path, config: ExperimentConfig, out_dir) -> list[str]:
    """MAP-adapt one model per speaker from their pooled enrollment utterances."""
    out_dir = Path(out_dir)
    ubm = storage.read_gmm(_require(out_dir / "ubm" / "ubm.tclg", "train-ubm"))
    enroll_entries = _usable(read_manifest(manifest_path), out_dir, "enroll")
    subdir = _backend_subdir(config)
    models_dir = _output_dir(out_dir, "models")
    speakers = sorted({e.speaker_id for e in enroll_entries})
    for speaker in speakers:
        frames = np.vstack(
            [
                _load_features(out_dir, e, subdir).frames
                for e in enroll_entries
                if e.speaker_id == speaker
            ]
        )
        adapted = gmm.map_adapt(ubm, frames, config.backend)
        storage.write_gmm(models_dir / f"{speaker}.tclg", adapted)
    _snapshot(config, out_dir, "enroll")
    return speakers


def _missing_model(
    model_id: str, model_path: Path, entries: list[ManifestEntry], out_dir: Path
) -> DataError:
    """Why ``model_id`` has no model: no enroll rows, all of them failed, or enroll has not run."""
    message = f"no enrolled model for {model_id!r}"
    enroll_ids = {e.utterance_id for e in by_split(entries, "enroll") if e.speaker_id == model_id}
    if not enroll_ids:
        return DataError(f"{message}: the manifest has no enroll utterance for it")
    if enroll_ids <= _failed_ids(out_dir):
        return DataError(
            f"{message}: all {len(enroll_ids)} of its enroll utterance(s) are listed in"
            f" {out_dir / _FAILURES}"
        )
    return MissingArtifact(f"{message} ({model_path}); run enroll first")


def run_score(manifest_path, config: ExperimentConfig, out_dir, trials_path) -> TrialScoreSet:
    """The average per-frame LLR of each trial, written in trial order.

    Trials are scored one test utterance at a time.  The UBM is evaluated once
    per test utterance, and the frames' variance term once per test utterance
    for the UBM and every model with the UBM's variances (mean-only MAP keeps
    them), so only one utterance's frames and terms are held at a time.
    """
    out_dir = Path(out_dir)
    ubm = storage.read_gmm(_require(out_dir / "ubm" / "ubm.tclg", "train-ubm"))
    entries = read_manifest(manifest_path)
    by_id = {e.utterance_id: e for e in entries}
    trials = metrics.read_trials(trials_path)
    subdir = _backend_subdir(config)

    by_test: dict[str, list[int]] = {}
    for i, trial in enumerate(trials):
        by_test.setdefault(trial.test_utterance_id, []).append(i)
    for utt in by_test:
        entry = by_id.get(utt)
        if entry is None:
            raise DataError(f"trial references utterance {utt!r} which is not in the manifest")
        if entry.split == "dnn-train":
            raise DataError(
                f"trial tests utterance {utt!r} of the dnn-train split;"
                f" pass-phrases that trained the network cannot be scored"
            )

    # model id -> (model, whether it shares the UBM's variances)
    model_cache: dict[str, tuple[gmm.GmmModel, bool]] = {}
    scores = np.empty(len(trials))
    for utt, indices in by_test.items():
        x = _load_features(out_dir, by_id[utt], subdir).frames
        if x.shape[0] == 0:
            raise EmptyUtterance(f"{utt}: utterance has no frames")
        var_term = gmm.variance_term(ubm, x)
        ubm_ll = gmm.log_likelihoods(ubm, x, var_term)
        for i in indices:
            model_id = trials[i].model_id
            if model_id not in model_cache:
                model_path = out_dir / "models" / f"{model_id}.tclg"
                if not model_path.exists():
                    raise _missing_model(model_id, model_path, entries, out_dir)
                model = storage.read_gmm(model_path)
                model_cache[model_id] = (model, np.array_equal(model.variances, ubm.variances))
            model, shared = model_cache[model_id]
            # the same arithmetic as gmm.score_llr, with the UBM terms reused
            ll = gmm.log_likelihoods(model, x, var_term if shared else None)
            scores[i] = float(np.mean(ll - ubm_ll))
    score_set = TrialScoreSet(trials=trials, scores=scores)
    metrics.write_scores(_output_dir(out_dir, "scores") / "scores.tsv", score_set)
    _snapshot(config, out_dir, "score")
    return score_set


def run_evaluate(config: ExperimentConfig, out_dir) -> metrics.EvaluationReport:
    out_dir = Path(out_dir)
    score_set = metrics.read_scores(_require(out_dir / "scores" / "scores.tsv", "score"))
    report = metrics.evaluate(score_set, config.dcf)
    report_dir = _output_dir(out_dir, "report")
    storage.atomic_write_text(report_dir / "report.txt", metrics.format_report(report) + "\n")
    storage.atomic_write_text(
        report_dir / "report.json",
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    )
    _snapshot(config, out_dir, "evaluate")
    return report
