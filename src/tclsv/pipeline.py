"""Pipeline stages behind the CLI.

Each stage reads its upstream artifacts from the run directory and writes
its own entry into the new directory ``cli`` opens for it, which replaces the
entry whole once the stage is done.  ``STAGES`` declares the stages in run
order, with the entry each one writes and those it reads:

    features/   per-utterance feature archives + failures.tsv
    labels/     labels.tsv, for a dnn.targets with the tcl head
    dnn/        model.tcln + loss_trace.txt
    bn/         pca.tclp + bottleneck archives for every split but dnn-train
    ubm/        ubm.tclg + ll_trace.txt
    models/     one adapted GMM per enrolled speaker
    scores/     scores.tsv
    report/     report.txt + report.json

and every entry holds config.json, the resolved config of the run that wrote it.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
import traceback
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import BinaryIO, NamedTuple, TypeVar

import numpy as np

from . import gmm, labeling, metrics, network, pca, storage
from .config import ExperimentConfig
from .errors import DataError
from .frontend import cmvn, count_frames, extract_features, read_wav
from .manifest import ManifestEntry, by_split, read_manifest
from .metrics import TrialScoreSet

logger = logging.getLogger(__name__)

T = TypeVar("T")

_FAILURES = Path("features", "failures.tsv")
_UBM = Path("ubm", "ubm.tclg")

# Context-stacked rows per network call in extract-bn.  Whole utterances are
# batched up to this many rows: 1,024 was the fastest size measured (2-core
# x86-64, OpenBLAS 0.3.31), and its float32 batch stays a few MB.
BN_BATCH_ROWS = 1024


class Stage(NamedTuple):
    """A stage's subcommand, the run-directory entry it writes, and the entries it reads.

    ``cli`` runs it as ``pipeline.run_<name>`` (``-`` as ``_``), looked up at
    call time, with ``(manifest_path, trials_path, config, out_dir, into)``:
    the stage reads ``out_dir`` and writes the files of its entry into
    ``into``.  Reading features/failures.tsv counts as reading ``features``.
    Only a stage with ``blas_threads`` keeps OpenBLAS's threads.  The others
    run on one BLAS thread: their matrix products are so small that a second
    thread makes them no faster and costs CPU time.
    """

    name: str
    help: str
    writes: str
    reads: Callable[[ExperimentConfig], set[str]]
    blas_threads: bool = False


def _backend_subdir(config: ExperimentConfig) -> str:
    return "bn" if config.backend.feature_source == "bn" else "features"


STAGES = (
    Stage("extract-features", "compute frontend features for every manifest entry", "features",
          lambda c: set()),
    Stage("make-labels", "assign time-contrastive labels to the dnn-train split", "labels",
          lambda c: {"features"}),
    # only the tcl head reads labels.tsv
    Stage("train-dnn", "train the feature-extraction network", "dnn",
          lambda c: {"features", "labels"} if "tcl" in c.dnn.targets.split("+") else {"features"},
          blas_threads=True),
    Stage("extract-bn", "project deep features to bottleneck features", "bn",
          lambda c: {"features", "dnn"}, blas_threads=True),
    Stage("train-ubm", "train the universal background model", "ubm",
          lambda c: {"features", _backend_subdir(c)}, blas_threads=True),
    Stage("enroll", "MAP-adapt one model per enrolled speaker", "models",
          lambda c: {"features", "ubm", _backend_subdir(c)}),
    # and features/failures.tsv, but only to explain a missing model
    Stage("score", "score a trial list against the enrolled models", "scores",
          lambda c: {"ubm", "models", _backend_subdir(c)}),
    Stage("evaluate", "compute EER/minDCF per trial type from scores", "report",
          lambda c: {"scores"}),
)


def stages_for_run(config: ExperimentConfig) -> list[str]:
    """``run``'s stage names in order: back from report/, every stage whose output a kept stage reads."""
    needed, names = {"report"}, []
    for stage in reversed(STAGES):
        if stage.writes in needed:
            names.insert(0, stage.name)
            needed |= stage.reads(config)
    return names


def _producer(path: Path) -> str:
    """The stage that writes ``path``, a file in a top-level run-directory entry."""
    return next(stage.name for stage in STAGES if stage.writes == path.parent.name)


def _require(path: Path) -> Path:
    """``path`` if the stage that writes it has run, else DataError."""
    if not path.exists():
        raise DataError(f"{path}: run {_producer(path)} first")
    return path


def _check_finite(values: np.ndarray, utterance_id: str, what: str) -> None:
    """DataError naming the utterance unless ``values`` are all finite."""
    if not np.isfinite(values).all():
        raise DataError(f"{utterance_id!r}: non-finite {what}")


def _write_trace(path: Path, values: list[float]) -> None:
    storage.write_rows(path, [[f"{v:.12g}"] for v in values])


def _failed_ids(out_dir: Path) -> set[str]:
    path = out_dir / _FAILURES
    if not path.exists():
        return set()
    return {fields[0] for _, fields in storage.read_rows(path, 2)}


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
        raise DataError(
            f"{path}: no feature archive for {entry.utterance_id!r};"
            f" run {_producer(path)} first or check features/failures.tsv"
        )
    return path


def _num_frames(out_dir: Path, entry: ManifestEntry) -> int:
    """The frame count of ``entry``'s features/ archive, read from its header alone."""
    return storage.read_feature_shape(_feature_path(out_dir, entry))[0]


def _load_frames(
    out_dir: Path, entry: ManifestEntry, subdir: str = "features", ubm_dim: int | None = None
) -> np.ndarray:
    """The frames of ``entry``'s archive in ``subdir``.

    DataError naming the utterance if any frame is non-finite, and, when
    ``ubm_dim`` is given, naming the archive directory and the UBM unless the
    frames have that many columns.
    """
    frames = storage.read_feature_archive(_feature_path(out_dir, entry, subdir))
    _check_finite(frames, entry.utterance_id, f"frames in {subdir}/")
    if ubm_dim is not None and frames.shape[1] != ubm_dim:
        raise DataError(
            f"{out_dir / subdir}/ holds {frames.shape[1]}-dim frames but {out_dir / _UBM} expects"
            f" {ubm_dim}; run train-ubm again"
        )
    return frames


def _share_count(num_items: int) -> int:
    """One share per CPU this process may run on, but no more than ``num_items`` and at least one.

    One share where the OS does not say, or cannot fork.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), num_items))


def _map_share(fn: Callable[[T], object], share: Iterable[T]) -> tuple[list, str | None]:
    """(``fn`` of each item in turn, None), or at the first DataError, (the results before it, its message)."""
    done = []
    for item in share:
        try:
            done.append(fn(item))
        except DataError as exc:
            return done, str(exc)
    return done, None


def _while_parent_lives(items: list[T], parent: int, what: str) -> Iterator[T]:
    """``items``, each yielded only while process ``parent`` is this process's parent."""
    for item in items:
        if os.getppid() != parent:
            raise RuntimeError(f"process {parent}, which forked this {what} worker, has gone")
        yield item


def _fork_share(fn: Callable[[T], object], share: list[T], what: str) -> tuple[int, BinaryIO]:
    """(pid, pipe) of a forked worker that maps ``fn`` over ``share`` and sends the result down the pipe as JSON.

    The worker stops before its next item once the process that forked it
    has gone.  It never returns into the caller: it leaves through
    ``os._exit``, so it writes no snapshot, runs no atexit handler and
    flushes no stdio buffer it inherited.  It exits 0 once the result is
    sent, and 1, after a traceback on stderr, on any error but a DataError.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            result = _map_share(fn, _while_parent_lives(share, parent, what))
            with open(write_fd, "wb") as pipe:
                pipe.write(json.dumps(result).encode("utf-8"))
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)  # else a later worker would inherit it, and this pipe would never reach EOF
    return pid, open(read_fd, "rb")


def _run_shares(fn: Callable[[T], object], items: list[T], what: str) -> list:
    """``[fn(item) for item in items]`` as JSON gives it back (tuples as lists), with that loop's first DataError.

    The items are dealt round-robin into one share per usable CPU
    (:func:`_share_count`): share ``i`` is ``items[i::count]``.  On the
    seed-1 benchmark corpora, two CPUs leave the largest share at most
    0.11 % above the mean WAV bytes.  This process maps the first share and
    forks one worker per other share, so one share forks nothing.  Each
    worker inherits its stage's one BLAS thread, so a result has the same
    bits on any share count.  That thread count also carries the workers'
    speed: with OpenBLAS's two threads in every stage, ``tclsv run`` on the
    seed-1 ``mfcc-k512`` workload took 12.29 s wall / 23.15 s CPU instead of
    2.83 s / 4.13 s (2-core x86-64, OpenBLAS 0.3.31).  A share stops at its
    first DataError; of those, the one of the earliest item is raised, the
    error the serial loop meets first, as every item before it succeeded.
    Any other error, in this process or in a worker, kills and reaps every
    worker and is raised; a worker prints its own error's traceback, and
    here a RuntimeError names the ``what`` worker.
    """
    count = _share_count(len(items))
    first, *others = (items[i::count] for i in range(count))
    # before forking: a worker holds a copy of any line still buffered, and
    # the flush after its traceback would write stderr's copy a second time
    sys.stdout.flush()
    sys.stderr.flush()
    workers: list[tuple[int, BinaryIO]] = []
    try:
        for share in others:
            workers.append(_fork_share(fn, share, what))
        results = [json.loads(json.dumps(_map_share(fn, first)))]
        while workers:
            pid, pipe = workers[0]
            with pipe:  # to EOF before waitpid: a long result fills the pipe buffer
                result = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            if status != 0:
                raise RuntimeError(f"{what} worker {pid} exited with {os.waitstatus_to_exitcode(status)}")
            results.append(json.loads(result))
    finally:
        if workers:
            import signal  # here, so that importing the CLI does not pay for it

            for pid, pipe in workers:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    faults = [(i + len(done) * count, message) for i, (done, message) in enumerate(results) if message is not None]
    if faults:
        raise DataError(min(faults)[1])
    mapped: list = [None] * len(items)
    for i, (done, _) in enumerate(results):
        mapped[i::count] = done
    return mapped


def run_extract_features(
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> list[tuple[str, str]]:
    """Extract frontend features for every manifest entry.

    Per-utterance failures (bad WAV, VAD removing everything, ...) are
    collected into features/failures.tsv instead of aborting the run.
    Returns the sorted failure list.

    The entries are mapped by :func:`_run_shares`, so every archive has the
    same bytes on any CPU count.  The workers write into ``into``.
    """
    entries = read_manifest(manifest_path)
    if not entries:
        logger.warning("manifest has no entries; nothing to extract")

    def extract(entry: ManifestEntry) -> tuple[str | None, int, int]:
        """(None, frames framed, frames VAD kept), or a DataError's message as the utterance's failure."""
        try:
            audio = read_wav(entry.wav_path)
            feats = extract_features(audio, config.frontend, utterance_id=entry.utterance_id)
            storage.write_feature_archive(into / f"{entry.utterance_id}.tclf", feats)
        except DataError as exc:
            # a WAV path in the message may hold a tab or a line break, which write_rows refuses
            return storage.escape_field(str(exc)), 0, 0
        return None, count_frames(audio, config.frontend), feats.shape[0]

    results = _run_shares(extract, entries, "feature extraction")
    failures = sorted((e.utterance_id, msg) for e, (msg, _, _) in zip(entries, results) if msg is not None)
    storage.write_rows(into / _FAILURES.name, failures)
    for utt, msg in failures:
        logger.warning("extraction failed for %s: %s", utt, msg)
    logger.info(
        "extracted %d utterance(s) in %d process(es), %d failed; VAD kept %d of %d frames",
        len(entries) - len(failures), _share_count(len(entries)), len(failures),
        sum(kept for _, _, kept in results), sum(framed for _, framed, _ in results),
    )
    return failures


def run_make_labels(
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> labeling.LabeledFrames:
    """Assign time-contrastive labels to the dnn-train split."""
    # labels depend only on frame counts, which the archive headers hold
    utterances = [
        labeling.FrameCount(e.utterance_id, _num_frames(out_dir, e))
        for e in _usable(read_manifest(manifest_path), out_dir, "dnn-train")
    ]
    labeled = labeling.label_utterances(utterances, config.tcl)
    labeling.write_label_archive(into / "labels.tsv", labeling.labels_by_utterance(labeled))
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
    labels_path = out_dir / "labels" / "labels.tsv"
    num_classes, tables = {}, {}  # per head: number of classes, utterance id -> labels
    num_frames = functools.cache(lambda e: _num_frames(out_dir, e))
    for head in targets.split("+"):
        if head == "tcl":
            num_classes[head] = config.tcl.num_classes
            tables[head] = labeling.read_label_archive(_require(labels_path))
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
        frames = _load_frames(out_dir, entry)
        for head, vec in vecs.items():
            # stream mode may label only a prefix; anything else must match exactly
            too_long = len(vec) > len(frames)
            where = f"{labels_path}: {entry.utterance_id}"  # only a tcl head's labels can be wrong
            if too_long or (config.tcl.mode == "utterance" and len(vec) != len(frames)):
                raise DataError(f"{where}: {len(vec)} labels for {len(frames)} frames")
            bad = vec[(vec < 0) | (vec >= num_classes[head])]
            if bad.size:
                raise DataError(f"{where}: label {bad[0]} out of range for {num_classes[head]} classes")
            parts[head].append(vec)
        utterances.append((frames.astype(np.float32), len(vec)))  # every head labels these rows
    if not utterances:
        raise DataError(f"no labeled training frames; check {labels_path}")

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
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> tuple[network.NetworkParams, list[float]]:
    entries = _usable(read_manifest(manifest_path), out_dir, "dnn-train")
    dataset, arch = _build_training_dataset(entries, config, out_dir)
    params, trace = network.train(dataset, arch, config.dnn)
    storage.write_network(into / "model.tcln", params)
    _write_trace(into / "loss_trace.txt", trace)
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
            frames = _load_frames(out_dir, entry).astype(np.float32)
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
            _check_finite(utt, entry.utterance_id, f"layer {config.bn.layer} outputs")
            yield entry, cmvn(utt.astype(np.float64))


def run_extract_bn(
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> pca.PcaModel:
    """Deep features at the configured layer -> per-utterance CMVN -> PCA projection.

    Only the network's layers up to ``bn.layer`` are read, and they run in
    float32; their outputs go back to float64 for CMVN and PCA.

    The projection is fitted on the pooled normalized frames of the
    ubm-train utterances, the split train-ubm reads, then applied to every
    utterance except the dnn-train split, which no later stage reads.  The
    pooled matrix is freed before the eigendecomposition, so the ubm-train
    split goes through the network a second time to be projected like every
    other utterance, with the same bits.  Non-finite network outputs raise
    DataError naming the utterance before the PCA fit sees them and before
    that utterance's archive is written.
    """
    params = storage.read_network(_require(out_dir / "dnn" / "model.tcln"), np.float32, config.bn.layer)
    entries = _usable([e for e in read_manifest(manifest_path) if e.split != "dnn-train"], out_dir)
    fit_entries = _usable(entries, out_dir, "ubm-train")

    # The ubm-train split's normalized deep features, pooled in manifest
    # order into one matrix sized from the archive headers.
    offsets = np.cumsum([0] + [_num_frames(out_dir, e) for e in fit_entries])
    width = params.arch.hidden_layers[params.arch.layer_index(config.bn.layer)]
    pooled = np.empty((offsets[-1], width))
    for i, (_, deep) in enumerate(_normalized_deep_features(params, fit_entries, config, out_dir)):
        pooled[offsets[i] : offsets[i + 1]] = deep
    mean, cov = pca.covariance(pooled, config.bn.pca_dim)
    del pooled  # eigh's workspace is about as large
    projection = pca.fit_pca(mean, cov, config.bn.pca_dim)

    storage.write_pca(into / "pca.tclp", projection)
    for entry, deep in _normalized_deep_features(params, entries, config, out_dir):
        storage.write_feature_archive(into / f"{entry.utterance_id}.tclf", pca.project(projection, deep))
    return projection


def run_train_ubm(
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> tuple[gmm.GmmModel, list[float]]:
    ubm_entries = _usable(read_manifest(manifest_path), out_dir, "ubm-train")
    subdir = _backend_subdir(config)
    frames = np.vstack([_load_frames(out_dir, e, subdir) for e in ubm_entries])
    model, trace = gmm.train_ubm(
        frames,
        config.backend.num_mixtures,
        config.backend.em_iterations,
        seed=config.backend.init_seed or 0,
    )
    storage.write_gmm(into / "ubm.tclg", model)
    _write_trace(into / "ll_trace.txt", trace)
    return model, trace


def run_enroll(manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path) -> list[str]:
    """MAP-adapt one model per speaker from their pooled enrollment utterances."""
    ubm = storage.read_gmm(_require(out_dir / _UBM))
    enroll_entries = _usable(read_manifest(manifest_path), out_dir, "enroll")
    speakers = sorted({e.speaker_id for e in enroll_entries})
    subdir = _backend_subdir(config)
    for speaker in speakers:
        frames = np.vstack([
            _load_frames(out_dir, e, subdir, ubm.dim) for e in enroll_entries if e.speaker_id == speaker
        ])
        storage.write_gmm(into / f"{speaker}.tclg", gmm.map_adapt(ubm, frames, config.backend))
    return speakers


def _missing_model(
    model_id: str, model_path: Path, entries: list[ManifestEntry], out_dir: Path, trials_path: Path
) -> DataError:
    """Why ``model_id`` has no model: no enroll rows, all of them failed, or enroll has not run."""
    message = f"{trials_path}: no enrolled model for {model_id!r}"
    enroll_ids = {e.utterance_id for e in by_split(entries, "enroll") if e.speaker_id == model_id}
    if not enroll_ids:
        return DataError(f"{message}: the manifest has no enroll utterance for it")
    if enroll_ids <= _failed_ids(out_dir):
        return DataError(
            f"{message}: all {len(enroll_ids)} of its enroll utterance(s) are listed in"
            f" {out_dir / _FAILURES}"
        )
    return DataError(f"{message} ({model_path}); run {_producer(model_path)} first")


def run_score(manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path) -> TrialScoreSet:
    """The average per-frame LLR of each trial, written in trial order.

    Every trial must test an utterance of the test split: each other split
    trains the network, the PCA and UBM, or the speaker models.

    Trials are scored one test utterance at a time, by one ``gmm.score_llr``
    call that evaluates the UBM and the frames' variance term once for every
    model the utterance is tried against.  Every model shares that term:
    mean-only MAP keeps the UBM's weights and variances, and a model without
    them is rejected.

    The test utterances, in first-trial order, are mapped by
    :func:`_run_shares`, so every score has the same bits on any CPU count
    and the error raised is the one scoring in trial order meets first.
    Each process reads an utterance's frames, then its models through its own
    cache, in trial order.  Only this process writes scores.tsv.
    """
    ubm_path = _require(out_dir / _UBM)
    ubm = storage.read_gmm(ubm_path)
    entries = read_manifest(manifest_path)
    by_id = {e.utterance_id: e for e in entries}
    trials = metrics.read_trials(trials_path)

    by_test: dict[str, list[int]] = {}
    for i, trial in enumerate(trials):
        by_test.setdefault(trial.test_utterance_id, []).append(i)
    for utt in by_test:
        entry = by_id.get(utt)
        if entry is None:
            raise DataError(f"{trials_path}: trial references utterance {utt!r} which is not in the manifest")
        if entry.split != "test":
            raise DataError(
                f"{trials_path}: trial tests utterance {utt!r} of the {entry.split} split;"
                " only test utterances are scored"
            )

    subdir = _backend_subdir(config)
    model_cache: dict[str, gmm.GmmModel] = {}  # per process: a forked worker fills its own copy

    def score(utt: str) -> list[float]:
        """The scores of ``utt``'s trials, in trial order."""
        x = _load_frames(out_dir, by_id[utt], subdir, ubm.dim)
        if x.shape[0] == 0:
            raise DataError(f"{utt}: utterance has no frames")
        targets = []
        for i in by_test[utt]:
            model_id = trials[i].model_id
            if model_id not in model_cache:
                model_path = out_dir / "models" / f"{model_id}.tclg"
                if not model_path.exists():
                    raise _missing_model(model_id, model_path, entries, out_dir, trials_path)
                model = storage.read_gmm(model_path)
                if not (np.array_equal(model.weights, ubm.weights)
                        and np.array_equal(model.variances, ubm.variances)):
                    raise DataError(f"{model_path}: weights or variances differ from {ubm_path}; run enroll again")
                # on the UBM's own arrays, so a cached model holds only its
                # means and their terms, and shares the UBM's variance term
                model_cache[model_id] = gmm.GmmModel(ubm.weights, model.means, ubm.variances)
            targets.append(model_cache[model_id])
        return gmm.score_llr(targets, ubm, x).tolist()

    scores = np.empty(len(trials))
    for utt, utt_scores in zip(by_test, _run_shares(score, list(by_test), "score")):
        scores[by_test[utt]] = utt_scores
    logger.info(
        "scored %d trial(s) of %d test utterance(s) in %d process(es)",
        len(trials), len(by_test), _share_count(len(by_test)),
    )
    score_set = TrialScoreSet(trials=trials, scores=scores)
    metrics.write_scores(into / "scores.tsv", score_set)
    return score_set


def run_evaluate(
    manifest_path, trials_path, config: ExperimentConfig, out_dir: Path, into: Path
) -> metrics.EvaluationReport:
    scores_path = _require(out_dir / "scores" / "scores.tsv")
    report = metrics.evaluate(metrics.read_scores(scores_path), config.dcf, source=scores_path)
    storage.atomic_write_text(into / "report.txt", metrics.format_report(report) + "\n")
    storage.atomic_write_text(into / "report.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return report
