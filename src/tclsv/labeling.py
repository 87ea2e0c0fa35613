"""Time-contrastive labeling: unsupervised class labels from temporal segmentation.

Two strategies: stream-wise (concatenate utterances in a seeded random order,
cut the stream into fixed-length segments, assign classes cyclically) and
utterance-wise (divide each utterance into one contiguous segment per class).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import storage
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TclConfig:
    """The ``tcl`` config section.  A ``None`` seed reads as 0."""

    num_classes: int = 10
    frames_per_segment: int = 6
    mode: str = "utterance"
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise DataError("tcl.num_classes must be >= 2")
        if self.frames_per_segment < 1:
            raise DataError("tcl.frames_per_segment must be >= 1")
        if self.mode not in ("stream", "utterance"):
            raise DataError(f"tcl.mode: unknown TCL mode {self.mode!r}")


class FrameCount(NamedTuple):
    """An utterance as labeling reads it: its id and frame count.

    Labels depend only on frame positions, so this is all the labeling
    functions use.
    """

    utterance_id: str
    num_frames: int


@dataclass(frozen=True)
class LabeledFrames:
    """One class label per frame of the concatenated utterances.

    Labels depend only on frame positions, so no frame values are kept.
    ``utterance_boundaries[k] : utterance_boundaries[k+1]`` is the slice of
    ``labels`` belonging to ``utterance_ids[k]``; utterances whose frames were
    all dropped appear as empty slices.
    """

    labels: np.ndarray
    utterance_boundaries: list[int]
    utterance_ids: list[str]

    @property
    def num_frames(self) -> int:
        return len(self.labels)


def assign_stream_labels(utterances: list[FrameCount], config: TclConfig) -> LabeledFrames:
    """Stream-wise labeling: segment j of the shuffled stream gets class j mod N.

    Utterance order is shuffled by ``config.shuffle_seed`` (frames within an
    utterance are never reordered).  The trailing partial segment (< d frames)
    is dropped; a final group with fewer than N segments keeps its cyclic labels.
    """
    d = config.frames_per_segment
    total = sum(u.num_frames for u in utterances)
    if total < d:
        raise DataError(f"stream has {total} frames, need at least {d}")

    order = np.random.default_rng(config.shuffle_seed or 0).permutation(len(utterances))
    num_labeled = (total // d) * d

    segment_index = np.arange(num_labeled) // d
    labels = segment_index % config.num_classes

    boundaries = [0]
    ids = []
    for i in order:
        end = min(boundaries[-1] + utterances[i].num_frames, num_labeled)
        boundaries.append(end)
        ids.append(utterances[i].utterance_id)
    return LabeledFrames(
        labels=labels.astype(np.int64),
        utterance_boundaries=boundaries,
        utterance_ids=ids,
    )


def assign_utterance_labels(utterance: FrameCount, num_classes: int) -> LabeledFrames:
    """Utterance-wise labeling: N contiguous segments, segment n gets class n.

    Segment lengths differ by at most one; the first ``T mod N`` segments are
    one frame longer.
    """
    T = utterance.num_frames
    if T < num_classes:
        raise DataError(
            f"utterance {utterance.utterance_id!r} has {T} frames, need >= {num_classes}"
        )
    base, extra = divmod(T, num_classes)
    lengths = [base + 1 if n < extra else base for n in range(num_classes)]
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), lengths)
    return LabeledFrames(
        labels=labels,
        utterance_boundaries=[0, T],
        utterance_ids=[utterance.utterance_id],
    )


def label_utterances(utterances: list[FrameCount], config: TclConfig) -> LabeledFrames:
    """Label a dataset with the configured strategy.

    In utterance mode, utterances shorter than ``num_classes`` frames are
    skipped with a warning instead of failing the whole run.
    """
    if config.mode == "stream":
        return assign_stream_labels(utterances, config)

    parts = []
    for utt in utterances:
        if utt.num_frames < config.num_classes:
            logger.warning(
                "skipping %r: %d frames < %d classes",
                utt.utterance_id, utt.num_frames, config.num_classes,
            )
            continue
        parts.append(assign_utterance_labels(utt, config.num_classes))
    if not parts:
        raise DataError("no utterance was long enough to label")
    boundaries = [0]
    ids = []
    for part in parts:
        boundaries.append(boundaries[-1] + part.num_frames)
        ids.append(part.utterance_ids[0])
    return LabeledFrames(
        labels=np.concatenate([p.labels for p in parts]),
        utterance_boundaries=boundaries,
        utterance_ids=ids,
    )


def summarize_label_distribution(labeled: LabeledFrames, num_classes: int) -> dict[int, int]:
    """Per-class frame counts; counts sum to the number of labeled frames."""
    counts = dict.fromkeys(range(num_classes), 0)
    values, freq = np.unique(labeled.labels, return_counts=True)
    for v, f in zip(values, freq):
        counts[int(v)] = int(f)
    return counts


def labels_by_utterance(labeled: LabeledFrames) -> dict[str, np.ndarray]:
    """Split the per-frame labels back into per-utterance vectors."""
    out = {}
    for k, utt_id in enumerate(labeled.utterance_ids):
        start, end = labeled.utterance_boundaries[k], labeled.utterance_boundaries[k + 1]
        out[utt_id] = labeled.labels[start:end]
    return out


def write_label_archive(path: str | Path, labels: dict[str, np.ndarray]) -> None:
    """One line per utterance: ``<utterance_id>\\t<space-separated labels>``."""
    storage.write_rows(path, [(utt_id, " ".join(map(str, vec.tolist()))) for utt_id, vec in labels.items()])


def read_label_archive(path: str | Path) -> dict[str, np.ndarray]:
    out = {}
    for lineno, (utt_id, payload) in storage.read_rows(path, 2):
        try:
            vec = np.array([int(v) for v in payload.split()], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: labels of {utt_id!r}: {exc}") from None
        if utt_id in out:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        out[utt_id] = vec
    return out
