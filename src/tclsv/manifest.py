"""Corpus manifests: utterance inventory with speaker, phrase and split labels.

Tab-separated text with a header line.  Columns: utterance_id, wav_path,
speaker_id, phrase_id (may be empty), split.  WAV paths are resolved relative
to the manifest's directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from . import storage
from .errors import DataError

SPLITS = ("dnn-train", "ubm-train", "enroll", "test")
COLUMNS = ("utterance_id", "wav_path", "speaker_id", "phrase_id", "split")

ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    wav_path: Path
    speaker_id: str
    phrase_id: str | None
    split: str


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Parse and lint a manifest file.

    Lint rules: unique utterance ids, known split names, ids safe for use as
    file names, and no phrase shared between the dnn-train split and the
    enroll/test splits (features learned on a phrase must not verify it).
    """
    path = Path(path)
    rows = storage.read_rows(path, len(COLUMNS))
    _, header = next(rows, (None, None))
    if header is None:
        raise DataError(f"{path}: empty manifest, expected a header line")
    if tuple(header) != COLUMNS:
        raise DataError(f"{path}: header {tuple(header)} does not match {COLUMNS}")
    entries = []
    seen = set()
    for lineno, fields in rows:
        utt_id, wav_path, speaker_id, phrase_id, split = fields
        if not ID_PATTERN.match(utt_id):
            raise DataError(f"{path}:{lineno}: bad utterance_id {utt_id!r}")
        if not ID_PATTERN.match(speaker_id):
            raise DataError(f"{path}:{lineno}: bad speaker_id {speaker_id!r}")
        if phrase_id and not ID_PATTERN.match(phrase_id):
            raise DataError(f"{path}:{lineno}: bad phrase_id {phrase_id!r}")
        if "\0" in wav_path:  # no file system allows a NUL in a path
            raise DataError(f"{path}:{lineno}: NUL byte in wav_path {wav_path!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: unknown split {split!r}, expected one of {SPLITS}")
        if utt_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance_id {utt_id!r}")
        seen.add(utt_id)
        entries.append(ManifestEntry(utt_id, path.parent / wav_path, speaker_id, phrase_id or None, split))
    lint_phrase_exclusion(entries, source=str(path))
    return entries


def lint_phrase_exclusion(entries: list[ManifestEntry], source: str = "manifest") -> None:
    """Reject manifests where a dnn-train phrase also appears in enroll/test."""
    train_phrases = {e.phrase_id for e in entries if e.split == "dnn-train" and e.phrase_id}
    eval_phrases = {
        e.phrase_id for e in entries if e.split in ("enroll", "test") and e.phrase_id
    }
    shared = sorted(train_phrases & eval_phrases)
    if shared:
        raise DataError(
            f"{source}: phrases {shared} appear in both dnn-train and enroll/test splits"
        )


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    path = Path(path)
    rows = [COLUMNS]
    for e in entries:
        wav = e.wav_path.relative_to(path.parent) if e.wav_path.is_relative_to(path.parent) else e.wav_path
        rows.append((e.utterance_id, str(wav), e.speaker_id, e.phrase_id or "", e.split))
    storage.write_rows(path, rows)


def by_split(entries: list[ManifestEntry], split: str) -> list[ManifestEntry]:
    return [e for e in entries if e.split == split]
