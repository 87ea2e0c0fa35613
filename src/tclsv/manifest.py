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

_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


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
    lines = storage.read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest, expected a header line")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != COLUMNS:
        raise DataError(f"{path}: header {header} does not match {COLUMNS}")
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            raise DataError(f"{path}:{lineno}: expected {len(COLUMNS)} fields")
        utt_id, wav_path, speaker_id, phrase_id, split = fields
        if not _ID_PATTERN.match(utt_id):
            raise DataError(f"{path}:{lineno}: bad utterance_id {utt_id!r}")
        if not _ID_PATTERN.match(speaker_id):
            raise DataError(f"{path}:{lineno}: bad speaker_id {speaker_id!r}")
        if phrase_id and not _ID_PATTERN.match(phrase_id):
            raise DataError(f"{path}:{lineno}: bad phrase_id {phrase_id!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: unknown split {split!r}, expected one of {SPLITS}")
        if utt_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance_id {utt_id!r}")
        seen.add(utt_id)
        entries.append(
            ManifestEntry(
                utterance_id=utt_id,
                wav_path=(path.parent / wav_path),
                speaker_id=speaker_id,
                phrase_id=phrase_id or None,
                split=split,
            )
        )
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
    lines = ["\t".join(COLUMNS) + "\n"]
    for e in entries:
        wav = e.wav_path
        try:
            wav = wav.relative_to(path.parent)
        except ValueError:
            pass
        lines.append(
            f"{e.utterance_id}\t{wav}\t{e.speaker_id}\t{e.phrase_id or ''}\t{e.split}\n"
        )
    storage.atomic_write_text(path, "".join(lines))


def by_split(entries: list[ManifestEntry], split: str) -> list[ManifestEntry]:
    return [e for e in entries if e.split == split]
