"""Manifest parsing, lint rules, and roundtrip tests."""

from pathlib import Path

import pytest

from tclsv.errors import DataError
from tclsv.manifest import (
    COLUMNS,
    ManifestEntry,
    by_split,
    lint_phrase_exclusion,
    read_manifest,
    write_manifest,
)

HEADER = "\t".join(COLUMNS)


def write_lines(path: Path, rows):
    path.write_text(HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


def test_read_basic_manifest(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(
        path,
        [
            "u1\twavs/u1.wav\tspk1\tp1\tdnn-train",
            "u2\twavs/u2.wav\tspk2\t\tubm-train",
            "",
            "u3\twavs/u3.wav\tspk1\tp2\tenroll",
        ],
    )
    entries = read_manifest(path)
    assert len(entries) == 3
    assert entries[0].utterance_id == "u1"
    assert entries[0].wav_path == tmp_path / "wavs/u1.wav"  # resolved against manifest dir
    assert entries[1].phrase_id is None  # empty field
    assert entries[2].split == "enroll"


def test_roundtrip_preserves_entries(tmp_path):
    entries = [
        ManifestEntry("u1", tmp_path / "wavs/u1.wav", "spk1", "p1", "dnn-train"),
        ManifestEntry("u2", tmp_path / "wavs/u2.wav", "spk2", None, "test"),
    ]
    path = tmp_path / "manifest.tsv"
    write_manifest(path, entries)
    assert read_manifest(path) == entries
    # paths under the manifest directory are stored relative
    assert "wavs/u1.wav" in path.read_text(encoding="utf-8")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty manifest, expected a header line"):
        read_manifest(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("utt\tpath\tspeaker\tphrase\tsplit\n", encoding="utf-8")
    with pytest.raises(DataError, match="does not match"):
        read_manifest(path)


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(path, ["u1\twavs/u1.wav\tspk1\tdnn-train"])
    with pytest.raises(DataError, match="manifest.tsv:2: expected 5 tab-separated fields"):
        read_manifest(path)


def test_unknown_split_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(path, ["u1\twavs/u1.wav\tspk1\tp1\ttraining"])
    with pytest.raises(DataError, match="unknown split 'training'"):
        read_manifest(path)


@pytest.mark.parametrize("bad_id", ["../evil", "a b", "", ".hidden", "x/y"])
def test_unsafe_utterance_ids_rejected(tmp_path, bad_id):
    path = tmp_path / "manifest.tsv"
    write_lines(path, [f"{bad_id}\twavs/u1.wav\tspk1\tp1\tdnn-train"])
    with pytest.raises(DataError, match="bad utterance_id"):
        read_manifest(path)


def test_safe_id_characters_accepted(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(path, ["spk1_p2.take-3\twavs/u.wav\tspk-1\tp.2\ttest"])
    entries = read_manifest(path)
    assert entries[0].utterance_id == "spk1_p2.take-3"


def test_duplicate_utterance_id_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(
        path,
        [
            "u1\twavs/a.wav\tspk1\tp1\tdnn-train",
            "u1\twavs/b.wav\tspk2\tp2\ttest",
        ],
    )
    with pytest.raises(DataError, match="duplicate utterance_id 'u1'"):
        read_manifest(path)


def test_phrase_shared_between_train_and_eval_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_lines(
        path,
        [
            "u1\twavs/a.wav\tspk1\tp1\tdnn-train",
            "u2\twavs/b.wav\tspk2\tp1\ttest",
        ],
    )
    with pytest.raises(DataError, match="appear in both dnn-train and enroll/test splits"):
        read_manifest(path)


def test_phrase_shared_with_ubm_train_is_fine():
    entries = [
        ManifestEntry("u1", Path("a.wav"), "spk1", "p1", "dnn-train"),
        ManifestEntry("u2", Path("b.wav"), "spk2", "p1", "ubm-train"),
        ManifestEntry("u3", Path("c.wav"), "spk2", "p2", "test"),
    ]
    lint_phrase_exclusion(entries)  # must not raise


def test_phraseless_entries_never_trigger_exclusion():
    entries = [
        ManifestEntry("u1", Path("a.wav"), "spk1", None, "dnn-train"),
        ManifestEntry("u2", Path("b.wav"), "spk2", None, "test"),
    ]
    lint_phrase_exclusion(entries)


def test_by_split_filters():
    entries = [
        ManifestEntry("u1", Path("a.wav"), "s1", "p1", "dnn-train"),
        ManifestEntry("u2", Path("b.wav"), "s1", "p2", "test"),
        ManifestEntry("u3", Path("c.wav"), "s2", "p2", "test"),
    ]
    assert [e.utterance_id for e in by_split(entries, "test")] == ["u2", "u3"]
    assert by_split(entries, "enroll") == []
