"""Binary artifact tests: roundtrips, header validation, corruption handling."""

import os
import stat

import numpy as np
import pytest

from tclsv import labeling, metrics
from tclsv.config import ExperimentConfig, write_snapshot
from tclsv.errors import ArtifactError, MissingArtifact
from tclsv.frontend import FeatureMatrix
from tclsv.gmm import GmmModel
from tclsv.manifest import ManifestEntry, write_manifest
from tclsv.network import NetworkArch, init_network
from tclsv.pca import fit_pca
from tclsv.storage import (
    atomic_write_bytes,
    read_feature_archive,
    read_feature_shape,
    read_gmm,
    read_network,
    read_pca,
    write_feature_archive,
    write_gmm,
    write_network,
    write_pca,
)


def feature_matrix(seed=0, shape=(11, 7)):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(frames=rng.standard_normal(shape), utterance_id="utt_a")


# --- atomic writes ---


def test_atomic_write_creates_file_and_cleans_temp(tmp_path):
    path = tmp_path / "artifact.bin"
    atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"new"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "artifact.bin"
    previous = os.umask(umask)
    try:
        atomic_write_bytes(path, b"payload")
    finally:
        left = os.umask(previous)
    assert left == umask  # the write restored the umask it read
    assert stat.S_IMODE(path.stat().st_mode) == mode


TEXT_WRITERS = {
    "scores": lambda path: metrics.write_scores(path, metrics.TrialScoreSet(
        trials=[metrics.Trial("s00", "u1", "target"),
                metrics.Trial("s01", "u1", "impostor-correct")],
        scores=np.array([1.5, -0.25]))),
    "labels": lambda path: labeling.write_label_archive(path, {"u1": np.array([0, 1, 1, 2])}),
    "snapshot": lambda path: write_snapshot(path, ExperimentConfig()),
    "manifest": lambda path: write_manifest(path, [
        ManifestEntry("u1", path.parent / "wavs" / "u1.wav", "s00", "p0", "enroll")]),
}


@pytest.mark.parametrize("name", sorted(TEXT_WRITERS))
def test_text_writer_failing_part_way_keeps_previous_file(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(b"previous\n")
    real_fdopen = os.fdopen

    class HalfThenFail:
        def __init__(self, fd, mode):
            self.handle = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[: len(data) // 2])
            self.handle.flush()
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen", HalfThenFail)
    with pytest.raises(OSError, match="disk full"):
        TEXT_WRITERS[name](path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    monkeypatch.setattr(os, "fdopen", real_fdopen)
    TEXT_WRITERS[name](path)
    assert path.read_bytes() != b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# --- feature archives ---


def test_feature_archive_roundtrip(tmp_path):
    original = feature_matrix()
    path = tmp_path / "utt_a.tclf"
    write_feature_archive(path, original)
    loaded = read_feature_archive(path)
    assert loaded.utterance_id == "utt_a"  # defaults to the file stem
    assert np.array_equal(loaded.frames, original.frames)


def test_feature_archive_explicit_utterance_id(tmp_path):
    path = tmp_path / "on_disk_name.tclf"
    write_feature_archive(path, feature_matrix())
    assert read_feature_archive(path, utterance_id="logical").utterance_id == "logical"


def test_feature_archive_write_is_byte_deterministic(tmp_path):
    original = feature_matrix(seed=3)
    a, b = tmp_path / "a.tclf", tmp_path / "b.tclf"
    write_feature_archive(a, original)
    write_feature_archive(b, original)
    assert a.read_bytes() == b.read_bytes()


def test_feature_archive_empty_matrix(tmp_path):
    path = tmp_path / "empty.tclf"
    write_feature_archive(path, FeatureMatrix(frames=np.zeros((0, 5)), utterance_id="e"))
    loaded = read_feature_archive(path)
    assert loaded.frames.shape == (0, 5)


@pytest.mark.parametrize("shape", [(11, 7), (0, 5), (1, 57)])
def test_feature_shape_matches_full_read(tmp_path, shape):
    path = tmp_path / "utt.tclf"
    write_feature_archive(path, feature_matrix(shape=shape))
    assert read_feature_shape(path) == read_feature_archive(path).frames.shape


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda data: b"WHAT" + data[4:], "magic"),
        (lambda data: data[:4] + (2).to_bytes(4, "little") + data[8:], "version"),
        (lambda data: data[:12], "truncated"),
        (lambda data: data[:3], "truncated"),
    ],
    ids=["magic", "version", "header-12-bytes", "header-3-bytes"],
)
def test_feature_shape_rejects_bad_header(tmp_path, corrupt, message):
    path = tmp_path / "bad.tclf"
    write_feature_archive(path, feature_matrix())
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ArtifactError, match=message):
        read_feature_shape(path)


def test_feature_shape_missing_file(tmp_path):
    with pytest.raises(MissingArtifact):
        read_feature_shape(tmp_path / "nope.tclf")


# --- corruption handling, shared across formats ---


def test_missing_artifact(tmp_path):
    with pytest.raises(MissingArtifact):
        read_feature_archive(tmp_path / "nope.tclf")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tclf"
    write_feature_archive(path, feature_matrix())
    data = bytearray(path.read_bytes())
    data[:4] = b"WHAT"
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="magic"):
        read_feature_archive(path)


def test_wrong_format_version(tmp_path):
    path = tmp_path / "v2.tclf"
    write_feature_archive(path, feature_matrix())
    data = bytearray(path.read_bytes())
    data[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="version"):
        read_feature_archive(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "cut.tclf"
    write_feature_archive(path, feature_matrix())
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ArtifactError, match="truncated"):
        read_feature_archive(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.tclf"
    write_feature_archive(path, feature_matrix())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ArtifactError, match="trailing"):
        read_feature_archive(path)


def test_magic_mismatch_across_formats(tmp_path):
    path = tmp_path / "gmm_as_pca.bin"
    write_gmm(path, GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2))))
    with pytest.raises(ArtifactError, match="magic"):
        read_pca(path)


# --- network ---


def test_network_roundtrip(tmp_path):
    arch = NetworkArch(
        input_dim=9,
        hidden_layers=(16, 8),
        output_heads=(("tcl", 10), ("phrase", 5)),
    )
    params = init_network(arch, seed=42)
    path = tmp_path / "model.tcln"
    write_network(path, params)
    loaded = read_network(path)
    assert loaded.arch == arch
    assert loaded.rng_seed == params.rng_seed
    for got, want in zip(loaded.weights, params.weights):
        assert np.array_equal(got, want)
    for got, want in zip(loaded.biases, params.biases):
        assert np.array_equal(got, want)
    for got, want in zip(loaded.head_weights, params.head_weights):
        assert np.array_equal(got, want)
    for got, want in zip(loaded.head_biases, params.head_biases):
        assert np.array_equal(got, want)


def test_network_write_is_byte_deterministic(tmp_path):
    arch = NetworkArch(input_dim=4, hidden_layers=(6,), output_heads=(("tcl", 3),))
    params = init_network(arch, seed=7)
    a, b = tmp_path / "a.tcln", tmp_path / "b.tcln"
    write_network(a, params)
    write_network(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_network_truncation(tmp_path):
    arch = NetworkArch(input_dim=4, hidden_layers=(6,), output_heads=(("tcl", 3),))
    path = tmp_path / "model.tcln"
    write_network(path, init_network(arch, seed=7))
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ArtifactError):
        read_network(path)


# --- PCA ---


def test_pca_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    model = fit_pca(rng.standard_normal((60, 8)), out_dim=3)
    path = tmp_path / "pca.tclp"
    write_pca(path, model)
    loaded = read_pca(path)
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.basis, model.basis)
    assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
    assert loaded.input_dim == 8 and loaded.output_dim == 3


# --- GMM ---


def test_gmm_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    model = GmmModel(
        weights=rng.dirichlet(np.ones(4)),
        means=rng.standard_normal((4, 3)),
        variances=rng.uniform(0.1, 2.0, (4, 3)),
    )
    path = tmp_path / "ubm.tclg"
    write_gmm(path, model)
    loaded = read_gmm(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.means, model.means)
    assert np.array_equal(loaded.variances, model.variances)


def test_gmm_write_is_byte_deterministic(tmp_path):
    model = GmmModel(np.array([0.5, 0.5]), np.arange(4.0).reshape(2, 2), np.ones((2, 2)))
    a, b = tmp_path / "a.tclg", tmp_path / "b.tclg"
    write_gmm(a, model)
    write_gmm(b, model)
    assert a.read_bytes() == b.read_bytes()
