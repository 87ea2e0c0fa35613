"""Binary artifact tests: roundtrips, header validation, corruption handling."""

import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tclsv import labeling, metrics
from tclsv.config import ExperimentConfig, write_snapshot
from tclsv.errors import DataError
from tclsv.gmm import GmmModel
from tclsv.manifest import ManifestEntry, write_manifest
from tclsv.network import NetworkArch, init_network
from tclsv.pca import PcaModel, covariance, fit_pca
from tclsv.storage import (
    LINE_BREAKS,
    atomic_write_bytes,
    escape_field,
    read_feature_archive,
    read_feature_shape,
    read_gmm,
    read_network,
    read_pca,
    read_rows,
    write_feature_archive,
    write_gmm,
    write_network,
    write_pca,
    write_rows,
)


def random_frames(seed=0, shape=(11, 7)):
    return np.random.default_rng(seed).standard_normal(shape)


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
    "trials": lambda path: metrics.write_trials(path, [metrics.Trial("s00", "u1", "target")]),
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


def test_line_breaks_are_every_character_splitlines_ends_a_line_at():
    ends = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2]
    assert "".join(ends) == LINE_BREAKS


@pytest.mark.parametrize("char", LINE_BREAKS)
def test_write_rows_refuses_a_field_holding_a_line_break(char, tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"previous\n")
    field = f"d/a{char}b/x.wav: not a valid WAV file"
    with pytest.raises(DataError, match="line break in field") as exc:
        write_rows(path, [("u0", "fine"), ("u1", field)])
    assert str(exc.value) == f"{path}: line break in field {field!r}"
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    write_rows(path, [("u1", escape_field(field))])
    assert path.read_text(encoding="utf-8") == f"u1\td/a{repr(char)[1:-1]}b/x.wav: not a valid WAV file\n"


def test_write_rows_refuses_a_field_holding_a_tab(tmp_path):
    # it would be read back as two fields
    path = tmp_path / "rows.tsv"
    field = "d/a\tb/x.wav: not a valid WAV file"
    with pytest.raises(DataError) as exc:
        write_rows(path, [("u1", field)])
    assert str(exc.value) == f"{path}: tab in field {field!r}"
    assert not path.exists()
    write_rows(path, [("u1", escape_field(field))])
    assert list(read_rows(path, 2)) == [(1, ["u1", "d/a\\tb/x.wav: not a valid WAV file"])]


# --- feature archives ---


def test_feature_archive_roundtrip(tmp_path):
    original = random_frames()
    path = tmp_path / "utt_a.tclf"
    write_feature_archive(path, original)
    assert np.array_equal(read_feature_archive(path), original)


def test_feature_archive_write_is_byte_deterministic(tmp_path):
    original = random_frames(seed=3)
    a, b = tmp_path / "a.tclf", tmp_path / "b.tclf"
    write_feature_archive(a, original)
    write_feature_archive(b, original)
    assert a.read_bytes() == b.read_bytes()


def test_feature_archive_empty_matrix(tmp_path):
    path = tmp_path / "empty.tclf"
    write_feature_archive(path, np.zeros((0, 5)))
    assert read_feature_archive(path).shape == (0, 5)


@pytest.mark.parametrize("shape", [(11, 7), (0, 5), (1, 57)])
def test_feature_shape_matches_full_read(tmp_path, shape):
    path = tmp_path / "utt.tclf"
    write_feature_archive(path, random_frames(shape=shape))
    assert read_feature_shape(path) == read_feature_archive(path).shape


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda data: b"WHAT" + data[4:], "bad magic"),
        (lambda data: data[:4] + (2).to_bytes(4, "little") + data[8:], "format version 2"),
        (lambda data: data[:12], "truncated artifact"),
        (lambda data: data[:3], "truncated artifact"),
    ],
    ids=["magic", "version", "header-12-bytes", "header-3-bytes"],
)
def test_feature_shape_rejects_bad_header(tmp_path, corrupt, message):
    path = tmp_path / "bad.tclf"
    write_feature_archive(path, random_frames())
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(DataError, match=message):
        read_feature_shape(path)


def test_feature_shape_missing_file(tmp_path):
    with pytest.raises(DataError, match="nope.tclf does not exist"):
        read_feature_shape(tmp_path / "nope.tclf")


# --- corruption handling, shared across formats ---


def test_missing_artifact(tmp_path):
    with pytest.raises(DataError, match="nope.tclf does not exist"):
        read_feature_archive(tmp_path / "nope.tclf")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tclf"
    write_feature_archive(path, random_frames())
    data = bytearray(path.read_bytes())
    data[:4] = b"WHAT"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="bad magic"):
        read_feature_archive(path)


def test_wrong_format_version(tmp_path):
    path = tmp_path / "v2.tclf"
    write_feature_archive(path, random_frames())
    data = bytearray(path.read_bytes())
    data[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="format version 2"):
        read_feature_archive(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "cut.tclf"
    write_feature_archive(path, random_frames())
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(DataError, match="truncated artifact"):
        read_feature_archive(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.tclf"
    write_feature_archive(path, random_frames())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="1 trailing bytes"):
        read_feature_archive(path)


def test_magic_mismatch_across_formats(tmp_path):
    path = tmp_path / "gmm_as_pca.bin"
    write_gmm(path, GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2))))
    with pytest.raises(DataError, match="bad magic"):
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
    with pytest.raises(DataError, match="truncated artifact"):
        read_network(path)


def test_network_read_up_to_a_layer_still_checks_the_whole_file(tmp_path):
    arch = NetworkArch(input_dim=4, hidden_layers=(6, 5), output_heads=(("tcl", 3),))
    path = tmp_path / "model.tcln"
    write_network(path, init_network(arch, seed=7))
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # cut inside the head, which an L1 read skips
    with pytest.raises(DataError, match="truncated artifact"):
        read_network(path, np.float32, "L1")
    path.write_bytes(data + b"\x00")
    with pytest.raises(DataError, match="1 trailing bytes"):
        read_network(path, np.float32, "L1")


# --- memory bound of the network artifacts ---


def traced_peak_bytes(fn):
    """(result, peak of the memory traced while ``fn`` runs); numpy reports its buffers."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_network_artifact_io_holds_at_most_one_file_sized_buffer(tmp_path):
    arch = NetworkArch(input_dim=200, hidden_layers=(512,) * 6, output_heads=(("tcl", 20),))
    params = init_network(arch, seed=3, dtype=np.float32)
    arrays = params.weights + params.biases + params.head_weights + params.head_biases
    num_params = sum(a.size for a in arrays)
    widest = max(a.size for a in arrays)
    path = tmp_path / "model.tcln"
    # streamed one array at a time: only the array being written is converted to float64
    _, peak = traced_peak_bytes(lambda: write_network(path, params))
    assert peak < 8 * widest + 64 * 1024
    assert 8 * num_params < path.stat().st_size

    # extract-bn's read: the layers up to L2, each array decoded to float32 on its own
    loaded, peak = traced_peak_bytes(lambda: read_network(path, np.float32, "L2"))
    kept = loaded.weights + loaded.biases
    assert len(kept) == 4 and not loaded.head_weights and not loaded.head_biases
    assert all(a.dtype == np.float32 for a in kept)
    assert peak < sum(a.nbytes for a in kept) + 8 * widest + 64 * 1024 < 8 * num_params
    for got, want in zip(kept, params.weights[:2] + params.biases[:2]):
        assert np.array_equal(got, want)


def test_float64_artifacts_are_written_without_a_copy(tmp_path):
    rng = np.random.default_rng(4)
    arch = NetworkArch(input_dim=100, hidden_layers=(300, 200), output_heads=(("tcl", 30),))
    network = init_network(arch, seed=4)
    frames = rng.standard_normal((500, 60))
    pca_model = PcaModel(mean=rng.standard_normal(300), basis=rng.standard_normal((60, 300)),
                         eigenvalues=rng.uniform(size=60))
    gmm_model = GmmModel(rng.dirichlet(np.ones(64)), rng.standard_normal((64, 100)),
                         rng.uniform(0.5, 2.0, (64, 100)))
    writes = {
        "model.tcln": lambda path: write_network(path, network),
        "u.tclf": lambda path: write_feature_archive(path, frames),
        "pca.tclp": lambda path: write_pca(path, pca_model),
        "ubm.tclg": lambda path: write_gmm(path, gmm_model),
    }
    for name, write in writes.items():
        path = tmp_path / name
        _, peak = traced_peak_bytes(lambda: write(path))
        # every file is at least 100 KiB, and every array float64 C-contiguous
        assert peak < 64 * 1024 < path.stat().st_size, name


# --- corruption: each artifact kind, as its writer writes it ---


def _artifact_kinds():
    """Per kind: (magic, write(path), the arrays it writes, readers of the whole file)."""
    rng = np.random.default_rng(12)
    arch = NetworkArch(input_dim=5, hidden_layers=(4, 3), output_heads=(("tcl", 6), ("phrasé", 2)))
    network = init_network(arch, seed=12, dtype=np.float32)  # converted array by array
    frames = rng.standard_normal((7, 3))
    pca_model = PcaModel(mean=rng.standard_normal(4), basis=rng.standard_normal((2, 4)),
                         eigenvalues=np.array([2.0, 1.0]))
    gmm_model = GmmModel(np.array([0.25, 0.75]), rng.standard_normal((2, 3)), np.ones((2, 3)))
    return {
        "TCLF": (lambda p: write_feature_archive(p, frames), [frames], [read_feature_archive]),
        "TCLN": (
            lambda p: write_network(p, network),
            [a for pair in zip(network.weights + network.head_weights,
                               network.biases + network.head_biases) for a in pair],
            [read_network, lambda p: read_network(p, np.float32, "L1")],
        ),
        "TCLP": (lambda p: write_pca(p, pca_model),
                 [pca_model.mean, pca_model.eigenvalues, pca_model.basis], [read_pca]),
        "TCLG": (lambda p: write_gmm(p, gmm_model),
                 [gmm_model.weights, gmm_model.means, gmm_model.variances], [read_gmm]),
    }


def _written(kind, path):
    """(file bytes, header length, the arrays' byte offsets in the file, readers)."""
    write, arrays, readers = _artifact_kinds()[kind]
    write(path)
    data = path.read_bytes()
    header = len(data) - 8 * sum(a.size for a in arrays)
    offsets = header + 8 * np.cumsum([0] + [a.size for a in arrays[:-1]])
    return data, header, offsets, arrays, readers


@pytest.mark.parametrize("kind", ["TCLF", "TCLN", "TCLP", "TCLG"])
def test_artifact_cut_anywhere_in_its_header_raises_data_error(kind, tmp_path):
    path = tmp_path / "artifact"
    data, header, _, _, readers = _written(kind, path)
    assert data[:4] == kind.encode()
    for cut in range(header + 1):
        path.write_bytes(data[:cut])
        for read in readers:
            with pytest.raises(DataError, match="truncated artifact"):
                read(path)


@pytest.mark.parametrize("kind", ["TCLF", "TCLN", "TCLP", "TCLG"])
def test_artifact_cut_inside_each_array_raises_data_error(kind, tmp_path):
    path = tmp_path / "artifact"
    data, _, offsets, arrays, readers = _written(kind, path)
    for offset, array in zip(offsets, arrays):
        path.write_bytes(data[: offset + 8 * (array.size // 2) + 3])  # mid-element
        for read in readers:
            with pytest.raises(DataError, match="truncated artifact"):
                read(path)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["TCLF", "TCLN", "TCLP", "TCLG"]),
    garbage=st.binary(max_size=120),
    keep_magic=st.booleans(),
)
def test_random_artifact_bytes_raise_only_data_error(kind, garbage, keep_magic, tmp_path):
    path = tmp_path / "artifact"
    _, _, _, _, readers = _written(kind, path)
    if keep_magic:
        # past the magic and version, into the shape fields and arrays: the
        # bytes may happen to form a valid file, but nothing else may escape
        path.write_bytes(kind.encode() + struct.pack("<I", 1) + garbage)
        for read in readers:
            try:
                read(path)
            except DataError:
                pass
    else:
        assume(not garbage.startswith(kind.encode()))
        path.write_bytes(garbage)
        for read in readers:
            with pytest.raises(DataError):
                read(path)


# --- PCA ---


def test_pca_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    model = fit_pca(*covariance(rng.standard_normal((60, 8)), 3), out_dim=3)
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


# --- golden layouts: each file decoded field by field, independently of storage ---


class _Fields:
    """Walks a file's bytes with ``struct`` and ``np.frombuffer``, checking its length."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def unpack(self, fmt: str):
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += struct.calcsize(fmt)
        return values

    def raw(self, n: int) -> bytes:
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def f64(self, *shape: int) -> np.ndarray:
        count = int(np.prod(shape))
        array = np.frombuffer(self.data, dtype="<f8", count=count, offset=self.pos)
        self.pos += 8 * count
        return array.reshape(shape)

    def end(self) -> None:
        assert self.pos == len(self.data)


def _golden(path, magic):
    fields = _Fields(path.read_bytes())
    assert fields.raw(4) == magic
    assert fields.unpack("<I") == (1,)
    return fields


def test_golden_feature_archive(tmp_path):
    frames = np.arange(6.0).reshape(3, 2) / 7.0
    path = tmp_path / "u.tclf"
    write_feature_archive(path, frames)
    fields = _golden(path, b"TCLF")
    assert fields.unpack("<II") == (3, 2)
    assert np.array_equal(fields.f64(3, 2), frames)
    fields.end()


def test_golden_pca(tmp_path):
    model = PcaModel(
        mean=np.array([0.5, -1.0, 2.0]),
        basis=np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]),
        eigenvalues=np.array([3.0, 1.25]),
    )
    path = tmp_path / "pca.tclp"
    write_pca(path, model)
    fields = _golden(path, b"TCLP")
    assert fields.unpack("<II") == (3, 2)
    assert np.array_equal(fields.f64(3), model.mean)
    assert np.array_equal(fields.f64(2), model.eigenvalues)
    assert np.array_equal(fields.f64(2, 3), model.basis)
    fields.end()


def test_golden_gmm(tmp_path):
    model = GmmModel(
        weights=np.array([0.25, 0.75]),
        means=np.array([[0.0, 1.0, 2.0], [-3.0, 4.5, 5.0]]),
        variances=np.array([[1.0, 0.5, 2.0], [0.125, 3.0, 1.5]]),
    )
    path = tmp_path / "ubm.tclg"
    write_gmm(path, model)
    fields = _golden(path, b"TCLG")
    assert fields.unpack("<II") == (2, 3)
    assert np.array_equal(fields.f64(2), model.weights)
    assert np.array_equal(fields.f64(2, 3), model.means)
    assert np.array_equal(fields.f64(2, 3), model.variances)
    fields.end()


def test_golden_network(tmp_path):
    arch = NetworkArch(input_dim=3, hidden_layers=(4, 2), output_heads=(("tcl", 5), ("phrase", 3)))
    params = init_network(arch, seed=11)
    params.rng_seed = 2**40 + 7  # a seed above 32 bits shows the u64 field
    path = tmp_path / "model.tcln"
    write_network(path, params)
    fields = _golden(path, b"TCLN")
    assert fields.unpack("<I") == (3,)
    assert fields.unpack("<I") == (2,)
    assert fields.unpack("<II") == (4, 2)
    assert fields.unpack("<I") == (2,)
    for name, num_classes in (("tcl", 5), ("phrase", 3)):
        (length,) = fields.unpack("<I")
        assert fields.raw(length) == name.encode("utf-8")
        assert fields.unpack("<I") == (num_classes,)
    assert fields.unpack("<Q") == (2**40 + 7,)
    prev = 3
    for k, width in enumerate((4, 2)):
        assert np.array_equal(fields.f64(prev, width), params.weights[k])
        assert np.array_equal(fields.f64(width), params.biases[k])
        prev = width
    for k, num_classes in enumerate((5, 3)):
        assert np.array_equal(fields.f64(prev, num_classes), params.head_weights[k])
        assert np.array_equal(fields.f64(num_classes), params.head_biases[k])
    fields.end()
