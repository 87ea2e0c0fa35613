"""Versioned binary artifact formats.

All artifacts share the same conventions: a 4-byte ASCII magic, a little-endian
uint32 format version, shape fields as little-endian uint32, then row-major
float64 little-endian payloads.  Writes go through a temp file plus rename so
readers never observe partial artifacts.  A wrong magic or version is always a
hard error.

Formats:
  TCLF  feature archive, one utterance: T, D, then the T x D matrix.
  TCLN  network: arch descriptor, then parameters layer-major.
  TCLP  PCA model: input dim, output dim, mean, eigenvalues, basis.
  TCLG  GMM: K, D, weights, means, variances.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import ArtifactError, MissingArtifact
from .frontend import FeatureMatrix
from .gmm import GmmModel
from .network import NetworkArch, NetworkParams
from .pca import PcaModel

FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write to a temp file in the destination directory, then rename.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the owner-only mode of ``mkstemp``.
    """
    path = Path(path)
    umask = os.umask(0)  # reading the umask means setting it; no tclsv code runs threads
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 text through :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


class _Reader:
    """Reads the whole file, or only its first ``size`` bytes when given."""

    def __init__(self, path: Path, magic: bytes, size: int | None = None):
        if not path.exists():
            raise MissingArtifact(f"{path} does not exist")
        self.path = path
        with open(path, "rb") as handle:
            self.buf = handle.read(size)
        self.pos = 0
        got = self.read_bytes(4)
        if got != magic:
            raise ArtifactError(
                f"{path}: bad magic {got!r}, expected {magic!r}"
            )
        version = self.read_u32()
        if version != FORMAT_VERSION:
            raise ArtifactError(
                f"{path}: format version {version}, this build reads version {FORMAT_VERSION}"
            )

    def read_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ArtifactError(f"{self.path}: truncated artifact")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_u32(self) -> int:
        return _U32.unpack(self.read_bytes(4))[0]

    def read_u64(self) -> int:
        return _U64.unpack(self.read_bytes(8))[0]

    def read_f64(self, count: int) -> np.ndarray:
        raw = self.read_bytes(8 * count)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ArtifactError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")


def _f64_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


# --- feature archive (TCLF) ---

def write_feature_archive(path: str | Path, features: FeatureMatrix) -> None:
    frames = np.asarray(features.frames, dtype=np.float64)
    header = b"TCLF" + _U32.pack(FORMAT_VERSION) + _U32.pack(frames.shape[0]) + _U32.pack(frames.shape[1])
    atomic_write_bytes(path, header + _f64_bytes(frames))


def read_feature_archive(path: str | Path, utterance_id: str | None = None) -> FeatureMatrix:
    path = Path(path)
    reader = _Reader(path, b"TCLF")
    t = reader.read_u32()
    d = reader.read_u32()
    frames = reader.read_f64(t * d).reshape(t, d)
    reader.done()
    if utterance_id is None:
        utterance_id = path.stem
    return FeatureMatrix(frames=frames, utterance_id=utterance_id)


def read_feature_shape(path: str | Path) -> tuple[int, int]:
    """(frames, dim) of a feature archive, read from its 16-byte header alone."""
    reader = _Reader(Path(path), b"TCLF", size=16)
    return reader.read_u32(), reader.read_u32()


# --- network (TCLN) ---

def write_network(path: str | Path, params: NetworkParams) -> None:
    arch = params.arch
    parts = [b"TCLN", _U32.pack(FORMAT_VERSION), _U32.pack(arch.input_dim)]
    parts.append(_U32.pack(len(arch.hidden_layers)))
    for width in arch.hidden_layers:
        parts.append(_U32.pack(width))
    parts.append(_U32.pack(len(arch.output_heads)))
    for name, num_classes in arch.output_heads:
        encoded = name.encode("utf-8")
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U32.pack(num_classes))
    parts.append(_U64.pack(params.rng_seed))
    for w, b in zip(params.weights, params.biases):
        parts.append(_f64_bytes(w))
        parts.append(_f64_bytes(b))
    for w, b in zip(params.head_weights, params.head_biases):
        parts.append(_f64_bytes(w))
        parts.append(_f64_bytes(b))
    atomic_write_bytes(path, b"".join(parts))


def read_network(path: str | Path) -> NetworkParams:
    reader = _Reader(Path(path), b"TCLN")
    input_dim = reader.read_u32()
    hidden = tuple(reader.read_u32() for _ in range(reader.read_u32()))
    heads = []
    for _ in range(reader.read_u32()):
        name = reader.read_bytes(reader.read_u32()).decode("utf-8")
        heads.append((name, reader.read_u32()))
    arch = NetworkArch(input_dim=input_dim, hidden_layers=hidden, output_heads=tuple(heads))
    seed = reader.read_u64()
    weights, biases = [], []
    prev = input_dim
    for width in hidden:
        weights.append(reader.read_f64(prev * width).reshape(prev, width))
        biases.append(reader.read_f64(width))
        prev = width
    head_weights, head_biases = [], []
    for _, num_classes in heads:
        head_weights.append(reader.read_f64(prev * num_classes).reshape(prev, num_classes))
        head_biases.append(reader.read_f64(num_classes))
    reader.done()
    return NetworkParams(arch, weights, biases, head_weights, head_biases, rng_seed=seed)


# --- PCA model (TCLP) ---

def write_pca(path: str | Path, model: PcaModel) -> None:
    header = (
        b"TCLP"
        + _U32.pack(FORMAT_VERSION)
        + _U32.pack(model.input_dim)
        + _U32.pack(model.output_dim)
    )
    payload = _f64_bytes(model.mean) + _f64_bytes(model.eigenvalues) + _f64_bytes(model.basis)
    atomic_write_bytes(path, header + payload)


def read_pca(path: str | Path) -> PcaModel:
    reader = _Reader(Path(path), b"TCLP")
    dim = reader.read_u32()
    out_dim = reader.read_u32()
    mean = reader.read_f64(dim)
    eigenvalues = reader.read_f64(out_dim)
    basis = reader.read_f64(out_dim * dim).reshape(out_dim, dim)
    reader.done()
    return PcaModel(mean=mean, basis=basis, eigenvalues=eigenvalues)


# --- GMM (TCLG) ---

def write_gmm(path: str | Path, model: GmmModel) -> None:
    k, d = model.means.shape
    header = b"TCLG" + _U32.pack(FORMAT_VERSION) + _U32.pack(k) + _U32.pack(d)
    payload = _f64_bytes(model.weights) + _f64_bytes(model.means) + _f64_bytes(model.variances)
    atomic_write_bytes(path, header + payload)


def read_gmm(path: str | Path) -> GmmModel:
    reader = _Reader(Path(path), b"TCLG")
    k = reader.read_u32()
    d = reader.read_u32()
    weights = reader.read_f64(k)
    means = reader.read_f64(k * d).reshape(k, d)
    variances = reader.read_f64(k * d).reshape(k, d)
    reader.done()
    return GmmModel(weights=weights, means=means, variances=variances)
