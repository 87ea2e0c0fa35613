"""File I/O: the binary artifacts, atomic writes and text inputs.

Every input file is read here, and one that is missing, unreadable or not UTF-8
text raises DataError naming it; so does an output directory that cannot be
made.  Writes go through a temp file plus rename, so readers never observe
partial files.  A binary artifact (TCLF features, TCLN network, TCLP PCA, TCLG
GMM) is a 4-byte ASCII magic, a uint32 format version, uint32 shape fields,
then row-major float64 arrays, all little-endian; README "File formats" gives
each layout.  A wrong magic or version is a hard error.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import DataError
from .gmm import GmmModel
from .network import NetworkArch, NetworkParams
from .pca import PcaModel

FORMAT_VERSION = 1


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


def make_dir(path: Path) -> Path:
    """``path``, made with its parents if missing; DataError naming it if it cannot be made."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot make directory ({exc.strerror})") from None
    return path


def _read(path: Path, size: int = -1) -> bytes:
    """The bytes of ``path``, or its first ``size``; DataError naming it if it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read(size)
    except FileNotFoundError:
        raise DataError(f"{path} does not exist") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; the read-side twin of :func:`atomic_write_text`."""
    try:
        return _read(Path(path)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_rows(path: str | Path, num_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated text file."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.strip():
            fields = line.split("\t")
            if len(fields) != num_fields:
                raise DataError(f"{path}:{lineno}: expected {num_fields} tab-separated fields")
            yield lineno, fields


class _Reader:
    """Reads the whole file, or only its first ``size`` bytes when given."""

    def __init__(self, path: Path, magic: bytes, size: int = -1):
        self.path = path
        self.buf = _read(path, size)
        self.pos = 0
        got = self.read_bytes(4)
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")
        (version,) = self.read_u32(1)
        if version != FORMAT_VERSION:
            raise DataError(
                f"{path}: format version {version}, this build reads version {FORMAT_VERSION}"
            )

    def _take(self, n: int) -> int:
        """The offset of the next ``n`` bytes, which this read consumes."""
        if self.pos + n > len(self.buf):
            raise DataError(f"{self.path}: truncated artifact")
        self.pos += n
        return self.pos - n

    def read_bytes(self, n: int) -> bytes:
        return self.buf[self._take(n) : self.pos]

    def read_u32(self, n: int) -> tuple[int, ...]:
        return struct.unpack_from(f"<{n}I", self.buf, self._take(4 * n))

    def read_f64(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """The arrays that end the file, one writable float64 array per shape."""
        arrays = []
        for shape in shapes:
            count = math.prod(shape)
            raw = np.frombuffer(self.buf, dtype="<f8", count=count, offset=self._take(8 * count))
            arrays.append(raw.astype(np.float64).reshape(shape))
        if self.pos != len(self.buf):
            raise DataError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")
        return arrays


def _write(path: str | Path, magic: bytes, dims: list[int | bytes], arrays: list[np.ndarray]) -> None:
    """Magic, version, ``dims`` as uint32 (bytes as they are), then ``arrays`` as float64."""
    header = [d if isinstance(d, bytes) else struct.pack("<I", d) for d in (FORMAT_VERSION, *dims)]
    payload = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays]
    atomic_write_bytes(path, b"".join([magic, *header, *payload]))


def write_feature_archive(path: str | Path, frames: np.ndarray) -> None:
    _write(path, b"TCLF", list(frames.shape), [frames])


def read_feature_archive(path: str | Path) -> np.ndarray:
    reader = _Reader(Path(path), b"TCLF")
    (frames,) = reader.read_f64(reader.read_u32(2))
    return frames


def read_feature_shape(path: str | Path) -> tuple[int, int]:
    """(frames, dim) of a feature archive, read from its 16-byte header alone."""
    return _Reader(Path(path), b"TCLF", size=16).read_u32(2)


def write_network(path: str | Path, params: NetworkParams) -> None:
    arch = params.arch
    heads = [(name.encode("utf-8"), k) for name, k in arch.output_heads]
    dims = [arch.input_dim, len(arch.hidden_layers), *arch.hidden_layers, len(heads)]
    dims += [field for name, k in heads for field in (len(name), name, k)]
    layers = zip(params.weights + params.head_weights, params.biases + params.head_biases)
    seed = struct.pack("<Q", params.rng_seed)
    _write(path, b"TCLN", [*dims, seed], [a for pair in layers for a in pair])


def read_network(path: str | Path) -> NetworkParams:
    reader = _Reader(Path(path), b"TCLN")
    input_dim, num_hidden = reader.read_u32(2)
    hidden = reader.read_u32(num_hidden)
    heads = []
    for _ in range(*reader.read_u32(1)):
        name = reader.read_bytes(*reader.read_u32(1))
        try:
            heads.append((name.decode("utf-8"), *reader.read_u32(1)))
        except UnicodeDecodeError:
            raise DataError(f"{path}: head name {name!r} is not UTF-8") from None
    arch = NetworkArch(input_dim=input_dim, hidden_layers=hidden, output_heads=tuple(heads))
    (seed,) = struct.unpack("<Q", reader.read_bytes(8))
    widths = (input_dim, *hidden)
    layers = [*zip(widths, hidden), *((widths[-1], k) for _, k in heads)]
    arrays = reader.read_f64(*[s for n_in, n_out in layers for s in ((n_in, n_out), (n_out,))])
    n = 2 * len(hidden)
    return NetworkParams(arch, arrays[:n:2], arrays[1:n:2], arrays[n::2], arrays[n + 1 :: 2], seed)


def write_pca(path: str | Path, model: PcaModel) -> None:
    dims = [model.input_dim, model.output_dim]
    _write(path, b"TCLP", dims, [model.mean, model.eigenvalues, model.basis])


def read_pca(path: str | Path) -> PcaModel:
    reader = _Reader(Path(path), b"TCLP")
    dim, out_dim = reader.read_u32(2)
    mean, eigenvalues, basis = reader.read_f64((dim,), (out_dim,), (out_dim, dim))
    return PcaModel(mean=mean, basis=basis, eigenvalues=eigenvalues)


def write_gmm(path: str | Path, model: GmmModel) -> None:
    _write(path, b"TCLG", list(model.means.shape), [model.weights, model.means, model.variances])


def read_gmm(path: str | Path) -> GmmModel:
    reader = _Reader(Path(path), b"TCLG")
    k, d = reader.read_u32(2)
    weights, means, variances = reader.read_f64((k,), (k, d), (k, d))
    return GmmModel(weights=weights, means=means, variances=variances)
