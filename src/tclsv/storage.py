"""File I/O: the binary artifacts, atomic writes and text files.

Every input file is read here, and one that is missing, unreadable or not UTF-8
text raises DataError naming it; so does an output directory that cannot be
made.  Every tab-separated file is written by :func:`write_rows` and read by
:func:`read_rows`.  A file is written through a temp file plus rename, and a
stage's run-directory entry through :func:`entry`, so no reader sees either
half-written.  A binary artifact (TCLF features, TCLN network, TCLP PCA, TCLG
GMM) is a 4-byte ASCII magic, a uint32 format version, uint32 shape fields,
then row-major float64 arrays, all little-endian; README "File formats" gives
each layout.  A wrong magic or version is a hard error.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import struct
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DataError
from .gmm import GmmModel
from .network import NetworkArch, NetworkParams
from .pca import PcaModel

FORMAT_VERSION = 1

# Every character str.splitlines ends a line at.  A field holding one would be
# read back as two rows, and one holding a tab as two fields, so write_rows
# refuses both.
LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_SEPARATOR = re.compile(f"[\t{re.escape(LINE_BREAKS)}]")
_ESCAPED_SEPARATORS = str.maketrans({c: repr(c)[1:-1] for c in "\t" + LINE_BREAKS})


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A temp file in the destination directory, renamed to ``path`` once the block succeeds.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask).  If the block raises, the temp file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes | bytearray) -> None:
    """Write to a temp file in the destination directory, then rename."""
    with _atomic_file(path) as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 text through :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def make_dir(path: Path, exist_ok: bool = True) -> Path:
    """``path``, made with its parents; DataError naming it if it cannot be made, or exists and not ``exist_ok``."""
    try:
        path.mkdir(parents=True, exist_ok=exist_ok)
    except OSError as exc:
        raise DataError(f"{path}: cannot make directory ({exc.strerror})") from None
    return path


def _remove(*paths: Path) -> None:
    """Delete each of ``paths`` that exists: a directory with its tree, anything else (a symlink too) alone."""
    for path in filter(os.path.lexists, paths):
        shutil.rmtree(path) if path.is_dir() and not path.is_symlink() else path.unlink()


@contextmanager
def entry(path: Path) -> Iterator[Path]:
    """A new ``.<name>.new`` beside ``path``: deleted if the block raises, else swapped in for ``path``.

    The old entry goes via ``.<name>.old``.  A killed run's leftovers go first.
    """
    new, old = (path.with_name(f".{path.name}.{suffix}") for suffix in ("new", "old"))
    _remove(new, old)
    make_dir(new, exist_ok=False)
    try:
        yield new
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    if os.path.lexists(path):
        os.rename(path, old)
    os.rename(new, path)
    _remove(old)


@contextmanager
def _open(path: Path) -> Iterator[BinaryIO]:
    """``path`` open for reading; DataError naming it if it cannot be opened or read."""
    try:
        with open(path, "rb") as handle:
            yield handle
    except FileNotFoundError:
        raise DataError(f"{path} does not exist") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


def _read(path: Path) -> bytes:
    """The bytes of ``path``; DataError naming it if it cannot be read."""
    with _open(path) as handle:
        return handle.read()


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; the read-side twin of :func:`atomic_write_text`."""
    try:
        return _read(Path(path)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def escape_field(text: str) -> str:
    """``text`` with each tab and each of ``LINE_BREAKS`` written as its Python escape, such as ``\\t``."""
    return text.translate(_ESCAPED_SEPARATORS)


def write_rows(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Each row's fields joined by tabs, one row per line; the write-side twin of :func:`read_rows`.

    DataError naming the file, which is left as it was, if a field holds a
    tab or one of ``LINE_BREAKS``.
    """
    lines = []
    for row in rows:
        for field in row:
            if _SEPARATOR.search(field):
                what = "tab" if "\t" in field else "line break"
                raise DataError(f"{path}: {what} in field {field!r}")
        lines.append("\t".join(row) + "\n")
    atomic_write_text(path, "".join(lines))


def read_rows(path: str | Path, num_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated text file."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.strip():
            fields = line.split("\t")
            if len(fields) != num_fields:
                raise DataError(f"{path}:{lineno}: expected {num_fields} tab-separated fields")
            yield lineno, fields


class _Reader:
    """Reads an artifact's fields in order from its open file.

    Each field is checked against the file's size before it is read, and
    only the fields asked for are read.
    """

    def __init__(self, path: Path, handle: BinaryIO, magic: bytes):
        self.path = path
        self.handle = handle
        self.size = os.fstat(handle.fileno()).st_size
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
        """``n``, once the next ``n`` bytes are known to be in the file; this read consumes them."""
        if self.pos + n > self.size:
            raise DataError(f"{self.path}: truncated artifact")
        self.pos += n
        return n

    def read_bytes(self, n: int) -> bytes:
        return self.handle.read(self._take(n))

    def read_u32(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.read_bytes(4 * n))

    def read_f64(
        self, *shapes: tuple[int, ...], dtype=np.float64, keep: int | None = None
    ) -> list[np.ndarray]:
        """The arrays that end the file, one writable array of ``dtype`` per shape.

        Each array is read and decoded on its own, so at most one array's bytes
        are held at a time.  Only the first ``keep`` arrays, when given, are
        read and returned; the rest are skipped, and the trailing-bytes check
        still sees the whole file.
        """
        arrays = []
        for i, shape in enumerate(shapes):
            n = 8 * math.prod(shape)
            if keep is not None and i >= keep:
                self.handle.seek(self._take(n), os.SEEK_CUR)
            else:
                raw = np.frombuffer(self.read_bytes(n), dtype="<f8")
                arrays.append(raw.astype(dtype).reshape(shape))
        if self.pos != self.size:
            raise DataError(f"{self.path}: {self.size - self.pos} trailing bytes")
        return arrays


@contextmanager
def _reader(path: str | Path, magic: bytes) -> Iterator[_Reader]:
    """A :class:`_Reader` past the magic and version of the artifact at ``path``."""
    path = Path(path)
    with _open(path) as handle:
        yield _Reader(path, handle, magic)


def _write(path: str | Path, magic: bytes, dims: list[int | bytes], arrays: list[np.ndarray]) -> None:
    """Magic, version, ``dims`` as uint32 (bytes as they are), then ``arrays`` as float64.

    The header and then each array are streamed into the temp file one at a
    time: a little-endian float64 C-contiguous array is written as it is, and
    any other is converted on its own, so at most one array is copied at once.
    """
    header = b"".join(
        [magic, *(d if isinstance(d, bytes) else struct.pack("<I", d) for d in (FORMAT_VERSION, *dims))]
    )
    with _atomic_file(path) as handle:
        handle.write(header)
        for a in arrays:
            handle.write(np.ascontiguousarray(a, dtype="<f8"))


def write_feature_archive(path: str | Path, frames: np.ndarray) -> None:
    _write(path, b"TCLF", list(frames.shape), [frames])


def read_feature_archive(path: str | Path) -> np.ndarray:
    with _reader(path, b"TCLF") as reader:
        (frames,) = reader.read_f64(reader.read_u32(2))
    return frames


def read_feature_shape(path: str | Path) -> tuple[int, int]:
    """(frames, dim) of a feature archive, read from its 16-byte header alone."""
    with _reader(path, b"TCLF") as reader:
        return reader.read_u32(2)


def write_network(path: str | Path, params: NetworkParams) -> None:
    arch = params.arch
    heads = [(name.encode("utf-8"), k) for name, k in arch.output_heads]
    dims = [arch.input_dim, len(arch.hidden_layers), *arch.hidden_layers, len(heads)]
    dims += [field for name, k in heads for field in (len(name), name, k)]
    layers = zip(params.weights + params.head_weights, params.biases + params.head_biases)
    seed = struct.pack("<Q", params.rng_seed)
    _write(path, b"TCLN", [*dims, seed], [a for pair in layers for a in pair])


def read_network(path: str | Path, dtype=np.float64, layer: str | None = None) -> NetworkParams:
    """The network at ``path``, its arrays decoded to ``dtype``.

    With ``layer``, only the hidden layers up to and including it are read,
    for feature extraction: the weight and bias lists stop there, the head
    lists are empty, and ``arch`` still describes the whole file.
    """
    with _reader(path, b"TCLN") as reader:
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
        shapes = [s for n_in, n_out in layers for s in ((n_in, n_out), (n_out,))]
        keep = None if layer is None else 2 * (arch.layer_index(layer) + 1)
        arrays = reader.read_f64(*shapes, dtype=dtype, keep=keep)
    n = 2 * len(hidden)
    return NetworkParams(arch, arrays[:n:2], arrays[1:n:2], arrays[n::2], arrays[n + 1 :: 2], seed)


def write_pca(path: str | Path, model: PcaModel) -> None:
    dims = [model.input_dim, model.output_dim]
    _write(path, b"TCLP", dims, [model.mean, model.eigenvalues, model.basis])


def read_pca(path: str | Path) -> PcaModel:
    with _reader(path, b"TCLP") as reader:
        dim, out_dim = reader.read_u32(2)
        mean, eigenvalues, basis = reader.read_f64((dim,), (out_dim,), (out_dim, dim))
    return PcaModel(mean=mean, basis=basis, eigenvalues=eigenvalues)


def write_gmm(path: str | Path, model: GmmModel) -> None:
    _write(path, b"TCLG", list(model.means.shape), [model.weights, model.means, model.variances])


def read_gmm(path: str | Path) -> GmmModel:
    with _reader(path, b"TCLG") as reader:
        k, d = reader.read_u32(2)
        weights, means, variances = reader.read_f64((k,), (k, d), (k, d))
    return GmmModel(weights=weights, means=means, variances=variances)
