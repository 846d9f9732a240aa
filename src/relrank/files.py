"""Every input file is read, and every artifact written, through this module.

Text inputs must be UTF-8; :func:`read_lines` names the file and line of
any line that is not.  Binary inputs go through :class:`BinaryReader`,
whose every error is the format's own and names a byte offset.  Writes go
to a temporary file beside the target, which replaces it only once
complete, so an interrupted stage never leaves a truncated artifact; the
target's directory is created as needed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import DataError


def file_digest(path) -> str:
    """The SHA-256 of a file's bytes: how provenance names an input."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_lines(path):
    """Yield (line number, stripped line) for each non-blank line.

    Lines end at ``\\n``, ``\\r\\n`` or a bare ``\\r``, as in any text-mode
    read.  A line that is not UTF-8 raises DataError naming file and line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise DataError(
                    f"{path}:{line_no}: invalid UTF-8 (byte 0x{byte:02x})") from None
            yield line_no, line


class BinaryReader:
    """Streams a binary file, checking every read against the file's size.

    Each failure is raised as ``error`` and names its byte offset; readers
    of a format made of numbered entries set ``entry`` to name it too.
    """

    def __init__(self, path, error: type[DataError]):
        self.path = path
        self.error = error
        self.entry: int | None = None
        self.offset = 0
        self.fh = open(path, "rb")
        self.size = os.fstat(self.fh.fileno()).st_size

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fail(self, problem: str, at: int | None = None) -> DataError:
        """The error to raise for ``problem`` at offset ``at`` (default: here)."""
        at = self.offset if at is None else at
        if self.entry is None:
            return self.error(f"{self.path}: {problem} at offset {at}")
        return self.error(f"{self.path}: entry {self.entry} at byte {at}: {problem}")

    def read(self, size: int) -> bytes:
        left = self.size - self.offset
        if size > left:
            raise self.fail(f"truncated: {size} bytes wanted, {left} left")
        self.offset += size
        return self.fh.read(size)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def array(self, dtype: str, shape) -> np.ndarray:
        """A writable array of ``shape`` whose items are stored as ``dtype``."""
        dtype = np.dtype(dtype)
        raw = self.read(dtype.itemsize * math.prod(shape))
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def _decode(self, raw: bytes, start: int) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail("invalid UTF-8", start + exc.start) from None

    def string(self) -> str:
        """A u16 byte length followed by that many bytes of UTF-8."""
        (n,) = self.unpack("<H")
        return self._decode(self.read(n), self.offset - n)

    def line(self, end: bytes = b"\n", what: str = "line") -> str:
        """UTF-8 text up to the next ``end`` byte, which is consumed.  Only a
        newline-ended line may end at the end of the file instead."""
        start, raw = self.offset, b""
        while not raw.endswith(end):
            chunk = self.fh.peek(1)
            if not chunk:
                if raw and end == b"\n":
                    break
                raise self.fail(f"truncated {what}")
            cut = chunk.find(end) + 1
            part = self.fh.read(cut or len(chunk))
            self.offset += len(part)
            raw += part
        return self._decode(raw.removesuffix(end), start)

    def header(self, magic: bytes, version: int, what: str) -> None:
        """Check the magic bytes and the u32 format version that follows."""
        found = self.read(len(magic))
        if found != magic:
            raise self.fail(f"bad magic {found!r}, expected {magic!r}", 0)
        (found_version,) = self.unpack("<I")
        if found_version != version:
            raise self.fail(f"unsupported {what} version {found_version}", len(magic))

    def end(self) -> None:
        """Reject any bytes after the last record."""
        self.entry = None
        if self.offset != self.size:
            raise self.fail("trailing bytes")


def write_str(fh, s: str) -> None:
    """Write ``s`` as :meth:`BinaryReader.string` reads it."""
    data = s.encode("utf-8")
    fh.write(struct.pack("<H", len(data)))
    fh.write(data)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (``"w"`` for UTF-8
    text, ``"wb"`` for bytes); it replaces ``path`` when the block ends.
    A missing directory of ``path`` is created first."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a final newline."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
