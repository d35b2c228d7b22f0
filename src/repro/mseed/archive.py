"""Internally-chunked archive files and URI-based chunk access.

The paper notes that chunked data does not always mean one-file-per-chunk:
"there are other cases, like BAM files used in genome sequencing, where
huge files are internally chunked" (Section II-C), and lists new sources as
future work (Section VIII).  This module provides both:

* :func:`pack_archive` concatenates xseed volumes into one ``.xar`` archive
  with an entry index (name → offset/length);
* :class:`ArchiveRepository` exposes the archive's entries as chunks with
  URIs of the form ``/path/to/data.xar#entry-name``;
* :func:`open_chunk` resolves any chunk URI — plain file path or archive
  member — into a file-like object, which the xseed reader uses for all
  access paths (so the Registrar's header scan and lazy chunk loading
  work on archives unchanged).
"""

from __future__ import annotations

import io
import os
import struct

from ..engine.errors import FormatError
from .repository import ChunkInfo

__all__ = ["pack_archive", "ArchiveRepository", "open_chunk", "split_uri"]

ARCHIVE_MAGIC = b"XAR1"
ARCHIVE_SUFFIX = ".xar"
_COUNT = struct.Struct("<I")
_ENTRY_FIXED = struct.Struct("<HQQ")  # name length, offset, length


def split_uri(uri: str) -> tuple[str, str | None]:
    """Split a chunk URI into (path, member); member is None for files."""
    if "#" in uri:
        path, member = uri.split("#", 1)
        return path, member
    return uri, None


def pack_archive(archive_path: str, chunk_paths: list[str]) -> int:
    """Concatenate chunk files into one archive; returns bytes written.

    Entry names are the chunks' base names and must be unique.
    """
    names = [os.path.basename(p) for p in chunk_paths]
    if len(set(names)) != len(names):
        raise FormatError("archive entries must have unique base names")
    sizes = [os.path.getsize(p) for p in chunk_paths]
    header_size = len(ARCHIVE_MAGIC) + _COUNT.size + sum(
        _ENTRY_FIXED.size + len(n.encode("utf-8")) for n in names
    )
    offsets = []
    cursor = header_size
    for size in sizes:
        offsets.append(cursor)
        cursor += size
    os.makedirs(os.path.dirname(os.path.abspath(archive_path)), exist_ok=True)
    with open(archive_path, "wb") as out:
        out.write(ARCHIVE_MAGIC)
        out.write(_COUNT.pack(len(names)))
        for name, offset, size in zip(names, offsets, sizes):
            blob = name.encode("utf-8")
            out.write(_ENTRY_FIXED.pack(len(blob), offset, size))
            out.write(blob)
        for path in chunk_paths:
            with open(path, "rb") as source:
                out.write(source.read())
    return cursor


def _read_index(archive_path: str) -> dict[str, tuple[int, int]]:
    """Entry name → (offset, length)."""
    with open(archive_path, "rb") as handle:
        magic = handle.read(len(ARCHIVE_MAGIC))
        if magic != ARCHIVE_MAGIC:
            raise FormatError(f"{archive_path}: bad archive magic {magic!r}")
        (count,) = _COUNT.unpack(handle.read(_COUNT.size))
        index: dict[str, tuple[int, int]] = {}
        for _ in range(count):
            name_len, offset, length = _ENTRY_FIXED.unpack(
                handle.read(_ENTRY_FIXED.size)
            )
            name = handle.read(name_len).decode("utf-8")
            index[name] = (offset, length)
    return index


class _SlicedFile(io.RawIOBase):
    """A read-only window [offset, offset+length) of an underlying file."""

    def __init__(self, handle, offset: int, length: int) -> None:
        self._handle = handle
        self._offset = offset
        self._length = length
        self._position = 0
        handle.seek(offset)

    def read(self, size: int = -1) -> bytes:
        remaining = self._length - self._position
        if size < 0 or size > remaining:
            size = remaining
        if size <= 0:
            return b""
        self._handle.seek(self._offset + self._position)
        data = self._handle.read(size)
        self._position += len(data)
        return data

    def seek(self, position: int, whence: int = 0) -> int:
        if whence == 0:
            target = position
        elif whence == 1:
            target = self._position + position
        elif whence == 2:
            target = self._length + position
        else:  # pragma: no cover - io protocol completeness
            raise ValueError(f"invalid whence {whence}")
        if target < 0:
            raise ValueError("negative seek position")
        self._position = target
        return self._position

    def tell(self) -> int:
        return self._position

    def close(self) -> None:
        try:
            self._handle.close()
        finally:
            super().close()

    def readable(self) -> bool:  # pragma: no cover - io protocol
        return True

    def seekable(self) -> bool:  # pragma: no cover - io protocol
        return True


def open_chunk(uri: str):
    """Open any chunk URI for binary reading.

    Plain paths open directly; ``archive.xar#entry`` URIs open a sliced
    window over the archive.  The returned object supports read/seek/tell
    and closes the underlying file on close.
    """
    path, member = split_uri(uri)
    if member is None:
        return open(path, "rb")
    index = _read_index(path)
    try:
        offset, length = index[member]
    except KeyError:
        raise FormatError(f"{path}: no archive entry {member!r}") from None
    return _SlicedFile(open(path, "rb"), offset, length)


class ArchiveRepository:
    """A repository whose chunks live inside one archive file.

    Implements the same listing interface as
    :class:`~repro.mseed.repository.FileRepository`, with member URIs.
    """

    def __init__(self, archive_path: str) -> None:
        self.archive_path = os.path.abspath(archive_path)

    def exists(self) -> bool:
        return os.path.isfile(self.archive_path)

    def list_chunks(self) -> list[ChunkInfo]:
        index = _read_index(self.archive_path)
        chunks = [
            ChunkInfo(f"{self.archive_path}#{name}", length)
            for name, (_, length) in index.items()
        ]
        chunks.sort(key=lambda c: c.uri)
        return chunks

    def iter_uris(self):
        for chunk in self.list_chunks():
            yield chunk.uri

    @property
    def num_chunks(self) -> int:
        return len(self.list_chunks())

    def total_bytes(self) -> int:
        return sum(chunk.size_bytes for chunk in self.list_chunks())
