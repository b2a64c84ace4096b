"""The chunked output container: named payload blocks plus a reserved `info`
block carrying the canonical metadata document, which only the writer emits.

File layout (integers little-endian):

    magic            8 bytes: 50 44 43 31 0D 0A 1A 0A  ("PDC1" + tail that
                     catches line-ending and charset mangling)
    format_version   u32 = 1
    toc_offset       u64
    payloads         raw block bytes, concatenated in write order
    TOC              a counted name table whose entry tail is u64 offset,
                     u64 length, u32 crc32c of the payload
    trailer          u32 crc32c over the TOC bytes

A counted name table, shared with the `events` block's field list
(`encode_table`/`decode_table`), is a u32 entry count, then per entry a
u16 byte length, the UTF-8 name and a fixed-size tail (empty for `events`);
no name appears twice.

The TOC sits at the end, after the payloads whose offsets and checksums it
records, so the writer (`ContainerWriter`) need not know a block before it
comes: it streams the header, each payload as its pieces arrive (chaining
the block's crc32c over them in the writer's process), the TOC and the
trailer in order to a temporary file beside the target. Only `toc_offset`
is not known when the header is written; it is written as 0 and patched
last, and then the temporary file is renamed onto the target
(`AtomicFile`): a failed or unfinished write leaves any earlier file at
that path as it was. Readers seek straight to the TOC, so extracting
`info` touches only the TOC plus that one block regardless of file size.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import struct
import weakref
from typing import BinaryIO, Iterable, Optional, Sequence, Union

from . import options
from .crc import crc32c
from .metadata import MetadataDictionary
from .errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptContainer,
    DuplicateBlock,
    InvalidConfiguration,
    MissingInfo,
    ReservedNameMisuse,
    UnknownBlock,
    UnsupportedVersion,
    WriteFailure,
)

MAGIC = b"PDC1\r\n\x1a\n"
FORMAT_VERSION = 1
INFO_BLOCK = "info"

_HEADER = struct.Struct("<8sIQ")
_TOC_ENTRY_TAIL = struct.Struct("<QQI")
_NO_TAIL = struct.Struct("<")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TOC_OFFSET_AT = _HEADER.size - _U64.size  # where the header holds toc_offset
_COMPARE_PIECE = 256 * 1024  # bytes of each block that differing_blocks reads at a time


def encode_table(entries: Sequence[tuple[str, bytes]]) -> bytes:
    """The counted name table of (name, packed entry tail) pairs."""
    parts = [_U32.pack(len(entries))]
    for name, tail in entries:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"name too long: {name[:32]!r}...")
        parts += (_U16.pack(len(encoded)), encoded, tail)
    return b"".join(parts)


def decode_table(data: bytes, tail: struct.Struct = _NO_TAIL
                 ) -> tuple[dict[str, tuple], int]:
    """The counted name table at the start of `data`: each name's unpacked
    `tail` in table order, and the offset just past the table."""
    if len(data) < _U32.size:
        raise CorruptContainer("truncated name table")
    (count,) = _U32.unpack_from(data, 0)
    pos = _U32.size
    entries: dict[str, tuple] = {}
    for _ in range(count):
        if pos + _U16.size > len(data):
            raise CorruptContainer("truncated name table")
        (name_len,) = _U16.unpack_from(data, pos)
        pos += _U16.size
        end = pos + name_len
        if end + tail.size > len(data):
            raise CorruptContainer("truncated name table")
        try:
            name = str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptContainer(f"name is not UTF-8: {exc}") from None
        if name in entries:
            raise CorruptContainer(f"name {name!r} listed twice")
        entries[name] = tail.unpack_from(data, end)
        pos = end + tail.size
    return entries, pos


_TEMPORARIES = itertools.count()  # one temporary name per write in this process


def _temporary_name(path) -> str:
    """`<path>.<pid>.<n>.tmp`, the name of `path` cut to fit its directory's
    name limit."""
    directory, sep, name = os.fspath(path).rpartition(os.sep)
    suffix = f".{os.getpid()}.{next(_TEMPORARIES)}.tmp"
    try:
        room = os.pathconf(directory + sep or os.curdir, "PC_NAME_MAX") - len(suffix)
    except (AttributeError, OSError, ValueError):  # no limit to read
        room = 0
    while 0 < room < len(os.fsencode(name)):
        name = name[:-1]  # whole characters, so the name stays valid text
    return directory + sep + name + suffix


def _remove_temporary(close, temporary: str) -> None:
    """Close a temporary file and remove it, as far as the system lets."""
    with contextlib.suppress(OSError):
        close()
    with contextlib.suppress(OSError):
        os.remove(temporary)


class AtomicFile:
    """Bytes written to `path` through a temporary file beside it,
    `<path>.<pid>.<n>.tmp` with the name of `path` cut to fit the
    directory's name limit, opened when made; `commit` renames it onto
    `path`. A failed write or commit, `abandon`, a failure inside `with`,
    and a file dropped uncommitted close and remove the temporary, leaving
    any earlier file at `path` as it was. An OSError is raised as
    WriteFailure, anything else as it came."""

    def __init__(self, path):
        self.path = path
        self.size = 0  # bytes written
        self._temporary = _temporary_name(path)
        closing = contextlib.ExitStack()
        try:
            self._file = closing.enter_context(open(self._temporary, "wb"))
        except OSError as exc:
            raise WriteFailure(f"cannot write {path}: {exc}") from exc
        self._close = closing.close
        # closes and removes the temporary unless it is committed
        self._discard = weakref.finalize(self, _remove_temporary, closing.close,
                                         self._temporary)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if exc is not None:
            self.abandon()
            if isinstance(exc, OSError):
                raise WriteFailure(f"cannot write {self.path}: {exc}") from exc

    def write(self, data) -> None:
        with self:
            self.size += self._file.write(data)

    def commit(self) -> None:
        with self:
            self._close()
            os.replace(self._temporary, self.path)
            self._discard.detach()

    def abandon(self) -> None:
        self._discard()


def write_atomically(path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to `path` through an AtomicFile."""
    with AtomicFile(path) as out:
        for chunk in chunks:
            out.write(chunk)
        out.commit()


def refuse_overwrite(source, target) -> None:
    """Raise if `target` names the existing file `source`, symlinks included:
    writing it would destroy the input being read."""
    if os.path.exists(target) and os.path.samefile(source, target):
        raise InvalidConfiguration(
            f"{os.fspath(target)!r} would overwrite the input {os.fspath(source)!r}")


class ContainerWriter(AtomicFile):
    """A container written to `path` as its blocks come: the header, with a
    placeholder `toc_offset`, at once; then each block's bytes as they are
    `add`ed, chaining its crc32c over them, until `end_block` names them;
    then, at `finish`, the `info` block, the TOC, the trailer, the real
    `toc_offset` and the rename."""

    def __init__(self, path):
        super().__init__(path)
        self._blocks: dict[str, tuple[int, int, int]] = {}  # offset, length, crc32c
        self._crc = 0  # of the bytes added since the last block ended
        self.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        self._start = self.size

    def add(self, piece) -> None:
        with self:
            self._crc = crc32c(piece, self._crc)
            self.write(piece)

    def end_block(self, name: str) -> None:
        """Make the bytes added since the last block ended the block `name`."""
        if name in self._blocks:
            raise DuplicateBlock(f"block {name!r} given twice")
        self._blocks[name] = (self._start, self.size - self._start, self._crc)
        self._start, self._crc = self.size, 0

    def add_block(self, name: str, payload) -> None:
        if name == INFO_BLOCK:
            raise ReservedNameMisuse(f"block {INFO_BLOCK!r} is reserved; pass the "
                                     f"metadata as info=")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(f"payload of block {name!r} must be bytes")
        self.add(payload)
        self.end_block(name)

    def finish(self, info: Optional[MetadataDictionary] = None) -> dict[str, int]:
        """Write `info`, the TOC and the trailer, set `toc_offset` and rename
        the file onto `path`; returns each block's crc32c by name."""
        if info is not None:
            self.add(info.emit().encode("utf-8"))
            self.end_block(INFO_BLOCK)
        toc_offset = self.size
        toc = encode_table([(name, _TOC_ENTRY_TAIL.pack(*entry))
                            for name, entry in self._blocks.items()])
        self.write(toc)
        self.write(_U32.pack(crc32c(toc)))
        with self:
            self._file.seek(_TOC_OFFSET_AT)
            self._file.write(_U64.pack(toc_offset))
        self.commit()
        return {name: crc for name, (_, _, crc) in self._blocks.items()}


def write_container(path, blocks: Iterable[tuple[str, bytes]],
                    info: Optional[MetadataDictionary] = None) -> dict[str, int]:
    """Write the container through a ContainerWriter; returns each block's
    crc32c by name.

    `info`, when given, is emitted as the canonical `info` block after the
    `blocks`, none of which may be named `info` (ReservedNameMisuse).
    Rewriting the same blocks yields byte-identical files. A failed write
    raises WriteFailure and leaves any earlier file at `path` as it was.
    """
    with ContainerWriter(path) as writer:
        for name, payload in blocks:
            writer.add_block(name, payload)
        return writer.finish(info)


class ContainerReader:
    """Seek-based reader: loads the TOC once, then reads blocks on demand.

    Accepts a path or an open binary file (the latter lets callers meter
    the bytes actually read).
    """

    def __init__(self, source: Union[str, os.PathLike, BinaryIO]):
        if hasattr(source, "read"):
            self._file: BinaryIO = source
            self._owns_file = False
        else:
            try:
                self._file = open(source, "rb")
            except OSError as exc:
                raise CorruptContainer(f"cannot open {source}: {exc}") from exc
            self._owns_file = True
        try:
            self._load_toc()
        except Exception:
            self.close()
            raise

    def _load_toc(self) -> None:
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:8] != MAGIC:
            raise BadMagic("not a container file (bad magic)")
        _, version, toc_offset = _HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"format version {version} is not supported")
        size = self._file.seek(0, io.SEEK_END)
        if not _HEADER.size <= toc_offset <= size - 8:
            raise CorruptContainer("table of contents offset out of bounds")
        self._file.seek(toc_offset)
        tail = self._file.read(size - toc_offset)
        toc, (stored_crc,) = tail[:-4], _U32.unpack(tail[-4:])
        if crc32c(toc) != stored_crc:
            raise ChecksumMismatch("table of contents checksum mismatch")
        entries, end = decode_table(toc, _TOC_ENTRY_TAIL)
        if end != len(toc):
            raise CorruptContainer("trailing bytes in table of contents")
        previous_end = _HEADER.size
        for name, (offset, length, _) in entries.items():
            if offset < previous_end or offset + length > toc_offset:
                raise CorruptContainer(f"block {name!r} has bad bounds")
            previous_end = offset + length
        self._entries = entries

    def block_names(self) -> list[str]:
        return list(self._entries)

    def has_block(self, name: str) -> bool:
        return name in self._entries

    def block_crc(self, name: str) -> int:
        """Stored crc32c of a block (read_block verifies it against bytes)."""
        return self._entry(name)[2]

    def _entry(self, name: str) -> tuple[int, int, int]:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownBlock(f"no block named {name!r}") from None

    def _read_raw(self, name: str, start: int = 0, size: Optional[int] = None) -> bytes:
        """Up to `size` bytes of a block from `start`, by default all of them,
        as stored, not checked against its crc32c."""
        offset, length, _ = self._entry(name)
        size = length - start if size is None else min(size, length - start)
        self._file.seek(offset + start)
        payload = self._file.read(size)
        if len(payload) != size:
            raise CorruptContainer(f"block {name!r} is truncated")
        return payload

    def read_block(self, name: str) -> bytes:
        payload = self._read_raw(name)
        if crc32c(payload) != self.block_crc(name):
            raise ChecksumMismatch(f"block {name!r} checksum mismatch")
        return payload

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_block(path, name: str) -> bytes:
    with ContainerReader(path) as reader:
        return reader.read_block(name)


def _same_bytes(a: ContainerReader, b: ContainerReader, name: str) -> bool:
    """Whether block `name` holds the same bytes in both, compared a piece at
    a time up to the first that differs."""
    length = a._entry(name)[1]
    return length == b._entry(name)[1] and all(
        a._read_raw(name, start, _COMPARE_PIECE) == b._read_raw(name, start, _COMPARE_PIECE)
        for start in range(0, length, _COMPARE_PIECE))


def differing_blocks(path_a, path_b) -> list[str]:
    """Sorted names of the blocks other than `info` that one container lacks,
    or whose stored crc32c or bytes differ between the two."""
    with ContainerReader(path_a) as a, ContainerReader(path_b) as b:
        names = (set(a.block_names()) | set(b.block_names())) - {INFO_BLOCK}
        return sorted(name for name in names
                      if not (a.has_block(name) and b.has_block(name))
                      or a.block_crc(name) != b.block_crc(name)
                      or not _same_bytes(a, b, name))


def extract_info(path) -> MetadataDictionary:
    """The embedded provenance snapshot: the parsed `info` block, wrapped.

    Reads only the TOC and the info block, never the payloads.
    """
    with ContainerReader(path) as reader:
        if not reader.has_block(INFO_BLOCK):
            raise MissingInfo(f"no provenance recorded in {path}")
        payload = reader.read_block(INFO_BLOCK)
    try:
        text = payload.decode("utf-8")
        parsed = options.parse_options(text)
    except Exception as exc:
        raise CorruptContainer(f"info block is not a valid options "
                               f"document: {exc}") from None
    return MetadataDictionary(parsed)
