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
records. Every offset is known before the first byte is written, so the
writer streams header, payloads, TOC and trailer in order to a temporary
file beside the target and then renames it onto the target
(`write_atomically`): a failed write leaves any earlier file at that path
as it was. Readers seek straight to the TOC, so extracting `info` touches
only the TOC plus that one block regardless of file size.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
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
            name = data[pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptContainer(f"name is not UTF-8: {exc}") from None
        if name in entries:
            raise CorruptContainer(f"name {name!r} listed twice")
        entries[name] = tail.unpack_from(data, end)
        pos = end + tail.size
    return entries, pos


def _normalize_blocks(blocks: Iterable[tuple[str, bytes]]) -> list[tuple[str, bytes]]:
    pairs = list(blocks)
    seen = set()
    for name, payload in pairs:
        if name == INFO_BLOCK:
            raise ReservedNameMisuse(f"block {INFO_BLOCK!r} is reserved; pass the "
                                     f"metadata as info=")
        if name in seen:
            raise DuplicateBlock(f"block {name!r} given twice")
        seen.add(name)
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(f"payload of block {name!r} must be bytes")
    # bytes and bytearray are written as they are, not copied; a memoryview
    # is taken as its bytes, so that its length counts bytes
    return [(name, bytes(payload) if isinstance(payload, memoryview) else payload)
            for name, payload in pairs]


def write_atomically(path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to `path` through a temporary file; on failure remove it
    and raise WriteFailure, leaving any earlier file at `path` as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise WriteFailure(f"cannot write {path}: {exc}") from exc


def refuse_overwrite(source, target) -> None:
    """Raise if `target` names the existing file `source`, symlinks included:
    writing it would destroy the input being read."""
    if os.path.exists(target) and os.path.samefile(source, target):
        raise InvalidConfiguration(
            f"{os.fspath(target)!r} would overwrite the input {os.fspath(source)!r}")


def write_container(path, blocks: Iterable[tuple[str, bytes]],
                    info: Optional[MetadataDictionary] = None) -> dict[str, int]:
    """Write the container; returns each block's crc32c by name.

    `info`, when given, is emitted as the canonical `info` block after the
    `blocks`, none of which may be named `info` (ReservedNameMisuse).
    Rewriting the same blocks yields byte-identical files. A failed write
    raises WriteFailure and leaves any earlier file at `path` as it was.
    """
    pairs = _normalize_blocks(blocks)
    if info is not None:
        pairs.append((INFO_BLOCK, info.emit().encode("utf-8")))
    checksums: dict[str, int] = {}
    offset = _HEADER.size
    entries = []
    for name, payload in pairs:
        crc = crc32c(payload)
        checksums[name] = crc
        entries.append((name, _TOC_ENTRY_TAIL.pack(offset, len(payload), crc)))
        offset += len(payload)
    toc = encode_table(entries)
    write_atomically(path, [_HEADER.pack(MAGIC, FORMAT_VERSION, offset),
                            *(payload for _, payload in pairs),
                            toc, _U32.pack(crc32c(toc))])
    return checksums


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

    def _read_raw(self, name: str) -> bytes:
        """A block's bytes as stored, not checked against its crc32c."""
        offset, length, _ = self._entry(name)
        self._file.seek(offset)
        payload = self._file.read(length)
        if len(payload) != length:
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


def differing_blocks(path_a, path_b) -> list[str]:
    """Sorted names of the blocks other than `info` that one container lacks,
    or whose stored crc32c or bytes differ between the two."""
    with ContainerReader(path_a) as a, ContainerReader(path_b) as b:
        names = (set(a.block_names()) | set(b.block_names())) - {INFO_BLOCK}
        return sorted(name for name in names
                      if not (a.has_block(name) and b.has_block(name))
                      or a.block_crc(name) != b.block_crc(name)
                      or a._read_raw(name) != b._read_raw(name))


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
