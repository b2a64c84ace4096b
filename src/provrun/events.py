"""Byte codec for the `events` payload block.

Layout (all little-endian): u32 field count, then per field a u16 byte
length and the UTF-8 field name (no name twice), then per event one
IEEE-754 double per field in field order. The event count is implied by
the remaining length, so identical inputs always encode to identical bytes.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .errors import CorruptContainer

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


def encode_events(field_names: Sequence[str], rows: Sequence[Sequence[float]]) -> bytes:
    if len(set(field_names)) != len(field_names):
        raise ValueError("the field list names a field twice")
    parts = [_U32.pack(len(field_names))]
    for name in field_names:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"field name too long: {name[:32]!r}...")
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
    pack_row = struct.Struct("<" + "d" * len(field_names)).pack
    for row in rows:
        if len(row) != len(field_names):
            raise ValueError("row length does not match the field list")
        parts.append(pack_row(*row))
    return b"".join(parts)


def decode_events(data: bytes) -> tuple[list[str], list[list[float]]]:
    if len(data) < 4:
        raise CorruptContainer("events payload shorter than its header")
    (field_count,) = _U32.unpack_from(data, 0)
    pos = 4
    names = []
    for _ in range(field_count):
        if pos + 2 > len(data):
            raise CorruptContainer("truncated events field table")
        (name_len,) = _U16.unpack_from(data, pos)
        pos += 2
        if pos + name_len > len(data):
            raise CorruptContainer("truncated events field name")
        try:
            names.append(data[pos:pos + name_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptContainer(f"events field name is not UTF-8: {exc}") from None
        pos += name_len
    if len(set(names)) != len(names):
        raise CorruptContainer("events field table names a field twice")
    body = len(data) - pos
    if field_count == 0:
        if body:
            raise CorruptContainer("events payload declares no fields but has data")
        return names, []
    row_size = 8 * field_count
    if body % row_size:
        raise CorruptContainer("events payload length is not a whole number of events")
    unpack_row = struct.Struct("<" + "d" * field_count).unpack_from
    rows = [list(unpack_row(data, pos + i * row_size)) for i in range(body // row_size)]
    return names, rows
