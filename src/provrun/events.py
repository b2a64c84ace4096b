"""Byte codec for the `events` payload block.

Layout (all little-endian): the field names as a counted name table with
an empty entry tail (`container.encode_table`: u32 field count, then per
field a u16 byte length and the UTF-8 field name, no name twice), then per
event one IEEE-754 double per field in field order. The event count is
implied by the remaining length, so identical inputs always encode to
identical bytes.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .container import decode_table, encode_table
from .errors import CorruptContainer


def encode_events(field_names: Sequence[str], rows: Sequence[Sequence[float]]) -> bytes:
    if len(set(field_names)) != len(field_names):
        raise ValueError("the field list names a field twice")
    parts = [encode_table([(name, b"") for name in field_names])]
    pack_row = struct.Struct("<" + "d" * len(field_names)).pack
    for row in rows:
        if len(row) != len(field_names):
            raise ValueError("row length does not match the field list")
        parts.append(pack_row(*row))
    return b"".join(parts)


def decode_events(data: bytes) -> tuple[list[str], list[list[float]]]:
    fields, pos = decode_table(data)
    names = list(fields)
    body = len(data) - pos
    if not names:
        if body:
            raise CorruptContainer("events payload declares no fields but has data")
        return names, []
    row_size = 8 * len(names)
    if body % row_size:
        raise CorruptContainer("events payload length is not a whole number of events")
    unpack_row = struct.Struct("<" + "d" * len(names)).unpack_from
    rows = [list(unpack_row(data, pos + i * row_size)) for i in range(body // row_size)]
    return names, rows
