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
from itertools import chain, starmap
from typing import Sequence

from .container import decode_table, encode_table
from .errors import CorruptContainer


def encode_events(field_names: Sequence[str], rows: Sequence[Sequence[float]]) -> bytes:
    if len(set(field_names)) != len(field_names):
        raise ValueError("the field list names a field twice")
    header = encode_table([(name, b"") for name in field_names])
    pack_row = struct.Struct("<" + "d" * len(field_names)).pack
    try:
        return b"".join(chain((header,), starmap(pack_row, rows)))
    except struct.error as exc:
        for index, row in enumerate(rows):  # the failure path only: find the row
            try:
                pack_row(*row)
            except struct.error:
                break
        raise ValueError(f"row {index} of width {len(row)} does not fit "
                         f"{len(field_names)} float fields: {exc}") from None


def decode_events(data: bytes) -> tuple[list[str], list[tuple[float, ...]]]:
    """The field names and one tuple of floats per event, in field order."""
    fields, pos = decode_table(data)
    names = list(fields)
    body = len(data) - pos
    if not names:
        if body:
            raise CorruptContainer("events payload declares no fields but has data")
        return names, []
    if body % (8 * len(names)):
        raise CorruptContainer("events payload length is not a whole number of events")
    return names, list(struct.iter_unpack("<" + "d" * len(names), memoryview(data)[pos:]))
