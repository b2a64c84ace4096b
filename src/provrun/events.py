"""Byte codec for the `events` payload block.

Layout (all little-endian): the field names as a counted name table with
an empty entry tail (`container.encode_table`: u32 field count, then per
field a u16 byte length and the UTF-8 field name, no name twice), then per
event one IEEE-754 double per field in field order. The event count is
implied by the remaining length, so identical inputs always encode to
identical bytes.

Both directions work a row at a time: `PackedRows` packs rows as they come
into a body that the writer takes a unit at a time, and `iter_events`
unpacks rows lazily from a block's bytes, so neither holds one Python
object per event.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Iterator, Sequence

from .container import decode_table, encode_table
from .errors import CorruptContainer


def row_format(width: int) -> struct.Struct:
    """One event's row: `width` little-endian doubles."""
    return struct.Struct("<" + "d" * width)


def field_table(field_names: Sequence[str]) -> bytes:
    """The block's leading field table; a name listed twice is refused."""
    if len(set(field_names)) != len(field_names):
        raise ValueError("the field list names a field twice")
    return encode_table([(name, b"") for name in field_names])


class PackedRows:
    """The body of an events block, packed as rows are added and handed on
    by `take`. The first row that does not pack stops the packing: it is
    kept with its error, later rows are only counted, and `check` raises
    that error, naming the row by its index among all the rows added."""

    def __init__(self):
        self.body = bytearray()  # the rows packed since the last `take`
        self.count = 0  # rows added, packed or not
        self._misfit = None  # (index, row, exception) of the first row that did not pack

    def extend(self, row: struct.Struct, rows: Sequence) -> None:
        if self._misfit is None:
            pack_row = row.pack
            try:
                self.body += b"".join(starmap(pack_row, rows))
            except Exception:
                # find the row, one at a time; whatever it raised, `check`
                # raises at the write, as a whole-list encode there would
                for index, kept in enumerate(rows):
                    try:
                        self.body += b"".join(starmap(pack_row, (kept,)))
                    except Exception as exc:
                        self._misfit = (self.count + index, kept, exc)
                        break
        self.count += len(rows)

    def take(self) -> bytearray:
        """The rows packed since the last call, which the body lets go."""
        body, self.body = self.body, bytearray()
        return body

    def check(self, field_count: int) -> None:
        """Raise the error of the first row that did not pack, if any."""
        if self._misfit is not None:
            index, row, exc = self._misfit
            if not isinstance(exc, struct.error):
                raise exc
            raise ValueError(f"row {index} of width {len(row)} does not fit "
                             f"{field_count} float fields: {exc}")


def encode_events(field_names: Sequence[str], rows: Sequence[Sequence[float]]) -> bytes:
    packed = PackedRows()
    packed.extend(row_format(len(field_names)), rows)
    header = field_table(field_names)
    packed.check(len(field_names))
    return header + packed.take()


def iter_events(data) -> tuple[list[str], int, Iterator[tuple[float, ...]]]:
    """The field names, the event count and the rows of a checked `events`
    block, unpacked one tuple of floats at a time as they are taken."""
    fields, pos = decode_table(data)
    names = list(fields)
    body = memoryview(data)[pos:]
    if not names:
        if body:
            raise CorruptContainer("events payload declares no fields but has data")
        return names, 0, iter(())
    row = row_format(len(names))
    if len(body) % row.size:
        raise CorruptContainer("events payload length is not a whole number of events")
    return names, len(body) // row.size, row.iter_unpack(body)


def decode_events(data: bytes) -> tuple[list[str], list[tuple[float, ...]]]:
    """The field names and one tuple of floats per event, in field order."""
    names, _, rows = iter_events(data)
    return names, list(rows)
