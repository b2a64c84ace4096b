"""The standard service set: message logging, option application (which
logs every assignment, lineage declarations included), the tool service,
the event store (which is the event every algorithm is handed: one tuple
of floats in schema order), and container persistency (which packs the
kept rows as they pass); and `Lineage`, the
job's one record of its declared inputs and the inputs it reads."""

from __future__ import annotations

import re
import sys
from itertools import islice
from typing import Iterator, Optional

from .components import Component
from .errors import (
    AlgorithmFailure,
    KindMismatch,
    LineageMismatch,
    UnknownComponent,
    UnknownProperty,
)
from .events import PackedRows, row_format
from .container import write_container
from .metadata import MetadataDictionary
from .options import Kind, OptionKey, OptionValue

LINEAGE_COMPONENT = "Provenance"
# ordinals are canonical decimals, so one input cannot be named two ways
_LINEAGE_PROP = re.compile(r"Inputs\.I(0|[1-9][0-9]*)\.(Path|Checksum)\Z")
_LINEAGE_FIELDS = ("Path", "Checksum")  # the order of an input's (path, checksum)

LEVEL_INFO = 2
LEVEL_ERROR = 4

_LEVEL_NAMES = {0: "DEBUG", 1: "VERBOSE", 2: "INFO", 3: "WARNING", 4: "ERROR"}

_KEEP_CHUNK = 1024  # rows the writer holds as tuples before it packs them


class Lineage:
    """A job's input lineage, the only code that knows the reserved keys
    `Provenance.Inputs.I<n>.Path/Checksum`. It holds the config's
    declarations, by (ordinal, field), and the inputs the job reads, as
    (path, checksum) in read order: an input's ordinal is its position."""

    def __init__(self):
        self.declared: dict[tuple[int, str], object] = {}
        self.inputs: list[tuple[str, int]] = []

    @staticmethod
    def _key(ordinal: int, field: str) -> str:
        return f"{LINEAGE_COMPONENT}.Inputs.I{ordinal}.{field}"

    def declare(self, key: OptionKey, value: OptionValue) -> None:
        """Take one reserved assignment from the config, checking its form."""
        match = _LINEAGE_PROP.match(key.prop)
        if match is None:
            raise UnknownProperty(f"{key.text} is not a valid reserved lineage key "
                                  f"({LINEAGE_COMPONENT}.Inputs.I<n>.Path/Checksum)")
        if match[2] == "Path":
            if value.kind is not Kind.TEXT:
                raise KindMismatch(f"{key.text} must be text")
        elif value.kind is not Kind.INTEGER or not 0 <= value.value <= 0xFFFFFFFF:
            raise KindMismatch(f"{key.text} must be a crc32c integer")
        self.declared[int(match[1]), match[2]] = value.value

    def next_is_declared(self) -> bool:
        """Whether the config declares the input the job reads next."""
        return any(ordinal == len(self.inputs) for ordinal, _ in self.declared)

    def record(self, path: str, checksum: int) -> None:
        """Enter the next input read; it must match what is declared of it."""
        ordinal = len(self.inputs)
        for field, read in zip(_LINEAGE_FIELDS, (path, checksum)):
            declared = self.declared.get((ordinal, field), read)
            if declared != read:
                raise LineageMismatch(f"{self._key(ordinal, field)} is declared as "
                                      f"{declared!r} but the job reads {read!r}")
        self.inputs.append((path, checksum))

    def check_declared_were_read(self) -> None:
        """Refuse declarations that name inputs the job did not read."""
        declared = sorted({ordinal for ordinal, _ in self.declared})
        if declared and declared != list(range(len(self.inputs))):
            raise LineageMismatch(
                f"config declares input ordinals {declared} but the job "
                f"consumed {len(self.inputs)} input(s)")

    def items(self) -> Iterator[tuple[str, object]]:
        """The reserved (key, value) pairs of the inputs read, for the capture."""
        for ordinal, read in enumerate(self.inputs):
            for field, value in zip(_LINEAGE_FIELDS, read):
                yield self._key(ordinal, field), value


class Service(Component):
    def start(self, job) -> None:
        pass

    def stop(self, job) -> None:
        pass


class MessageSvc(Service):
    """Writes messages to stderr when their level clears OutputLevel."""

    PROPERTIES = (("OutputLevel", Kind.INTEGER, 3),)

    def log(self, level: int, component: str, message: str) -> None:
        if level >= self.value("OutputLevel"):
            label = _LEVEL_NAMES.get(level, str(level))
            print(f"{component:<20} {label:>8}  {message}", file=sys.stderr)


class JobOptionsSvc(Service):
    """Applies every configured assignment to its component and keeps the
    exact log of what was applied; the capture-completeness tests compare
    the provenance dictionary against this log."""

    def __init__(self):
        super().__init__()
        self.applied_log: list[tuple[OptionKey, OptionValue]] = []

    def apply_all(self, job) -> list[tuple[OptionKey, OptionValue]]:
        self.applied_log = []
        for key, value in job.config:
            if key.component == LINEAGE_COMPONENT:
                job.lineage.declare(key, value)
            else:
                target = job.find_component(key.component)
                if target is None:
                    raise UnknownComponent(
                        f"assignment {key.text} names no component in this job")
                target.spec(key.prop).apply(value)
            self.applied_log.append((key, value))
        return list(self.applied_log)


class ToolSvc(Service):
    """The standard tool service; it holds no state. `Job.tool` makes the one
    instance of a catalogued tool on first request and keeps it, like every
    instance, in the job's name table."""


class EventDataSvc(Service):
    """The event moving through the algorithm chain: its `index`, set by the
    source as the event enters the chain, and its `row`, a tuple of one
    float per name of `fields` (the job's schema) in that order. `row` is
    set for each `process` call; a stage that overrides `stream` is handed
    the rows instead. A row is never changed in place: an algorithm that
    transforms the event assigns it a new `row`, as `put` does. The job keeps
    no row per event: the writer packs each row that leaves the chain into
    bytes, a chunk at a time."""

    def __init__(self):
        super().__init__()
        self.fields: list[str] = []
        self.index = 0
        self.row: tuple[float, ...] = ()

    def column(self, field_name: str) -> Optional[int]:
        """Position of `field_name` in the row; None if the schema lacks it."""
        return self.fields.index(field_name) if field_name in self.fields else None

    def missing_field(self, field_name: str) -> AlgorithmFailure:
        """The failure of reading a field the schema lacks, at this event."""
        return AlgorithmFailure(f"event {self.index} has no field {field_name!r}")

    def _require(self, field_name: str) -> int:
        column = self.column(field_name)
        if column is None:
            raise self.missing_field(field_name)
        return column

    def put(self, field_name: str, value: float) -> None:
        column = self._require(field_name)
        self.row = (*self.row[:column], float(value), *self.row[column + 1:])

    def get(self, field_name: str) -> float:
        return self.row[self._require(field_name)]


class ContainerWriterSvc(Service):
    """Packs the kept rows as execute hands them over, holds the extra
    blocks, then writes the container."""

    def __init__(self):
        super().__init__()
        self.kept = PackedRows()
        self._extra_blocks: list[tuple[str, bytes]] = []

    def keep(self, rows: Iterator[tuple[float, ...]], width: int) -> None:
        """Pack the rows `rows` yields, of `width` floats each, a chunk at a
        time. Rows are taken one by one, so a row taken before `rows` raises
        is kept, and none is taken ahead of need."""
        row = row_format(width)
        chunk: list[tuple[float, ...]] = []
        while True:
            try:
                chunk.extend(islice(rows, _KEEP_CHUNK))
            finally:
                self.kept.extend(row, chunk)
            if len(chunk) < _KEEP_CHUNK:
                return
            chunk.clear()

    def add_block(self, name: str, payload: bytes) -> None:
        self._extra_blocks.append((name, payload))

    def write(self, path, fields: list[str],
              info: Optional[MetadataDictionary]) -> dict[str, int]:
        try:
            events = self.kept.block(fields)
        except ValueError as exc:
            raise AlgorithmFailure(f"cannot write the kept events: {exc}") from exc
        return write_container(path, [("events", events), *self._extra_blocks], info)
