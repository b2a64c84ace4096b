"""The standard service set: message logging, option application (which
logs every assignment, lineage declarations included), the tool service,
the event store (which is the event every algorithm is handed: one tuple
of floats in schema order), and container persistency (which packs the
kept rows as they pass and streams them to the output file); and
`Lineage`, the job's one record of its declared inputs and the inputs it
reads."""

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
    WriteFailure,
)
from .events import PackedRows, field_table, row_format
from .container import ContainerWriter
from .metadata import MetadataDictionary
from .options import Kind, OptionKey, OptionValue

LINEAGE_COMPONENT = "Provenance"
# ordinals are canonical decimals, so one input cannot be named two ways
_LINEAGE_PROP = re.compile(r"Inputs\.I(0|[1-9][0-9]*)\.(Path|Checksum)\Z")
_LINEAGE_FIELDS = ("Path", "Checksum")  # the order of an input's (path, checksum)

LEVEL_INFO = 2
LEVEL_ERROR = 4

_LEVEL_NAMES = {0: "DEBUG", 1: "VERBOSE", 2: "INFO", 3: "WARNING", 4: "ERROR"}

_KEEP_BYTES = 32 * 1024  # packed size of the most rows the writer holds as tuples
_UNIT = 256 * 1024  # packed bytes the writer holds before it streams them out


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
            component, _, prop = key.partition(".")  # one split, not three properties
            if component == LINEAGE_COMPONENT:
                job.lineage.declare(key, value)
            else:
                target = job.find_component(component)
                if target is None:
                    raise UnknownComponent(
                        f"assignment {key.text} names no component in this job")
                target.apply(prop, value)
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
    bytes, a chunk at a time, and writes them out a unit at a time."""

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
    """Packs the kept rows as execute hands them over and streams them, a
    unit at a time, into the output's `events` block; holds the extra
    blocks; and finishes the container at finalize. The output's temporary
    file is opened at the first unit, and a failure to write it is kept
    and raised at finalize: execute never fails on the output. A misfit row
    or a failed write leaves no output, nor does a job stopped or dropped
    unfinished."""

    def __init__(self):
        super().__init__()
        self.kept = PackedRows()
        self._extra_blocks: list[tuple[str, bytes]] = []
        self._output: Optional[ContainerWriter] = None  # from the first unit on
        self._failure: Optional[Exception] = None  # raised at finalize

    def keep(self, rows: Iterator[tuple[float, ...]], path, fields: list[str]) -> None:
        """Pack the rows `rows` yields, one float per name of `fields` each,
        a chunk at a time, and stream each full unit into the container at
        `path` (none when it is empty); once a worker chains the block's
        crc32c, stream each chunk, so that the worker is never more than a
        chunk behind. Rows are taken one by one, so a row taken before
        `rows` raises is kept, and none is taken ahead of need."""
        row = row_format(len(fields))
        # 1024 rows of up to four fields, and one row of over 32 KiB
        chunk_rows = max(1, _KEEP_BYTES // max(row.size, 32))
        chunk: list[tuple[float, ...]] = []
        while True:
            try:
                chunk.extend(islice(rows, chunk_rows))
            finally:
                self.kept.extend(row, chunk)
            if len(self.kept.body) >= _UNIT or self._output and self._output.feeds_worker:
                self._stream(path, fields)
            if len(chunk) < chunk_rows:
                return
            chunk.clear()

    def _stream(self, path, fields: list[str], whole: bool = True) -> None:
        """Hand the rows packed so far to the output, opened at the first
        unit, as a whole unit or else as the block's last piece; a failure
        is kept, for finalize to raise."""
        unit = self.kept.take()
        if path and self._failure is None:
            try:
                if self._output is None:
                    header = field_table(fields)
                    self._output = ContainerWriter(path)
                    self._output.add(header)
                (self._output.add_unit if whole else self._output.add)(unit)
            except (WriteFailure, ValueError) as exc:
                self._failure = exc

    def add_block(self, name: str, payload: bytes) -> None:
        self._extra_blocks.append((name, payload))

    def write(self, path, fields: list[str],
              info: Optional[MetadataDictionary]) -> dict[str, int]:
        """Finish the container at `path`, the one `keep` streamed to; a
        failure leaves no output."""
        try:
            try:
                field_table(fields)
                self.kept.check(len(fields))
            except ValueError as exc:
                raise AlgorithmFailure(f"cannot write the kept events: {exc}") from exc
            self._stream(path, fields, whole=False)
            if self._failure is not None:
                raise self._failure
            self._output.end_block("events")
            for name, payload in self._extra_blocks:
                self._output.add_block(name, payload)
            return self._output.finish(info)
        except BaseException:
            self._abandon()
            raise

    def stop(self, job) -> None:
        self._abandon()

    def _abandon(self) -> None:
        """Remove the output, if it is unfinished."""
        if self._output is not None:
            self._output.abandon()
