"""The standard service set: message logging, option application (which
logs every assignment, lineage declarations included), the tool service,
the event store (which is the event every algorithm is handed: one row of
floats in schema order), and container persistency."""

from __future__ import annotations

import re
import sys
from typing import Optional

from .components import Component
from .errors import (
    AlgorithmFailure,
    KindMismatch,
    UnknownComponent,
    UnknownProperty,
)
from .events import encode_events
from .container import write_container
from .metadata import MetadataDictionary
from .options import Kind, OptionKey, OptionValue

LINEAGE_COMPONENT = "Provenance"
# ordinals are canonical decimals, so one input cannot be named two ways
_LINEAGE_PROP = re.compile(r"Inputs\.I(0|[1-9][0-9]*)\.(Path|Checksum)\Z")

LEVEL_DEBUG = 0
LEVEL_VERBOSE = 1
LEVEL_INFO = 2
LEVEL_WARNING = 3
LEVEL_ERROR = 4

_LEVEL_NAMES = {0: "DEBUG", 1: "VERBOSE", 2: "INFO", 3: "WARNING", 4: "ERROR"}


def lineage_key(ordinal: int, field: str) -> str:
    """The reserved key recording input `ordinal`'s Path or Checksum."""
    return f"{LINEAGE_COMPONENT}.Inputs.I{ordinal}.{field}"


def parse_lineage_key(key: OptionKey) -> tuple[int, str]:
    """Ordinal and field (Path or Checksum) of a reserved lineage key."""
    match = _LINEAGE_PROP.match(key.prop)
    if match is None:
        raise UnknownProperty(f"{key.text} is not a valid reserved lineage key "
                              f"({LINEAGE_COMPONENT}.Inputs.I<n>.Path/Checksum)")
    return int(match[1]), match[2]


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
                self._declare_lineage(job, key, value)
            else:
                target = job.find_component(key.component)
                if target is None:
                    raise UnknownComponent(
                        f"assignment {key.text} names no component in this job")
                target.spec(key.prop).apply(value)
            self.applied_log.append((key, value))
        return list(self.applied_log)

    @staticmethod
    def _declare_lineage(job, key: OptionKey, value: OptionValue) -> None:
        ordinal, field = parse_lineage_key(key)
        if field == "Path":
            if value.kind is not Kind.TEXT:
                raise KindMismatch(f"{key.text} must be text")
        elif value.kind is not Kind.INTEGER or not 0 <= value.value <= 0xFFFFFFFF:
            raise KindMismatch(f"{key.text} must be a crc32c integer")
        job.expected_inputs.setdefault(ordinal, {})[field] = value.value


class ToolSvc(Service):
    """The standard tool service; it holds no state. `Job.tool` makes the one
    instance of a catalogued tool on first request and keeps it, like every
    instance, in the job's name table."""


class EventDataSvc(Service):
    """The event moving through the algorithm chain: its `index` and its
    `row`, one float per name of `fields` (the job's schema) in that order."""

    def __init__(self):
        super().__init__()
        self.fields: list[str] = []
        self.index = 0
        self.row: list[float] = []

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
        self.row[self._require(field_name)] = float(value)

    def get(self, field_name: str) -> float:
        return self.row[self._require(field_name)]


class ContainerWriterSvc(Service):
    """Buffers surviving events and extra blocks, then writes the container."""

    def __init__(self):
        super().__init__()
        self._rows: list[list[float]] = []
        self._extra_blocks: list[tuple[str, bytes]] = []

    def add_event(self, row: list[float]) -> None:
        self._rows.append(row)  # sources give every event a new row

    def add_block(self, name: str, payload: bytes) -> None:
        self._extra_blocks.append((name, payload))

    def write(self, path, fields: list[str],
              info: Optional[MetadataDictionary]) -> dict[str, int]:
        blocks = [("events", encode_events(fields, self._rows))]
        blocks.extend(self._extra_blocks)
        return write_container(path, blocks, info)
