"""The standard service set: message logging, option application, tool
management, the per-event data store, and container persistency."""

from __future__ import annotations

import re
import sys
from typing import Optional

from .components import Component, ComponentKind
from .errors import (
    AlgorithmFailure,
    InvalidConfiguration,
    KindMismatch,
    UnknownComponent,
    UnknownProperty,
    UnknownTool,
)
from .events import encode_events
from .container import write_container
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
    kind = ComponentKind.SERVICE

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
                continue
            target = job.find_component(key.component)
            if target is None:
                raise UnknownComponent(
                    f"assignment {key.text} names no component in this job")
            target.spec(key.prop).apply(value)
            self.applied_log.append((key, value))
        self._check_metadata_consistency(job)
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

    @staticmethod
    def _check_metadata_consistency(job) -> None:
        svc = job.metadata_svc
        if svc is not None and svc.value("Enabled") is False:
            raise InvalidConfiguration(
                "MetaDataSvc.Enabled = false contradicts its presence in "
                "ApplicationMgr.Services")

    def record_lineage_applied(self, ordinal: int, path: str, checksum: int) -> None:
        """Consumed lineage declarations count as applied assignments."""
        for field, value in (("Path", path), ("Checksum", checksum)):
            self.applied_log.append((OptionKey.parse(lineage_key(ordinal, field)),
                                     OptionValue.of(value)))


class ToolSvc(Service):
    """Single shared tool instance per name, created on first request."""

    def __init__(self, tool_catalogue: Optional[dict] = None):
        super().__init__()
        self._catalogue = tool_catalogue or {}
        self.instances: dict[str, Component] = {}

    def retrieve(self, name: str) -> Component:
        if name in self.instances:
            return self.instances[name]
        factory = self._catalogue.get(name)
        if factory is None:
            raise UnknownTool(f"no tool named {name!r} in the catalogue")
        tool = factory()
        self.instances[name] = tool
        return tool

    def knows(self, name: str) -> bool:
        return name in self._catalogue


class EventDataSvc(Service):
    """Holds the event currently moving through the algorithm chain."""

    def __init__(self):
        super().__init__()
        self.current = None

    def begin_event(self, record) -> None:
        self.current = record

    def put(self, field_name: str, value: float) -> None:
        self.current.fields[field_name] = float(value)

    def get(self, field_name: str) -> float:
        try:
            return self.current.fields[field_name]
        except KeyError:
            raise AlgorithmFailure(f"event {self.current.index} has no field "
                                   f"{field_name!r}") from None


class ContainerWriterSvc(Service):
    """Buffers surviving events and extra blocks, then writes the container."""

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self._field_names: list[str] = []
        self._rows: list[list[float]] = []
        self._extra_blocks: list[tuple[str, bytes]] = []

    def set_schema(self, field_names: list[str]) -> None:
        self._field_names = list(field_names)

    def add_event(self, record) -> None:
        self._rows.append([record.fields[name] for name in self._field_names])

    def add_block(self, name: str, payload: bytes) -> None:
        self._extra_blocks.append((name, payload))

    def write(self, path, info_text: Optional[str]) -> dict[str, int]:
        blocks = [("events", encode_events(self._field_names, self._rows))]
        blocks.extend(self._extra_blocks)
        if info_text is not None:
            blocks.append(("info", info_text.encode("utf-8")))
        return write_container(path, blocks)


class ServiceRegistry:
    """Ordered services; start order is declaration order, stop is reverse."""

    def __init__(self, services: list[Service]):
        self.services = list(services)
        self._by_name = {svc.name: svc for svc in self.services}

    def get(self, name: str) -> Optional[Service]:
        return self._by_name.get(name)

    def __iter__(self):
        return iter(self.services)

    def stop_all(self, job) -> None:
        for svc in reversed(self.services):
            svc.stop(job)
