"""The application manager: builds a job from an options set, drives the
initialize / execute / finalize phases over the services and the algorithm
chain, and triggers provenance capture and persistency at the end.

A component's one name is its class name, which is also its catalogue key;
the build refuses a catalogue that breaks this. One name table,
`Job.components` (manager, services in start order, algorithms, then tools
as they are retrieved), is the job's only table of instances: an assignment
reaches what is captured, and replay finds it under the same name.

Phase contract: initialize precedes execute precedes finalize, and finalize
runs exactly once per job no matter how execute ends. Two runs of the same
config produce byte-identical output containers.

Execute chains the algorithms' `stream` stages, source first, and hands
the last one to the writer, which packs each row that leaves the chain into
the bytes of the output's `events` block. The stages are lazy, so one event
at a time is in flight: it has left the chain, kept or vetoed, before the
source makes the next, and a stage that raises fails execute at that event,
with every row kept before it in the output.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterator, Optional

from . import algorithms as demo_algorithms
from .algorithms import Algorithm, DemoTool, EventSource
from .components import Component, LIST_OF_TEXT
from .errors import (
    AlgorithmFailure,
    DuplicateComponent,
    InvalidConfiguration,
    ProvrunError,
    UnknownComponent,
    UnknownTool,
)
from .options import Kind, OptionsSet
from .provenance import MetaDataSvc, SERVICE_NAME as METADATA_SERVICE
from .services import (
    LEVEL_ERROR,
    LEVEL_INFO,
    LINEAGE_COMPONENT,
    ContainerWriterSvc,
    EventDataSvc,
    JobOptionsSvc,
    Lineage,
    MessageSvc,
    Service,
    ToolSvc,
)

_RESERVED_NAMES = (LINEAGE_COMPONENT, "ApplicationMgr")


class PhaseStatus(Enum):
    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"


@dataclass
class JobReport:
    """Outcome of a run: per-phase status, counts, output identity."""

    phases: dict[str, PhaseStatus] = field(default_factory=dict)
    events_seen: int = 0
    events_written: int = 0
    output_path: str = ""
    payload_checksum: Optional[int] = None
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return all(status is PhaseStatus.OK for status in self.phases.values())


class ApplicationMgr(Component):
    """Job-level reserved configuration: what to run and where output goes."""

    PROPERTIES = (
        ("AppName", Kind.TEXT, "provrun"),
        ("AppVersion", Kind.TEXT, "0"),
        ("TopAlg", LIST_OF_TEXT, ()),
        ("Services", LIST_OF_TEXT, ()),
        ("OutputFile", Kind.TEXT, ""),
    )


@dataclass
class Catalogue:
    """Available component classes, each keyed by its own `__name__`: the
    one name the config, the capture and replay know it by."""

    algorithms: dict[str, type]
    services: dict[str, type]
    tools: dict[str, type]


def standard_catalogue() -> Catalogue:
    return Catalogue(
        algorithms={
            "RandomEventSource": demo_algorithms.RandomEventSource,
            "FileEventSource": demo_algorithms.FileEventSource,
            "ThresholdFilter": demo_algorithms.ThresholdFilter,
            "Accumulator": demo_algorithms.Accumulator,
        },
        services={METADATA_SERVICE: MetaDataSvc},
        tools={"DemoTool": DemoTool},
    )


class Job:
    """A built job: components instantiated, ready to run its three phases."""

    def __init__(self, config: OptionsSet, catalogue: Catalogue):
        self.config = config
        self.catalogue = catalogue
        self.app = ApplicationMgr()
        self.msg = MessageSvc()
        self.options_svc = JobOptionsSvc()
        self.events = EventDataSvc()
        self.writer = ContainerWriterSvc()
        self.components: dict[str, Component] = {}
        self.registry: list[Service] = []  # start order; stop is reverse
        self.metadata_svc: Optional[MetaDataSvc] = None
        self.algorithms: list[Algorithm] = []
        self.lineage = Lineage()
        self.report = JobReport()
        self.failure: Optional[ProvrunError] = None

    # --- wiring ---------------------------------------------------------

    def _build(self) -> None:
        standard = [self.msg, self.options_svc, ToolSvc(), self.events,
                    self.writer]
        for component in (self.app, *standard):
            self._add(component)
        names = list(self.components)
        for table in (self.catalogue.algorithms, self.catalogue.services,
                      self.catalogue.tools):
            for name, factory in table.items():
                if name in _RESERVED_NAMES:
                    raise InvalidConfiguration(
                        f"component name {name!r} collides with a reserved namespace")
                if name != factory.__name__:
                    raise DuplicateComponent(
                        f"catalogue key {name!r} is not its class's name "
                        f"{factory.__name__!r}")
                names.append(name)
        if len(names) != len(set(names)):
            raise DuplicateComponent(
                "the catalogue lists a name twice or names a standard component")
        # always-on services may be named redundantly
        self.registry = standard + self._instantiate(
            "Services", "service", self.catalogue.services,
            skip={svc.name for svc in standard})
        self.metadata_svc = self.components.get(METADATA_SERVICE)
        self.algorithms = self._instantiate("TopAlg", "algorithm",
                                            self.catalogue.algorithms)
        for alg in self.algorithms[1:]:
            if isinstance(alg, EventSource):
                raise InvalidConfiguration(
                    f"event source {alg.name!r} must be first in TopAlg")

    def _add(self, component: Component) -> Component:
        self.components[component.name] = component
        return component

    def _instantiate(self, prop: str, kind: str, factories: dict[str, type],
                     skip: set[str] = frozenset()) -> list[Component]:
        """One instance per name in ApplicationMgr.`prop`, except the `skip` names."""
        value = self.config.get(f"ApplicationMgr.{prop}")
        if value is not None:
            self.app.spec(prop).apply(value)
        names = self.app.value(prop)
        if len(set(names)) != len(names):
            raise DuplicateComponent(f"ApplicationMgr.{prop} lists a name twice")
        instances = []
        for name in names:
            if name in skip:
                continue
            factory = factories.get(name)
            if factory is None:
                raise UnknownComponent(f"no {kind} named {name!r} in the catalogue")
            instances.append(self._add(factory()))
        return instances

    def find_component(self, name: str) -> Optional[Component]:
        if name in self.catalogue.tools:
            # assigning to a catalogued tool instantiates it, so its resolved
            # configuration is part of the capture
            return self.tool(name)
        return self.components.get(name)

    def tool(self, name: str) -> Component:
        """The one instance of catalogued tool `name`; its first retrieval
        enters it in the name table."""
        factory = self.catalogue.tools.get(name)
        if factory is None:
            raise UnknownTool(f"no tool named {name!r} in the catalogue")
        tool = self.components.get(name)
        return tool if tool is not None else self._add(factory())

    # --- phases -----------------------------------------------------------

    @contextlib.contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Run one phase's body and set its status: an exception fails the
        phase, and the job's first failure is kept in `failure` and
        `report.error`. An exception that is not a ProvrunError is a bug in
        a component; it becomes an AlgorithmFailure naming its type, with
        the original as its cause."""
        try:
            yield
        except Exception as exc:
            if not isinstance(exc, ProvrunError):
                failure = AlgorithmFailure(f"{type(exc).__name__}: {exc}")
                failure.__cause__ = exc
                exc = failure
            if self.failure is None:
                self.failure = exc
                self.report.error = f"{name}: {exc}"
            self.msg.log(LEVEL_ERROR, "ApplicationMgr", f"{name} failed: {exc}")
            self.report.phases[name] = PhaseStatus.FAILED
        else:
            self.report.phases[name] = PhaseStatus.OK

    def initialize(self) -> PhaseStatus:
        with self._phase("initialize"):
            self.options_svc.apply_all(self)
            for svc in self.registry:
                svc.start(self)
            for alg in self.algorithms:
                alg.start(self)  # sources read and verify their inputs here
            self.lineage.check_declared_were_read()
            self.msg.log(LEVEL_INFO, "ApplicationMgr",
                         f"initialized {len(self.algorithms)} algorithm(s), "
                         f"{len(self.registry)} service(s)")
        return self.report.phases["initialize"]

    def execute(self) -> PhaseStatus:
        if self.report.phases.get("initialize") is not PhaseStatus.OK:
            self.report.phases["execute"] = PhaseStatus.SKIPPED
            return PhaseStatus.SKIPPED
        with self._phase("execute"):
            event, planned = self.events, 0
            source = self.algorithms[0] if self.algorithms else None
            if isinstance(source, EventSource):
                planned = source.plan(self)
                event.fields = list(source.fields)
            for alg in self.algorithms:
                alg.bind(event)
            rows = repeat((), planned)  # the source makes each event's row
            for alg in self.algorithms:
                rows = alg.stream(self, event, rows)
            kept = self.writer.kept
            written = kept.count
            try:
                # draws the events through every stage, one at a time
                self.writer.keep(rows, len(event.fields))
            except BaseException:
                planned = event.index  # the event in flight is not seen
                raise
            finally:  # exact counts even when an algorithm raises
                self.report.events_seen += planned
                self.report.events_written += kept.count - written
            self.msg.log(LEVEL_INFO, "ApplicationMgr",
                         f"processed {self.report.events_seen} event(s), "
                         f"kept {self.report.events_written}")
        return self.report.phases["execute"]

    def finalize(self) -> PhaseStatus:
        if "finalize" in self.report.phases:  # runs exactly once per job
            return self.report.phases["finalize"]
        with self._phase("finalize"):
            stop_error: Optional[Exception] = None
            try:
                if self.report.phases.get("initialize") is PhaseStatus.OK:
                    self._persist()
            finally:  # stop every service; a _persist error outranks any stop's
                for svc in reversed(self.registry):
                    try:
                        svc.stop(self)
                    except Exception as exc:
                        stop_error = stop_error or exc
            if stop_error is not None:
                raise stop_error
        return self.report.phases["finalize"]

    def _persist(self) -> None:
        """Finish the algorithms, capture the provenance, write the output."""
        for alg in self.algorithms:
            alg.finish(self)
        if self.metadata_svc is not None:
            # capture happens here and only here: every option has been
            # applied by now, so nothing is lost
            self.metadata_svc.capture(self)
        output_path = self.app.value("OutputFile")
        if output_path:
            info = (self.metadata_svc.get_metadata()
                    if self.metadata_svc is not None else None)
            checksums = self.writer.write(output_path, self.events.fields, info)
            self.report.output_path = output_path
            self.report.payload_checksum = checksums.get("events")
            self.msg.log(LEVEL_INFO, "ContainerWriterSvc", f"wrote {output_path}")

    def run(self) -> JobReport:
        self.initialize()
        self.execute()
        self.finalize()
        return self.report


def build_job(config: OptionsSet, catalogue: Optional[Catalogue] = None) -> Job:
    """Instantiate the configured components; properties stay at defaults
    until initialize applies the assignments."""
    job = Job(config, catalogue or standard_catalogue())
    job._build()
    return job


def run_job(config: OptionsSet, catalogue: Optional[Catalogue] = None) -> Job:
    """Build and run all three phases; the report is on the returned job."""
    job = build_job(config, catalogue)
    job.run()
    return job
