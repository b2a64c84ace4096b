"""The application manager: builds a job from an options set, drives the
initialize / execute / finalize phases over the services and the algorithm
chain, and triggers provenance capture and persistency at the end.

A catalogue is a collection of component classes: a class is known by
its `__name__`, and may go in `TopAlg` if an `Algorithm`, in `Services` if
a `Service`, and is a tool otherwise. The build refuses a catalogue that
lists a name twice or names a standard service. One name table,
`Job.components` (manager, services in start order, algorithms, then
tools as they are retrieved), is the job's only table of instances: an
assignment reaches what is captured, and replay finds it under the same name.

Phase contract: initialize precedes execute precedes finalize, each runs
at most once per job, even when an interrupt stopped it, and finalize runs
no matter how execute ends. A job has succeeded once all three are OK. Two
runs of the same config produce byte-identical output containers.

Execute chains the algorithms' `stream` stages, source first, and hands
the last one to the writer, which packs each row that leaves the chain into
the bytes of the output's `events` block and streams them, a unit at a
time, to a temporary file that finalize completes and renames onto the
output path: a job's memory does not grow with its output. A failure to
write fails finalize, never execute. The stages are lazy, so one event at
a time is in flight: it has left the chain, kept or vetoed, before the
source makes the next, and a stage that raises fails execute at that
event, with every row kept before it in the output. However the stream
ends, execute then closes the source, so that what it holds (the demo
source's draw worker) is released at once, not when the garbage collector
finds it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterable, Optional

from .algorithms import (Accumulator, Algorithm, DemoTool, EventSource, FileEventSource,
                         RandomEventSource, ThresholdFilter)
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
    INTERRUPTED = "interrupted"


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
        return all(self.phases.get(phase) is PhaseStatus.OK
                   for phase in ("initialize", "execute", "finalize"))


class ApplicationMgr(Component):
    """Job-level reserved configuration: what to run and where output goes."""

    PROPERTIES = (
        ("AppName", Kind.TEXT, "provrun"),
        ("AppVersion", Kind.TEXT, "0"),
        ("TopAlg", LIST_OF_TEXT, ()),
        ("Services", LIST_OF_TEXT, ()),
        ("OutputFile", Kind.TEXT, ""),
    )


def standard_catalogue() -> tuple[type[Component], ...]:
    return (RandomEventSource, FileEventSource, ThresholdFilter, Accumulator,
            MetaDataSvc, DemoTool)


def _is_tool(factory: Optional[type]) -> bool:
    return factory is not None and not issubclass(factory, (Algorithm, Service))


def _phase(body):
    """Make `body` a job phase: it runs at most once, and a repeated call
    returns the status it recorded, the one `body` returns or else OK. An
    exception fails the phase, and the job's first failure is kept in
    `failure` and `report.error`. An exception that is not a ProvrunError
    is a bug in a component; it becomes an AlgorithmFailure naming its
    type, with the original as its cause. An interrupt, such as a
    KeyboardInterrupt, is no failure: the phase is recorded as INTERRUPTED
    and the interrupt goes on."""
    name = body.__name__

    @functools.wraps(body)
    def phase(job: Job) -> PhaseStatus:
        if name in job.report.phases:
            return job.report.phases[name]
        try:
            status = body(job) or PhaseStatus.OK
        except Exception as exc:
            if not isinstance(exc, ProvrunError):
                failure = AlgorithmFailure(f"{type(exc).__name__}: {exc}")
                failure.__cause__ = exc
                exc = failure
            if job.failure is None:
                job.failure = exc
                job.report.error = f"{name}: {exc}"
            job.msg.log(LEVEL_ERROR, "ApplicationMgr", f"{name} failed: {exc}")
            status = PhaseStatus.FAILED
        except BaseException:
            job.report.phases[name] = PhaseStatus.INTERRUPTED
            raise
        job.report.phases[name] = status
        return status

    return phase


class Job:
    """A built job: components instantiated, ready to run its three phases."""

    def __init__(self, config: OptionsSet):
        self.config = config
        self.catalogue: dict[str, type[Component]] = {}
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

    def _build(self, catalogue: Iterable[type[Component]]) -> None:
        standard = [self.msg, self.options_svc, ToolSvc(), self.events,
                    self.writer]
        for component in (self.app, *standard):
            self._add(component)
        for factory in catalogue:
            name = factory.__name__
            if name in _RESERVED_NAMES:
                raise InvalidConfiguration(
                    f"component name {name!r} collides with a reserved namespace")
            if name in self.catalogue or name in self.components:
                raise DuplicateComponent(
                    "the catalogue lists a name twice or names a standard component")
            self.catalogue[name] = factory
        # always-on services may be named redundantly
        self.registry = standard + self._instantiate(
            "Services", "service", Service, skip={svc.name for svc in standard})
        self.metadata_svc = self.components.get(METADATA_SERVICE)
        self.algorithms = self._instantiate("TopAlg", "algorithm", Algorithm)
        for alg in self.algorithms[1:]:
            if isinstance(alg, EventSource):
                raise InvalidConfiguration(
                    f"event source {alg.name!r} must be first in TopAlg")

    def _add(self, component: Component) -> Component:
        self.components[component.name] = component
        return component

    def _instantiate(self, prop: str, kind: str, base: type,
                     skip: set[str] = frozenset()) -> list[Component]:
        """One `base` instance per name in ApplicationMgr.`prop`, bar the `skip` names."""
        value = self.config.get(f"ApplicationMgr.{prop}")
        if value is not None:
            self.app.apply(prop, value)
        names = self.app.value(prop)
        if len(set(names)) != len(names):
            raise DuplicateComponent(f"ApplicationMgr.{prop} lists a name twice")
        instances = []
        for name in names:
            if name in skip:
                continue
            factory = self.catalogue.get(name)
            if factory is None or not issubclass(factory, base):
                raise UnknownComponent(f"no {kind} named {name!r} in the catalogue")
            instances.append(self._add(factory()))
        return instances

    def find_component(self, name: str) -> Optional[Component]:
        if _is_tool(self.catalogue.get(name)):
            # assigning to a catalogued tool instantiates it, so its resolved
            # configuration is part of the capture
            return self.tool(name)
        return self.components.get(name)

    def tool(self, name: str) -> Component:
        """The one instance of catalogued tool `name`; its first retrieval
        enters it in the name table."""
        factory = self.catalogue.get(name)
        if not _is_tool(factory):
            raise UnknownTool(f"no tool named {name!r} in the catalogue")
        return self.components.get(name) or self._add(factory())

    # --- phases -----------------------------------------------------------

    @_phase
    def initialize(self) -> None:
        self.options_svc.apply_all(self)
        for svc in self.registry:
            svc.start(self)
        for alg in self.algorithms:
            alg.start(self)  # sources read and verify their inputs here
        self.lineage.check_declared_were_read()
        self.msg.log(LEVEL_INFO, "ApplicationMgr",
                     f"initialized {len(self.algorithms)} algorithm(s), "
                     f"{len(self.registry)} service(s)")

    @_phase
    def execute(self) -> Optional[PhaseStatus]:
        if self.report.phases.get("initialize") is not PhaseStatus.OK:
            return PhaseStatus.SKIPPED
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
        try:
            # draws the events through every stage, one at a time
            self.writer.keep(rows, self.app.value("OutputFile"), event.fields)
        except BaseException:
            planned = event.index  # the event in flight is not seen
            raise
        finally:  # exact counts even when an algorithm raises
            self.report.events_seen = planned
            self.report.events_written = self.writer.kept.count
            if isinstance(source, EventSource):
                source.close(self)
        self.msg.log(LEVEL_INFO, "ApplicationMgr",
                     f"processed {self.report.events_seen} event(s), "
                     f"kept {self.report.events_written}")

    @_phase
    def finalize(self) -> None:
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


def build_job(config: OptionsSet,
              catalogue: Optional[Iterable[type[Component]]] = None) -> Job:
    """Instantiate the configured components of `catalogue`, a collection
    of component classes (the standard one by default); properties stay at
    defaults until initialize applies the assignments."""
    job = Job(config)
    job._build(standard_catalogue() if catalogue is None else catalogue)
    return job


def run_job(config: OptionsSet,
            catalogue: Optional[Iterable[type[Component]]] = None) -> Job:
    """Build and run all three phases; the report is on the returned job."""
    job = build_job(config, catalogue)
    job.run()
    return job
