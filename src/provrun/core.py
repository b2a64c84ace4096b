"""The application manager: builds a job from an options set, drives the
initialize / execute / finalize phases over the services and the algorithm
chain, and triggers provenance capture and persistency at the end.

One name table, `Job.components` (manager, services in start order,
algorithms, then tools as they are retrieved), holds each name once: an
assignment reaches what is captured.

Phase contract: initialize precedes execute precedes finalize, and finalize
runs exactly once per job no matter how execute ends. Two runs of the same
config produce byte-identical output containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import algorithms as demo_algorithms
from .algorithms import Algorithm, DemoTool, EventSource
from .components import Component, ComponentKind, LIST_OF_TEXT
from .errors import (
    DuplicateComponent,
    InvalidConfiguration,
    LineageMismatch,
    ProvrunError,
    UnknownComponent,
)
from .options import Kind, OptionsSet
from .provenance import InputLineage, MetaDataSvc, SERVICE_NAME as METADATA_SERVICE
from .services import (
    LEVEL_ERROR,
    LEVEL_INFO,
    LINEAGE_COMPONENT,
    ContainerWriterSvc,
    EventDataSvc,
    JobOptionsSvc,
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

    kind = ComponentKind.SERVICE
    PROPERTIES = (
        ("AppName", Kind.TEXT, "provrun"),
        ("AppVersion", Kind.TEXT, "0"),
        ("TopAlg", LIST_OF_TEXT, ()),
        ("Services", LIST_OF_TEXT, ()),
        ("OutputFile", Kind.TEXT, ""),
    )


@dataclass
class Catalogue:
    """Available component factories, keyed by component name."""

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
        self.tool_svc = ToolSvc(catalogue.tools)
        self.events = EventDataSvc()
        self.writer = ContainerWriterSvc()
        self.components: dict[str, Component] = {}
        self.registry: list[Service] = []  # start order; stop is reverse
        self.metadata_svc: Optional[MetaDataSvc] = None
        self.algorithms: list[Algorithm] = []
        self.lineage: list[InputLineage] = []
        # declared input lineage, by ordinal: {"Path": str, "Checksum": int}
        self.expected_inputs: dict[int, dict[str, object]] = {}
        self.report = JobReport()
        self.failure: Optional[BaseException] = None

    # --- wiring ---------------------------------------------------------

    def _build(self) -> None:
        tables = (self.catalogue.algorithms, self.catalogue.services,
                  self.catalogue.tools)
        for name in _RESERVED_NAMES:
            if any(name in table for table in tables):
                raise InvalidConfiguration(
                    f"component name {name!r} collides with a reserved namespace")
        all_names = [name for table in tables for name in table]
        if len(all_names) != len(set(all_names)):
            raise DuplicateComponent("catalogue lists a component name twice")

        standard = [self.msg, self.options_svc, self.tool_svc, self.events,
                    self.writer]
        for component in (self.app, *standard):
            self._add(component)
        for name in self.catalogue.tools:
            if name in self.components:
                raise DuplicateComponent(f"tool {name!r} is named like a standard service")
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
        if component.name in self.components:
            raise DuplicateComponent(
                f"two components of this job are named {component.name!r}")
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
        if self.tool_svc.knows(name):
            # assigning to a catalogued tool instantiates it, so its resolved
            # configuration is part of the capture
            return self.tool(name)
        return self.components.get(name)

    def iter_components(self):
        """Everything the capture traverses: the name table."""
        return iter(self.components.values())

    def tool(self, name: str) -> Component:
        """The one instance of catalogued tool `name`; its first retrieval
        enters it in the name table."""
        tool = self.tool_svc.retrieve(name)
        if self.components.get(tool.name) is not tool:
            self._add(tool)
        return tool

    def log(self, level: int, component: str, message: str) -> None:
        self.msg.log(level, component, message)

    # --- lineage ----------------------------------------------------------

    def record_input(self, path: str, checksum: int) -> None:
        ordinal = len(self.lineage)
        expected = self.expected_inputs.get(ordinal)
        if expected is not None:
            if expected.get("Path", path) != path:
                raise LineageMismatch(
                    f"input {ordinal} is declared as {expected['Path']!r} but the "
                    f"job reads {path!r}")
            if expected.get("Checksum", checksum) != checksum:
                raise LineageMismatch(
                    f"input {path!r} checksum {checksum} differs from the "
                    f"declared {expected['Checksum']}")
        self.lineage.append(InputLineage(ordinal, path, checksum))

    def _check_all_inputs_consumed(self) -> None:
        expected = sorted(self.expected_inputs)
        if expected and expected != list(range(len(self.lineage))):
            raise LineageMismatch(
                f"config declares input ordinals {expected} but the job "
                f"consumed {len(self.lineage)} input(s)")

    # --- phases -----------------------------------------------------------

    def initialize(self) -> PhaseStatus:
        try:
            self.options_svc.apply_all(self)
            for svc in self.registry:
                svc.start(self)
            for alg in self.algorithms:
                alg.start(self)  # sources read and verify their inputs here
            self._check_all_inputs_consumed()
            status = PhaseStatus.OK
            self.log(LEVEL_INFO, "ApplicationMgr",
                     f"initialized {len(self.algorithms)} algorithm(s), "
                     f"{len(self.registry)} service(s)")
        except ProvrunError as exc:
            self._record_failure("initialize", exc)
            status = PhaseStatus.FAILED
        self.report.phases["initialize"] = status
        return status

    def execute(self) -> PhaseStatus:
        if self.report.phases.get("initialize") is not PhaseStatus.OK:
            self.report.phases["execute"] = PhaseStatus.SKIPPED
            return PhaseStatus.SKIPPED
        try:
            event, planned = self.events, 0
            source = self.algorithms[0] if self.algorithms else None
            if isinstance(source, EventSource):
                planned = source.plan(self)
                event.set_schema(source.fields)
            for alg in self.algorithms:
                alg.bind(event)
            for index in range(planned):
                event.index = index
                for alg in self.algorithms:
                    if not alg.process(self, event):
                        break
                else:
                    self.report.events_written += 1
                    self.writer.add_event(event.row)
                self.report.events_seen += 1
            status = PhaseStatus.OK
            self.log(LEVEL_INFO, "ApplicationMgr",
                     f"processed {self.report.events_seen} event(s), "
                     f"kept {self.report.events_written}")
        except ProvrunError as exc:
            self._record_failure("execute", exc)
            status = PhaseStatus.FAILED
        self.report.phases["execute"] = status
        return status

    def finalize(self) -> PhaseStatus:
        if "finalize" in self.report.phases:  # runs exactly once per job
            return self.report.phases["finalize"]
        initialized = self.report.phases.get("initialize") is PhaseStatus.OK
        try:
            if initialized:
                for alg in self.algorithms:
                    alg.finish(self)
                if self.metadata_svc is not None:
                    # capture happens here and only here: every option has
                    # been applied by now, so nothing is lost
                    self.metadata_svc.capture(self)
                output_path = self.app.value("OutputFile")
                self.report.output_path = output_path
                if output_path:
                    info = (self.metadata_svc.get_metadata()
                            if self.metadata_svc is not None else None)
                    checksums = self.writer.write(output_path, self.events.fields,
                                                  info)
                    self.report.payload_checksum = checksums.get("events")
                    self.log(LEVEL_INFO, "ContainerWriterSvc",
                             f"wrote {output_path}")
            status = PhaseStatus.OK
        except ProvrunError as exc:
            self._record_failure("finalize", exc)
            status = PhaseStatus.FAILED
        finally:
            for svc in reversed(self.registry):
                svc.stop(self)
        self.report.phases["finalize"] = status
        return status

    def run(self) -> JobReport:
        self.initialize()
        self.execute()
        self.finalize()
        return self.report

    def _record_failure(self, phase: str, exc: BaseException) -> None:
        if self.failure is None:
            self.failure = exc
            self.report.error = f"{phase}: {exc}"
        self.log(LEVEL_ERROR, "ApplicationMgr", f"{phase} failed: {exc}")


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
