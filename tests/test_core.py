"""Job lifecycle: build, initialize, execute, finalize."""

import builtins
import gc
import random

import pytest

import provrun.container
from provrun import (
    ContainerReader,
    Kind,
    KindSpec,
    MetaDataSvc,
    OptionsSet,
    OptionValue,
    PhaseStatus,
    build_job,
    extract_info,
    parse_options,
    read_block,
    run_job,
    standard_catalogue,
)
from provrun.algorithms import (Algorithm, DemoTool, EventSource, RandomEventSource,
                                ThresholdFilter, _numbered)
from provrun.cli import EXIT_OK, main
from provrun.components import Component
from provrun.errors import (
    AlgorithmFailure,
    DuplicateComponent,
    InvalidConfiguration,
    InvalidOptionValue,
    KindMismatch,
    MissingInfo,
    UnknownComponent,
    UnknownProperty,
    UnknownTool,
    WriteFailure,
)
from provrun.events import decode_events
from provrun.services import _UNIT, Service

from helpers import FailingFile, demo_config, random_demo_config


# --- build ------------------------------------------------------------------

def test_build_orders_algorithms_by_config():
    config = demo_config("", algorithms=("RandomEventSource", "ThresholdFilter"))
    job = build_job(config)
    assert [alg.name for alg in job.algorithms] == ["RandomEventSource",
                                                    "ThresholdFilter"]


def test_build_unknown_component():
    config = demo_config("", algorithms=("Ghost",))
    with pytest.raises(UnknownComponent):
        build_job(config)


def test_build_empty_topalg_is_valid():
    config = OptionsSet([("ApplicationMgr.TopAlg", [])])
    job = build_job(config)
    assert job.algorithms == []


def test_build_duplicate_algorithm():
    config = demo_config("", algorithms=("ThresholdFilter", "ThresholdFilter"))
    with pytest.raises(DuplicateComponent):
        build_job(config)


@pytest.mark.parametrize("base", [Algorithm, Component, Service],
                         ids=["algorithm-named-like-a-service", "tool-named-like-a-service",
                              "service-named-like-a-service"])
def test_build_rejects_two_components_of_one_name(base):
    # an assignment to the shared name would reach only one of them, while
    # the capture would record both under that name
    catalogue = (*standard_catalogue(), type("MessageSvc", (base,), {}))
    with pytest.raises(DuplicateComponent, match="names a standard component"):
        build_job(demo_config(""), catalogue)


@pytest.mark.parametrize("extra", [DemoTool, type("DemoTool", (Component,), {})],
                         ids=["same-class", "same-name"])
def test_build_rejects_a_catalogue_that_lists_a_name_twice(extra):
    with pytest.raises(DuplicateComponent, match="lists a name twice"):
        build_job(demo_config(""), (*standard_catalogue(), extra))


@pytest.mark.parametrize("prop, name, kind", [("TopAlg", "MetaDataSvc", "algorithm"),
                                              ("TopAlg", "DemoTool", "algorithm"),
                                              ("Services", "ThresholdFilter", "service"),
                                              ("Services", "DemoTool", "service")])
def test_build_rejects_a_component_of_the_wrong_kind(prop, name, kind):
    config = OptionsSet([(f"ApplicationMgr.{prop}", [name])])
    with pytest.raises(UnknownComponent,
                       match=f"no {kind} named '{name}' in the catalogue"):
        build_job(config)


@pytest.mark.parametrize("name", ["ThresholdFilter", "MetaDataSvc", "MessageSvc", "Ghost"])
def test_only_a_catalogued_tool_is_a_tool(name):
    job = build_job(demo_config(""))
    with pytest.raises(UnknownTool, match=f"no tool named '{name}' in the catalogue"):
        job.tool(name)
    assert job.tool("DemoTool") is job.tool("DemoTool")


def test_a_catalogue_is_any_iterable_of_classes():
    config = demo_config("", algorithms=("RandomEventSource", "ThresholdFilter"))
    job = build_job(config, iter([ThresholdFilter, MetaDataSvc, RandomEventSource]))
    assert [alg.name for alg in job.algorithms] == ["RandomEventSource",
                                                    "ThresholdFilter"]
    with pytest.raises(UnknownTool):
        job.tool("DemoTool")


@pytest.mark.parametrize("prop", ["TopAlg", "Services"])
@pytest.mark.parametrize("value", [3, [1, 2]], ids=["integer", "list-of-integer"])
def test_build_rejects_a_component_list_of_the_wrong_kind(prop, value):
    config = OptionsSet([(f"ApplicationMgr.{prop}", value)])
    with pytest.raises(KindMismatch):
        build_job(config)


def test_build_rejects_reserved_component_name():
    catalogue = (*standard_catalogue(), type("Provenance", (Algorithm,), {}))
    with pytest.raises(InvalidConfiguration):
        build_job(OptionsSet(), catalogue)


def test_standard_services_always_present():
    job = build_job(OptionsSet())
    names = [svc.name for svc in job.registry]
    assert names[:5] == ["MessageSvc", "JobOptionsSvc", "ToolSvc",
                         "EventDataSvc", "ContainerWriterSvc"]
    assert "MetaDataSvc" not in names


def test_naming_a_standard_service_is_harmless():
    config = OptionsSet([("ApplicationMgr.Services", ["MessageSvc", "MetaDataSvc"])])
    job = build_job(config)
    assert [svc.name for svc in job.registry].count("MessageSvc") == 1
    assert job.metadata_svc is not None


# --- initialize ---------------------------------------------------------------

def test_initialize_applies_assignment():
    config = OptionsSet([("MessageSvc.OutputLevel", 2)])
    job = build_job(config)
    assert job.initialize() is PhaseStatus.OK
    assert job.msg.value("OutputLevel") == 2


def test_initialize_kind_mismatch():
    config = demo_config("", ThresholdFilter__Min="x")
    job = build_job(config)
    assert job.initialize() is PhaseStatus.FAILED
    assert isinstance(job.failure, KindMismatch)


def test_integer_literal_does_not_satisfy_float_property():
    # the language keeps integer and float kinds distinct: Min wants 0.5, not 1
    config = demo_config("", ThresholdFilter__Min=1)
    job = build_job(config)
    assert job.initialize() is PhaseStatus.FAILED
    assert isinstance(job.failure, KindMismatch)


def test_a_default_that_misfits_its_kind_fails_instantiation():
    # the property table is resolved, and each default checked, when the class is made
    with pytest.raises(KindMismatch, match="default for 'Gain' is not float"):
        type("Misfit", (Algorithm,), {"PROPERTIES": (("Gain", Kind.FLOAT, 1),)})


@pytest.mark.parametrize("name, prop, bad", [("Zähler", "Min", "Zähler"),
                                             ("Counter", "Mi-n", "Mi-n"),
                                             ("Counter", "", "Counter")])
def test_a_class_whose_key_is_not_an_options_key_fails_its_creation(name, prop, bad):
    with pytest.raises(InvalidOptionValue, match=repr(bad)):
        type(name, (Algorithm,), {"PROPERTIES": ((prop, Kind.FLOAT, 0.0),)})


@pytest.mark.parametrize("kind, elem, message", [
    (Kind.LIST, None, "a list kind needs a scalar element kind"),
    (Kind.LIST, Kind.LIST, "a list kind needs a scalar element kind"),
    (Kind.FLOAT, Kind.TEXT, "a float kind takes no element kind")])
def test_a_kind_spec_refuses_a_list_without_a_scalar_element_kind(kind, elem, message):
    with pytest.raises(KindMismatch, match=message):
        KindSpec(kind, elem)


def test_a_bare_list_kind_in_a_property_table_fails_the_class():
    with pytest.raises(KindMismatch, match="a list kind needs a scalar element kind"):
        type("Names", (Algorithm,), {"PROPERTIES": (("Names", Kind.LIST, []),)})


def test_a_list_property_admits_lists_of_its_element_kind():
    names = type("Names", (Algorithm,),
                 {"PROPERTIES": (("Names", KindSpec(Kind.LIST, Kind.TEXT), []),)})()
    names.apply("Names", OptionValue.of(["a", "b"]))
    assert names.value("Names") == ["a", "b"]
    with pytest.raises(KindMismatch, match="wants list of text, got list"):
        names.apply("Names", OptionValue.of([1]))
    with pytest.raises(UnknownProperty, match="no property 'Nmes'"):
        names.value("Nmes")


def test_initialize_defaults_when_unassigned():
    job = build_job(demo_config(""))
    job.initialize()
    flt = job.algorithms[1]
    assert flt.value("Field") == "f0"
    assert flt.value("Min") == 0.0
    assert job.msg.value("OutputLevel") == 3


def test_initialize_unknown_property():
    config = OptionsSet([("MessageSvc.NoSuchThing", 1)])
    job = build_job(config)
    job.initialize()
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert "NoSuchThing" in str(job.failure)


def test_initialize_unknown_component_assignment():
    config = demo_config("", algorithms=("RandomEventSource",))
    config.set("ThresholdFilter.Min", 0.5)  # catalogued but not in this job
    job = build_job(config)
    job.initialize()
    assert isinstance(job.failure, UnknownComponent)


def test_resolved_values_equal_config_or_default():
    rnd = random.Random(13)
    for _ in range(20):
        config = random_demo_config(rnd, "")
        config.set("ApplicationMgr.OutputFile", "")
        job = build_job(config)
        assert job.initialize() is PhaseStatus.OK
        for component in job.components.values():
            for prop_name, value in component.values.items():
                expected = config.get(f"{component.name}.{prop_name}",
                                      component.defaults[prop_name])
                assert value == expected


# --- execute -------------------------------------------------------------------

def run_demo(tmp_path, name="job.pdc", **kw):
    out = tmp_path / name
    return run_job(demo_config(out, **kw)), out


def test_pass_all_filter(tmp_path):
    job, _ = run_demo(tmp_path, RandomEventSource__NumEvents=10,
                      ThresholdFilter__Min=-1.0)
    assert job.report.events_seen == 10
    assert job.report.events_written == 10


def test_veto_all_filter(tmp_path):
    job, _ = run_demo(tmp_path, RandomEventSource__NumEvents=10,
                      ThresholdFilter__Min=2.0)
    assert job.report.events_seen == 10
    assert job.report.events_written == 0


def test_zero_events(tmp_path):
    job, _ = run_demo(tmp_path, RandomEventSource__NumEvents=0)
    assert job.report.events_seen == 0
    assert job.report.events_written == 0
    assert job.report.succeeded


def test_no_source_means_no_events(tmp_path):
    job, _ = run_demo(tmp_path, algorithms=("ThresholdFilter",))
    assert job.report.events_seen == 0
    assert job.report.succeeded


def test_source_must_come_first():
    config = demo_config("", algorithms=("ThresholdFilter", "RandomEventSource"))
    with pytest.raises(InvalidConfiguration):
        build_job(config)


def test_veto_monotonicity(tmp_path):
    rnd = random.Random(21)
    for trial in range(10):
        seed = rnd.randrange(1 << 20)
        base, _ = run_demo(tmp_path, f"base{trial}.pdc",
                           algorithms=("RandomEventSource",),
                           RandomEventSource__Seed=seed,
                           RandomEventSource__NumEvents=30)
        filtered, _ = run_demo(tmp_path, f"filt{trial}.pdc",
                               RandomEventSource__Seed=seed,
                               RandomEventSource__NumEvents=30,
                               ThresholdFilter__Min=rnd.uniform(0.0, 1.0))
        assert filtered.report.events_written <= base.report.events_written


class FailAfter(Algorithm):
    PROPERTIES = (("After", Kind.INTEGER, 3),)

    def process(self, job, event):
        if event.index >= self.value("After"):
            raise AlgorithmFailure("synthetic failure")
        return True


def failing_catalogue():
    return (*standard_catalogue(), FailAfter)


def test_algorithm_failure_aborts_loop_but_finalize_runs(tmp_path):
    out, whole = tmp_path / "fail.pdc", tmp_path / "whole.pdc"
    config = demo_config(out, algorithms=("RandomEventSource", "FailAfter"),
                         RandomEventSource__NumEvents=10)
    job = run_job(config, failing_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert job.report.events_seen == 3
    assert job.report.events_written == 3
    # the partial container still exists, with provenance and the rows kept
    assert extract_info(out)["RandomEventSource.NumEvents"] == "10"
    run_job(demo_config(whole, algorithms=("RandomEventSource",),
                        RandomEventSource__NumEvents=10))
    assert (decode_events(read_block(out, "events"))[1]
            == decode_events(read_block(whole, "events"))[1][:3])


def test_a_failure_after_several_packed_chunks_keeps_every_row_before_it(tmp_path):
    # the writer packs the kept rows a chunk of 1024 at a time
    out, whole = tmp_path / "fail.pdc", tmp_path / "whole.pdc"
    config = demo_config(out, algorithms=("RandomEventSource", "FailAfter"),
                         RandomEventSource__NumEvents=3000, FailAfter__After=2500)
    job = run_job(config, failing_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert (job.report.events_seen, job.report.events_written) == (2500, 2500)
    run_job(demo_config(whole, algorithms=("RandomEventSource",),
                        RandomEventSource__NumEvents=3000))
    assert (decode_events(read_block(out, "events"))[1]
            == decode_events(read_block(whole, "events"))[1][:2500])


# a kept row one cell short, and one with a cell that is not a number
MISFITS = {
    "short": (lambda row: row[:1], "row 2 of width 1 does not fit 2 float fields"),
    "text": (lambda row: (row[0], "x"), "row 2 of width 2 does not fit 2 float fields"),
}


class Misfit(Algorithm):
    """Gives event 2 a row the schema cannot encode, of the shape `Shape` names."""

    PROPERTIES = (("Shape", Kind.TEXT, "short"),)

    def process(self, job, event):
        if event.index == 2:
            reshape, _ = MISFITS[self.value("Shape")]
            event.row = reshape(event.row)
        return True


def misfit_catalogue():
    return (*standard_catalogue(), Misfit)


def misfit_config(out, shape):
    return demo_config(out, algorithms=("RandomEventSource", "Misfit"), Misfit__Shape=shape,
                       RandomEventSource__NumEvents=5, RandomEventSource__FieldCount=2)


@pytest.mark.parametrize("shape", sorted(MISFITS))
def test_a_kept_row_the_schema_cannot_encode_fails_finalize(tmp_path, shape):
    out = tmp_path / "misfit.pdc"
    job = run_job(misfit_config(out, shape), misfit_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.OK
    assert job.report.phases["finalize"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure).startswith(f"cannot write the kept events: {MISFITS[shape][1]}")
    assert job.report.output_path == ""
    assert not out.exists()


# algorithm bugs that raise no ProvrunError: the phase each fails, and its error
BUGS = {
    "none_row": ("finalize", "TypeError", "TypeError: 'NoneType' object is not iterable"),
    "index": ("execute", "IndexError", "IndexError: tuple index out of range"),
}


class Buggy(Algorithm):
    """At event 2, keeps a None row or reads a cell past the row's end, as
    `Bug` says; "interrupt" raises KeyboardInterrupt instead."""

    PROPERTIES = (("Bug", Kind.TEXT, "none_row"),)

    def process(self, job, event):
        if event.index == 2:
            bug = self.value("Bug")
            if bug == "interrupt":
                raise KeyboardInterrupt
            if bug == "index":
                return event.row[99] > 0
            event.row = None
        return True


def buggy_catalogue():
    return (*standard_catalogue(), Buggy)


def buggy_config(out, bug):
    return demo_config(out, algorithms=("RandomEventSource", "Buggy"), Buggy__Bug=bug,
                       RandomEventSource__NumEvents=5, RandomEventSource__FieldCount=2)


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_an_algorithm_bug_fails_its_phase_and_finalize_still_runs(tmp_path, bug):
    phase, cause, message = BUGS[bug]
    out = tmp_path / "buggy.pdc"
    job = run_job(buggy_config(out, bug), buggy_catalogue())
    assert job.report.phases["initialize"] is PhaseStatus.OK
    assert job.report.phases[phase] is PhaseStatus.FAILED
    assert "finalize" in job.report.phases
    assert isinstance(job.failure, AlgorithmFailure)
    assert type(job.failure.__cause__).__name__ == cause
    assert str(job.failure) == message
    assert job.report.error == f"{phase}: {message}"
    assert job.report.events_seen == (2 if phase == "execute" else 5)
    # a failed finalize writes nothing; a failed execute keeps the rows before the bug
    assert out.exists() is (phase == "execute")


def test_an_interrupt_is_not_a_phase_failure(tmp_path):
    job = build_job(buggy_config(tmp_path / "buggy.pdc", "interrupt"), buggy_catalogue())
    assert job.initialize() is PhaseStatus.OK
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert job.report.phases["execute"] is PhaseStatus.INTERRUPTED
    assert job.failure is None


# --- the streaming writer: execute hands each full unit of kept rows to the output -----

_UNIT_ROWS = _UNIT // 32  # rows of four doubles in one unit


class BreakAt(Algorithm):
    """At event `At`, keeps a one-cell row ("misfit") or, the first time,
    raises KeyboardInterrupt ("interrupt"), as `How` says."""

    PROPERTIES = (("At", Kind.INTEGER, 0), ("How", Kind.TEXT, "misfit"))
    interrupted = False

    def bind(self, event):
        self._at, self._how = self.value("At"), self.value("How")

    def process(self, job, event):
        if event.index == self._at:
            if self._how == "interrupt" and not self.interrupted:
                self.interrupted = True
                raise KeyboardInterrupt
            event.row = event.row[:1]
        return True


def break_catalogue():
    return (*standard_catalogue(), BreakAt)


def streamed_config(out, events, seed=3, **assignments):
    """A job of `events` four-field events, all kept, so that several units stream."""
    algorithms = ("RandomEventSource", *(("BreakAt",) if assignments else ()))
    return demo_config(out, algorithms=algorithms, RandomEventSource__Seed=seed,
                       RandomEventSource__NumEvents=events,
                       RandomEventSource__FieldCount=4, **assignments)


def test_a_second_execute_after_an_interrupt_keeps_each_row_once(tmp_path):
    at = 2 * _UNIT_ROWS + 5
    out, whole = tmp_path / "interrupted.pdc", tmp_path / "whole.pdc"
    job = build_job(streamed_config(out, at + 10, BreakAt__How="interrupt", BreakAt__At=at),
                    break_catalogue())
    job.initialize()
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert job.execute() is PhaseStatus.INTERRUPTED
    assert job.finalize() is PhaseStatus.OK
    assert job.report.events_written == at
    assert run_job(streamed_config(whole, at)).report.succeeded
    assert read_block(out, "events") == read_block(whole, "events")


def test_a_misfit_after_streamed_units_fails_finalize_and_leaves_nothing(tmp_path):
    at = 3 * _UNIT_ROWS + 5
    job = build_job(streamed_config(tmp_path / "late.pdc", at + 10, BreakAt__At=at),
                    break_catalogue())
    job.initialize()
    assert job.execute() is PhaseStatus.OK
    [temporary] = tmp_path.glob("*.tmp")
    assert temporary.stat().st_size >= 3 * _UNIT
    assert job.finalize() is PhaseStatus.FAILED
    assert str(job.failure).startswith(
        f"cannot write the kept events: row {at} of width 1 does not fit 4 float fields")
    assert list(tmp_path.iterdir()) == []


def test_an_interrupted_job_dropped_unfinished_leaves_no_temporary(tmp_path):
    at = 2 * _UNIT_ROWS + 5
    job = build_job(streamed_config(tmp_path / "late.pdc", at + 10, BreakAt__How="interrupt",
                                    BreakAt__At=at), break_catalogue())
    job.initialize()
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    del job
    gc.collect()  # the stages' generators and the job refer to each other
    assert list(tmp_path.iterdir()) == []


def test_two_jobs_streaming_to_one_path_keep_their_own_temporaries(tmp_path):
    out = tmp_path / "shared.pdc"
    jobs = [build_job(streamed_config(out, 2 * _UNIT_ROWS, seed)) for seed in (1, 2)]
    for phase in ("initialize", "execute"):
        for job in jobs:
            assert getattr(job, phase)() is PhaseStatus.OK
    assert len(list(tmp_path.glob("*.tmp"))) == 2
    for job in jobs:
        assert job.finalize() is PhaseStatus.OK
        with ContainerReader(out) as reader:
            reader.read_block("events")
            assert reader.block_crc("events") == job.report.payload_checksum
    assert jobs[0].report.payload_checksum != jobs[1].report.payload_checksum
    assert [p.name for p in tmp_path.iterdir()] == ["shared.pdc"]


@pytest.mark.parametrize("fault", ["missing_directory", "disk_full"])
def test_a_write_that_fails_while_streaming_fails_finalize(tmp_path, monkeypatch, fault):
    out = tmp_path / "out.pdc"
    if fault == "missing_directory":
        out = tmp_path / "missing_dir" / "out.pdc"
    else:
        monkeypatch.setattr(provrun.container, "open", lambda file, mode: FailingFile(
            builtins.open(file, mode), _UNIT + 100), raising=False)
    job = build_job(streamed_config(out, 3 * _UNIT_ROWS))
    job.initialize()
    assert job.execute() is PhaseStatus.OK
    assert job.report.events_written == 3 * _UNIT_ROWS
    assert job.finalize() is PhaseStatus.FAILED
    assert job.report.error.startswith(f"finalize: cannot write {out}")
    assert isinstance(job.failure, WriteFailure)
    assert list(tmp_path.rglob("*.pdc*")) == []


# --- the execute contract: what a per-event algorithm sees -------------------------

class Peek(Algorithm):
    """Records the index and row of every event that reaches it."""

    def start(self, job):
        self.seen = []

    def process(self, job, event):
        self.seen.append((event.index, event.row))
        return True


class StopAt(Algorithm):
    """Raises a bare StopIteration at event 2, as a stray `next()` would."""

    def process(self, job, event):
        if event.index == 2:
            raise StopIteration
        return True


def contract_catalogue():
    return (*failing_catalogue(), Peek, StopAt)


def test_an_algorithm_after_a_filter_sees_only_the_passed_events(tmp_path):
    whole = tmp_path / "whole.pdc"
    run_job(demo_config(whole, algorithms=("RandomEventSource",)))
    _, rows = decode_events(read_block(whole, "events"))
    job = run_job(demo_config(tmp_path / "peek.pdc",
                              algorithms=("RandomEventSource", "ThresholdFilter", "Peek"),
                              ThresholdFilter__Min=0.5), contract_catalogue())
    assert job.report.succeeded, job.report.error
    seen = job.algorithms[2].seen
    assert [index for index, _ in seen] == [0, 3, 7, 9]
    assert seen == [(index, rows[index]) for index in (0, 3, 7, 9)]
    assert (job.report.events_seen, job.report.events_written) == (10, 4)


def test_a_later_failure_leaves_the_event_in_flight_in_the_summary(tmp_path):
    out = tmp_path / "partial.pdc"
    job = run_job(demo_config(out, algorithms=("RandomEventSource", "Accumulator",
                                               "FailAfter")), contract_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert (job.report.events_seen, job.report.events_written) == (3, 3)
    summary = parse_options(read_block(out, "summary").decode("utf-8"))
    assert summary["Accumulator.Count"].value == 4


def test_a_stop_iteration_from_process_fails_the_event(tmp_path):
    job = run_job(demo_config(tmp_path / "stop.pdc",
                              algorithms=("RandomEventSource", "StopAt")),
                  contract_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == "StopIteration: "
    assert type(job.failure.__cause__) is StopIteration
    assert job.report.events_seen == 2
    assert job.report.events_written == 2


class FailsMakingTheSixth(EventSource):
    """Makes five of its ten events' rows, then fails making the sixth."""

    def plan(self, job):
        self.fields = ["f0"]
        return 10

    def stream(self, job, event, rows):
        def made():
            yield from ((float(i),) for i in range(5))
            raise AlgorithmFailure("no sixth row")

        return _numbered(event, made())


def test_a_source_failing_while_making_an_event_has_seen_it(tmp_path):
    # the event in flight is the one being made: five rows left, the sixth
    # event was seen
    job = run_job(demo_config(tmp_path / "six.pdc", algorithms=("FailsMakingTheSixth",)),
                  (*standard_catalogue(), FailsMakingTheSixth))
    assert job.report.error == "execute: no sixth row"
    assert (job.report.events_seen, job.report.events_written) == (5, 5)
    assert job.events.index == 5


def test_initialize_failure_skips_execute(tmp_path):
    config = demo_config(tmp_path / "x.pdc", ThresholdFilter__Min="bad")
    job = run_job(config)
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert job.report.phases["execute"] is PhaseStatus.SKIPPED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert not (tmp_path / "x.pdc").exists()


# --- finalize -------------------------------------------------------------------

def test_finalize_runs_exactly_once(tmp_path):
    out = tmp_path / "once.pdc"
    job = run_job(demo_config(out))
    stamp = out.stat().st_mtime_ns
    assert job.finalize() is PhaseStatus.OK  # second call is inert
    assert out.stat().st_mtime_ns == stamp


def test_a_second_initialize_records_the_input_once(tmp_path):
    source, out, again = (tmp_path / name for name in ("src.pdc", "out.pdc", "again.pdc"))
    run_job(demo_config(source, algorithms=("RandomEventSource",)))
    job = build_job(demo_config(out, algorithms=("FileEventSource",),
                                FileEventSource__Input=str(source)))
    assert job.initialize() is PhaseStatus.OK
    assert job.initialize() is PhaseStatus.OK  # second call is inert
    job.run()
    assert job.report.succeeded, job.report.error
    assert len(job.lineage.inputs) == 1
    assert "Provenance.Inputs.I1.Path" not in extract_info(out)
    assert main(["replay", str(out), str(again)]) == EXIT_OK


def test_a_second_execute_writes_no_more_events(tmp_path):
    out = tmp_path / "twice.pdc"
    job = build_job(demo_config(out, algorithms=("RandomEventSource",),
                                RandomEventSource__NumEvents=10))
    job.initialize()
    assert job.execute() is PhaseStatus.OK
    assert job.execute() is PhaseStatus.OK  # second call is inert
    job.finalize()
    assert (job.report.events_seen, job.report.events_written) == (10, 10)
    assert len(decode_events(read_block(out, "events"))[1]) == 10


def test_a_job_succeeds_only_once_all_three_phases_are_ok():
    job = build_job(demo_config(""))
    assert not job.report.succeeded  # built, never run
    job.initialize()
    assert not job.report.succeeded
    job.execute()
    assert not job.report.succeeded
    job.finalize()
    assert job.report.succeeded


def test_finalize_writes_container_with_info(tmp_path):
    job, out = run_demo(tmp_path)
    assert out.exists()
    info = extract_info(out)
    assert len(info) > 0
    assert info == job.metadata_svc.get_metadata()
    assert job.report.payload_checksum is not None


def test_info_block_is_a_canonical_document(tmp_path):
    from provrun import emit_canonical, parse_options

    _, out = run_demo(tmp_path)
    text = read_block(out, "info").decode("utf-8")
    assert emit_canonical(parse_options(text)) == text


def test_finalize_without_metadata_service(tmp_path):
    job, out = run_demo(tmp_path, metadata=False)
    assert out.exists()
    with pytest.raises(MissingInfo):
        extract_info(out)
    assert job.report.succeeded


def test_empty_output_path_writes_nothing(tmp_path):
    job = run_job(demo_config(""))
    assert job.report.succeeded
    assert job.report.output_path == ""
    assert job.report.payload_checksum is None


def test_run_is_deterministic_at_payload_level(tmp_path):
    _, out1 = run_demo(tmp_path, "one.pdc", RandomEventSource__Seed=77)
    _, out2 = run_demo(tmp_path, "two.pdc", RandomEventSource__Seed=77)
    assert read_block(out1, "events") == read_block(out2, "events")


def test_accumulator_writes_summary_block(tmp_path):
    job, out = run_demo(tmp_path,
                        algorithms=("RandomEventSource", "Accumulator"),
                        RandomEventSource__NumEvents=5)
    payload = read_block(out, "summary").decode()
    assert "Accumulator.Count = 5" in payload
    assert "Accumulator.Sum = " in payload


def test_finalize_write_failure_fails_finalize_and_stops_every_service(tmp_path):
    job = build_job(demo_config(tmp_path / "missing_dir" / "out.pdc"))
    stopped = []
    for svc in job.registry:
        svc.stop = lambda job, svc=svc, stop=svc.stop: (stopped.append(svc.name),
                                                         stop(job))
    job.run()
    assert job.report.phases["initialize"] is PhaseStatus.OK
    assert job.report.phases["execute"] is PhaseStatus.OK
    assert job.report.phases["finalize"] is PhaseStatus.FAILED
    assert job.report.error.startswith("finalize: cannot write")
    assert isinstance(job.failure, WriteFailure)
    assert stopped == [svc.name for svc in reversed(job.registry)]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_failed_write_reports_no_output(tmp_path):
    job = run_job(demo_config(tmp_path / "missing_dir" / "out.pdc"))
    assert job.report.phases["finalize"] is PhaseStatus.FAILED
    assert job.report.output_path == ""
    assert job.report.payload_checksum is None


class FailingStop(Service):
    def stop(self, job):
        raise AlgorithmFailure("stop failed")


class StopRecorder(Service):
    stopped = False

    def stop(self, job):
        self.stopped = True


def stop_test_catalogue():
    return (*standard_catalogue(), FailingStop, StopRecorder)


def test_a_failing_service_stop_fails_finalize(tmp_path):
    out = tmp_path / "out.pdc"
    config = demo_config(out)
    config.set("ApplicationMgr.Services", ["MetaDataSvc", "StopRecorder", "FailingStop"])
    job = run_job(config, stop_test_catalogue())
    assert job.report.phases["finalize"] is PhaseStatus.FAILED
    assert job.report.error == "finalize: stop failed"
    assert out.exists()
    assert job.components["StopRecorder"].stopped


def test_a_write_failure_is_reported_before_a_failing_stop(tmp_path):
    config = demo_config(tmp_path / "missing_dir" / "out.pdc")
    config.set("ApplicationMgr.Services", ["MetaDataSvc", "StopRecorder", "FailingStop"])
    job = run_job(config, stop_test_catalogue())
    assert job.report.phases["finalize"] is PhaseStatus.FAILED
    assert job.report.error.startswith("finalize: cannot write")
    assert isinstance(job.failure, WriteFailure)
    assert job.components["StopRecorder"].stopped


# --- refusals -------------------------------------------------------------------

@pytest.mark.parametrize("prop, value", [("Path", 3), ("Checksum", -1),
                                         ("Checksum", 4294967296), ("Checksum", 1.5)])
def test_lineage_declaration_of_the_wrong_kind_fails_initialize(tmp_path, prop, value):
    config = demo_config(tmp_path / "x.pdc", **{f"Provenance__Inputs__I0__{prop}": value})
    job = run_job(config)
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert isinstance(job.failure, KindMismatch)
    assert not (tmp_path / "x.pdc").exists()


def test_negative_event_count_fails_execute(tmp_path):
    job, _ = run_demo(tmp_path, RandomEventSource__NumEvents=-1)
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)


def test_file_source_without_input_fails_initialize(tmp_path):
    job, out = run_demo(tmp_path, algorithms=("FileEventSource",))
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == "FileEventSource.Input is not set"
    assert not out.exists()
