"""Job lifecycle: build, initialize, execute, finalize."""

import random

import pytest

from provrun import (
    Kind,
    OptionsSet,
    PhaseStatus,
    build_job,
    extract_info,
    parse_options,
    read_block,
    run_job,
    standard_catalogue,
)
from provrun.algorithms import Algorithm, DemoTool
from provrun.errors import (
    AlgorithmFailure,
    DuplicateComponent,
    InvalidConfiguration,
    KindMismatch,
    MissingInfo,
    UnknownComponent,
    WriteFailure,
)
from provrun.events import decode_events
from provrun.services import Service

from helpers import demo_config, random_demo_config


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


def _alias_catalogue():
    catalogue = standard_catalogue()
    catalogue.algorithms["LowCut"] = catalogue.algorithms["ThresholdFilter"]
    return catalogue, ("RandomEventSource", "ThresholdFilter", "LowCut")


def _shadow_catalogue():
    catalogue = standard_catalogue()
    catalogue.algorithms["MessageSvc"] = type("MessageSvc", (Algorithm,), {})
    return catalogue, ("RandomEventSource", "MessageSvc")


def _tool_shadow_catalogue():
    catalogue = standard_catalogue()
    catalogue.tools["MessageSvc"] = catalogue.tools["DemoTool"]
    return catalogue, ("RandomEventSource",)


def _lone_alias_catalogue():
    catalogue = standard_catalogue()
    catalogue.algorithms["LowCut"] = catalogue.algorithms.pop("ThresholdFilter")
    return catalogue, ("RandomEventSource", "LowCut")


def _lone_tool_alias_catalogue():
    catalogue = standard_catalogue()
    catalogue.tools = {"Amp": DemoTool}
    return catalogue, ("RandomEventSource",)


def _service_shadow_catalogue():
    catalogue = standard_catalogue()
    catalogue.services["MessageSvc"] = type("MessageSvc", (Service,), {})
    return catalogue, ("RandomEventSource",)


@pytest.mark.parametrize("make_catalogue",
                         [_alias_catalogue, _shadow_catalogue, _tool_shadow_catalogue,
                          _lone_alias_catalogue, _lone_tool_alias_catalogue,
                          _service_shadow_catalogue],
                         ids=["two-keys-one-class", "algorithm-named-like-a-service",
                              "tool-named-like-a-service", "lone-algorithm-alias",
                              "lone-tool-alias", "service-named-like-a-service"])
def test_build_rejects_two_components_of_one_name(make_catalogue):
    # an assignment to the shared name would reach only one of them, while
    # the capture would record both under that name; a lone alias answers
    # to its key in TopAlg but to its class name in assignments and capture
    catalogue, algorithms = make_catalogue()
    config = demo_config("", algorithms=algorithms, ThresholdFilter__Min=0.9)
    with pytest.raises(DuplicateComponent):
        build_job(config, catalogue)


def test_initialize_rejects_two_tools_of_one_name():
    # two catalogue keys of one tool class would run two instances named
    # DemoTool, and the capture would record only one of their Gains; the
    # catalogue is refused before anything is instantiated
    catalogue = standard_catalogue()
    catalogue.tools["Amp"] = catalogue.tools["DemoTool"]
    with pytest.raises(DuplicateComponent):
        build_job(demo_config("", Amp__Gain=2.0, DemoTool__Gain=3.0), catalogue)


@pytest.mark.parametrize("prop", ["TopAlg", "Services"])
@pytest.mark.parametrize("value", [3, [1, 2]], ids=["integer", "list-of-integer"])
def test_build_rejects_a_component_list_of_the_wrong_kind(prop, value):
    config = OptionsSet([(f"ApplicationMgr.{prop}", value)])
    with pytest.raises(KindMismatch):
        build_job(config)


def test_build_rejects_reserved_component_name():
    catalogue = standard_catalogue()
    catalogue.tools["Provenance"] = type("Provenance", (Algorithm,), {})
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
    misfit = type("Misfit", (Algorithm,), {"PROPERTIES": (("Gain", Kind.FLOAT, 1),)})
    with pytest.raises(KindMismatch, match="default for 'Gain' is not float"):
        misfit()


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
            for spec in component.specs.values():
                expected = config.get(f"{component.name}.{spec.name}", spec.default)
                assert spec.applied == expected


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
    catalogue = standard_catalogue()
    catalogue.algorithms["FailAfter"] = FailAfter
    return catalogue


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
    catalogue = standard_catalogue()
    catalogue.algorithms["Misfit"] = Misfit
    return catalogue


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
    catalogue = standard_catalogue()
    catalogue.algorithms["Buggy"] = Buggy
    return catalogue


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
    assert "execute" not in job.report.phases
    assert job.failure is None


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
    catalogue = failing_catalogue()
    catalogue.algorithms.update(Peek=Peek, StopAt=StopAt)
    return catalogue


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
    catalogue = standard_catalogue()
    catalogue.services["FailingStop"] = FailingStop
    catalogue.services["StopRecorder"] = StopRecorder
    return catalogue


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
