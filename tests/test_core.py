"""Job lifecycle: build, initialize, execute, finalize."""

import random

import pytest

from provrun import (
    Kind,
    OptionsSet,
    PhaseStatus,
    build_job,
    extract_info,
    read_block,
    run_job,
    standard_catalogue,
)
from provrun.algorithms import Algorithm
from provrun.errors import (
    AlgorithmFailure,
    DuplicateComponent,
    InvalidConfiguration,
    KindMismatch,
    MissingInfo,
    UnknownComponent,
)

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


@pytest.mark.parametrize("make_catalogue",
                         [_alias_catalogue, _shadow_catalogue, _tool_shadow_catalogue],
                         ids=["two-keys-one-class", "algorithm-named-like-a-service",
                              "tool-named-like-a-service"])
def test_build_rejects_two_components_of_one_name(make_catalogue):
    # an assignment to the shared name would reach only one of them, while
    # the capture would record both under that name
    catalogue, algorithms = make_catalogue()
    config = demo_config("", algorithms=algorithms, ThresholdFilter__Min=0.9)
    with pytest.raises(DuplicateComponent):
        build_job(config, catalogue)


def test_initialize_rejects_two_tools_of_one_name():
    # two catalogue keys of one tool class would run two instances named
    # DemoTool, and the capture would record only one of their Gains
    catalogue = standard_catalogue()
    catalogue.tools["Amp"] = catalogue.tools["DemoTool"]
    job = build_job(demo_config("", Amp__Gain=2.0, DemoTool__Gain=3.0), catalogue)
    assert job.initialize() is PhaseStatus.FAILED
    assert isinstance(job.failure, DuplicateComponent)


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
        for component in job.iter_components():
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
    out = tmp_path / "fail.pdc"
    config = demo_config(out, algorithms=("RandomEventSource", "FailAfter"),
                         RandomEventSource__NumEvents=10)
    job = run_job(config, failing_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert job.report.events_seen == 3
    # the partial container still exists, with provenance
    assert extract_info(out)["RandomEventSource.NumEvents"] == "10"


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
