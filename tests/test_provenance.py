"""Provenance capture: enablement, resolution, completeness, stability."""

import random

import pytest

from provrun import (
    ContainerReader,
    OptionsSet,
    build_job,
    extract_info,
    parse_options,
    run_job,
    value_to_text,
)
from provrun.errors import InvalidConfiguration, NotCollected

from helpers import demo_config, random_demo_config


def test_is_enabled_by_membership():
    config = OptionsSet([("ApplicationMgr.Services", ["MessageSvc", "MetaDataSvc"])])
    assert build_job(config).metadata_svc is not None


def test_is_enabled_false_without_membership():
    config = OptionsSet([("ApplicationMgr.Services", ["MessageSvc"])])
    assert build_job(config).metadata_svc is None


def test_is_enabled_false_when_services_absent():
    assert build_job(OptionsSet()).metadata_svc is None


def test_capture_records_app_identity(tmp_path):
    out = tmp_path / "app.pdc"
    job = run_job(demo_config(out, ApplicationMgr__AppName="analysis",
                              ApplicationMgr__AppVersion="v7r2"))
    snapshot = job.metadata_svc.get_metadata()
    assert snapshot["ApplicationMgr.AppName"] == '"analysis"'
    assert snapshot["ApplicationMgr.AppVersion"] == '"v7r2"'


def test_minimal_job_captures_standard_defaults(tmp_path):
    out = tmp_path / "minimal.pdc"
    config = OptionsSet([
        ("ApplicationMgr.Services", ["MetaDataSvc"]),
        ("ApplicationMgr.OutputFile", str(out)),
    ])
    job = run_job(config)
    snapshot = job.metadata_svc.get_metadata()
    assert snapshot["MessageSvc.OutputLevel"] == "3"
    assert snapshot["MetaDataSvc.Enabled"] == "true"
    assert snapshot["ApplicationMgr.AppName"] == '"provrun"'
    assert snapshot["ApplicationMgr.TopAlg"] == "[]"


def test_every_applied_assignment_is_captured(tmp_path):
    rnd = random.Random(47)
    for trial in range(25):
        out = tmp_path / f"c{trial}.pdc"
        config = random_demo_config(rnd, out)
        job = run_job(config)
        assert job.report.succeeded, job.report.error
        snapshot = extract_info(out)
        for key, value in job.options_svc.applied_log:
            assert snapshot[key.text] == value_to_text(value)


def test_capture_is_resolved_not_just_explicit(tmp_path):
    out = tmp_path / "resolved.pdc"
    job = run_job(demo_config(out))
    snapshot = job.metadata_svc.get_metadata()
    for component in job.components.values():
        for prop_name, value in component.values.items():
            assert snapshot[f"{component.name}.{prop_name}"] == value_to_text(value)


def test_get_metadata_before_start_raises():
    job = build_job(demo_config(""))
    job.initialize()
    with pytest.raises(NotCollected):
        job.metadata_svc.get_metadata()


def test_disabled_job_never_starts_capture(tmp_path):
    job = run_job(demo_config(tmp_path / "off.pdc", metadata=False))
    assert job.metadata_svc is None


def test_start_is_idempotent(tmp_path):
    job = run_job(demo_config(tmp_path / "idem.pdc"))
    first = job.metadata_svc.get_metadata()
    job.metadata_svc.start(job)
    assert job.metadata_svc.get_metadata() is first
    assert job.metadata_svc.get_metadata().emit() == first.emit()


def test_capture_is_idempotent(tmp_path):
    job = run_job(demo_config(tmp_path / "twice.pdc"))
    first = job.metadata_svc.get_metadata()
    job.metadata_svc.capture(job)
    assert job.metadata_svc.get_metadata() is first


def test_snapshot_reenables_capture_on_replay(tmp_path):
    job = run_job(demo_config(tmp_path / "self.pdc"))
    snapshot = job.metadata_svc.get_metadata()
    assert build_job(parse_options(snapshot.emit())).metadata_svc is not None


def test_enabled_false_while_listed_is_rejected(tmp_path):
    config = demo_config(tmp_path / "contradict.pdc")
    config.set("MetaDataSvc.Enabled", False)
    job = run_job(config)
    assert isinstance(job.failure, InvalidConfiguration)


def test_snapshot_contains_no_wallclock_or_host_entries(tmp_path):
    job = run_job(demo_config(tmp_path / "clean.pdc"))
    keys = job.metadata_svc.get_metadata().keys()
    for key in keys:
        lowered = key.lower()
        assert "time" not in lowered
        assert "host" not in lowered
        assert "user" not in lowered


def test_snapshot_independent_of_working_directory(tmp_path, monkeypatch):
    out = tmp_path / "cwd.pdc"
    config = demo_config(out, RandomEventSource__Seed=5)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    monkeypatch.chdir(dir_a)
    run_job(config)
    bytes_a = out.read_bytes()
    monkeypatch.chdir(dir_b)
    run_job(config)
    bytes_b = out.read_bytes()
    assert bytes_a == bytes_b


def test_lineage_declarations_without_inputs_are_rejected(tmp_path):
    config = demo_config(tmp_path / "x.pdc")
    config.set("Provenance.Inputs.I0.Path", "somewhere.pdc")
    config.set("Provenance.Inputs.I0.Checksum", 123)
    job = run_job(config)
    from provrun.errors import LineageMismatch

    assert isinstance(job.failure, LineageMismatch)


def test_lineage_declared_path_must_match_configured_input(tmp_path):
    first = tmp_path / "first.pdc"
    run_job(demo_config(first, algorithms=("RandomEventSource",)))
    config = demo_config(tmp_path / "second.pdc",
                         algorithms=("FileEventSource",),
                         FileEventSource__Input=str(first))
    config.set("Provenance.Inputs.I0.Path", "/elsewhere/other.pdc")
    job = run_job(config)
    from provrun.errors import LineageMismatch

    assert isinstance(job.failure, LineageMismatch)
    assert "declared" in str(job.failure)


@pytest.mark.parametrize("field", ["Path", "Checksum"])
def test_lineage_mismatch_names_the_reserved_key(tmp_path, field):
    first = tmp_path / "first.pdc"
    run_job(demo_config(first, algorithms=("RandomEventSource",)))
    with ContainerReader(first) as reader:
        read = {"Path": str(first), "Checksum": reader.block_crc("events")}
    declared = {"Path": "/elsewhere/other.pdc", "Checksum": 123}
    config = demo_config(tmp_path / "second.pdc", algorithms=("FileEventSource",),
                         FileEventSource__Input=str(first))
    config.set(f"Provenance.Inputs.I0.{field}", declared[field])
    job = run_job(config)
    from provrun.errors import LineageMismatch

    assert isinstance(job.failure, LineageMismatch)
    assert str(job.failure) == (f"Provenance.Inputs.I0.{field} is declared as "
                                f"{declared[field]!r} but the job reads {read[field]!r}")


def test_malformed_reserved_lineage_key_is_rejected(tmp_path):
    config = demo_config(tmp_path / "x.pdc")
    config.set("Provenance.Foo", 1)
    job = run_job(config)
    from provrun.errors import UnknownProperty

    assert isinstance(job.failure, UnknownProperty)


@pytest.mark.parametrize("ordinal", ["I00", "I01"])
def test_noncanonical_lineage_ordinals_are_rejected(tmp_path, ordinal):
    config = demo_config(tmp_path / "x.pdc")
    config.set(f"Provenance.Inputs.{ordinal}.Path", "somewhere.pdc")
    job = run_job(config)
    from provrun.errors import UnknownProperty

    assert isinstance(job.failure, UnknownProperty)


def test_lineage_recorded_for_file_inputs(tmp_path):
    first = tmp_path / "first.pdc"
    run_job(demo_config(first, algorithms=("RandomEventSource",),
                        RandomEventSource__NumEvents=6))
    second = tmp_path / "second.pdc"
    config = demo_config(second, algorithms=("FileEventSource", "ThresholdFilter"),
                         FileEventSource__Input=str(first))
    job = run_job(config)
    assert job.report.succeeded, job.report.error
    assert len(job.lineage.inputs) == 1
    path, checksum = job.lineage.inputs[0]
    assert path == str(first)
    snapshot = job.metadata_svc.get_metadata()
    from provrun import OptionValue

    assert snapshot["Provenance.Inputs.I0.Path"] == value_to_text(
        OptionValue.of(str(first)))
    assert snapshot["Provenance.Inputs.I0.Checksum"] == str(checksum)
